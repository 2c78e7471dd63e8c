package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// chaosOn wraps a fresh single-process transport of the given kind.
func chaosOn(t *testing.T, kind string, np int, plan *ChaosPlan) Transport {
	t.Helper()
	inner, err := New(kind, np)
	if err != nil {
		t.Fatal(err)
	}
	return NewChaos(inner, plan)
}

// TestChaosDelegatesCleanly checks that an unarmed chaos wrapper is a
// faithful transport on every wire: traffic, collectives and health
// pass straight through.
func TestChaosDelegatesCleanly(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			tr := chaosOn(t, kind, 4, &ChaosPlan{Generation: 99}) // never armed
			defer tr.Close()
			if tr.Kind() != kind || tr.NP() != 4 {
				t.Fatalf("identity: kind=%s np=%d", tr.Kind(), tr.NP())
			}
			exerciseStreams(t, tr)
			tr.(EpochMarker).MarkEpoch(1000) // plan at wrong generation: no-op
			if err := tr.Barrier(); err != nil {
				t.Fatalf("barrier through chaos wrapper: %v", err)
			}
			if h := tr.Status(); h.Err != nil {
				t.Fatalf("unarmed chaos wrapper reports Err %v", h.Err)
			}
		})
	}
}

// TestChaosScriptedKill checks the detected-loss fault on every wire:
// at the scripted epoch the wrapper latches a *MemberLostError for
// the scripted process, exactly once, and only at the plan's
// generation.
func TestChaosScriptedKill(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			tr := chaosOn(t, kind, 2, &ChaosPlan{KillAtEpoch: 5, KillProc: 0})
			defer tr.Close()
			m := tr.(EpochMarker)
			m.MarkEpoch(4)
			if err := tr.Err(); err != nil {
				t.Fatalf("fault fired before its epoch: %v", err)
			}
			m.MarkEpoch(5)
			proc, ok := AsMemberLost(tr.Err())
			if !ok || proc != 0 {
				t.Fatalf("Err after scripted kill = %v, want member-lost for process 0", tr.Err())
			}
		})
	}
}

// TestChaosDie checks the abrupt-death fault on the single-process
// wires: the transport dies with no goodbye (ErrChaosKilled locally),
// and Send/Recv/Barrier afterwards return instead of blocking.
func TestChaosDie(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			tr := chaosOn(t, kind, 2, &ChaosPlan{DieAtEpoch: 3, DieProc: 0})
			defer tr.Close()
			tr.(EpochMarker).MarkEpoch(3)
			deadline := time.Now().Add(5 * time.Second)
			for tr.Err() == nil {
				if time.Now().After(deadline) {
					t.Fatal("no failure latched after scripted death")
				}
				time.Sleep(time.Millisecond)
			}
			done := make(chan struct{})
			go func() {
				tr.Send(1, 2, []float64{1})
				tr.Recv(1, 2)
				tr.Barrier()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("operations blocked on a dead transport")
			}
		})
	}
}

// TestChaosDelayPreservesOrder checks that scripted send delays slow
// the wire without reordering or dropping messages.
func TestChaosDelayPreservesOrder(t *testing.T) {
	tr := chaosOn(t, Inproc, 2, &ChaosPlan{DelayEvery: 2, Delay: time.Millisecond})
	defer tr.Close()
	const msgs = 10
	go func() {
		for k := 0; k < msgs; k++ {
			tr.Send(1, 2, []float64{float64(k)})
		}
	}()
	for k := 0; k < msgs; k++ {
		got := tr.Recv(1, 2)
		if len(got) != 1 || got[0] != float64(k) {
			t.Fatalf("message %d: got %v", k, got)
		}
	}
}

// chaosMesh bootstraps a procs-member mesh of the given wire inside
// this test binary, every member wrapped with the same chaos plan.
func chaosMesh(t *testing.T, wire string, np, procs, gen int, dir, addr string, plan *ChaosPlan) []Transport {
	t.Helper()
	trs := make([]Transport, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := Join(wire, Config{Job: "chaos-test", NP: np, Procs: procs, Self: i, Generation: gen,
				Addr: addr, Dir: dir, Timeout: 10 * time.Second, Heartbeat: 20 * time.Millisecond})
			if err == nil {
				tr = NewChaos(tr, plan)
			}
			trs[i] = tr
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("generation %d process %d bootstrap: %v", gen, i, err)
		}
	}
	return trs
}

// TestChaosDieRejoin is the in-binary die/rejoin scenario on both
// multi-process wires: a 3-member mesh loses member 1 to a scripted
// abrupt death (no goodbye — the survivors' failure detectors must
// discover it), every member observes a failure, and all three
// rebuild a healthy mesh at the bumped generation where the same plan
// no longer fires.
func TestChaosDieRejoin(t *testing.T) {
	for _, wire := range []string{TCP, Shm} {
		t.Run(wire, func(t *testing.T) {
			const np, procs = 6, 3
			dir := t.TempDir()
			var addr string
			if wire == TCP {
				addr = freeAddr(t)
			}
			plan := &ChaosPlan{Generation: 1, DieAtEpoch: 2, DieProc: 1}
			trs := chaosMesh(t, wire, np, procs, 1, dir, addr, plan)
			// Drive epochs: a barrier per epoch, the death scripted at
			// epoch 2. Every member must end with an error rather than
			// hang — ErrChaosKilled on the victim, a detected loss (or
			// the shared failure) on the survivors.
			var wg sync.WaitGroup
			failures := make([]error, procs)
			for i := 0; i < procs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					tr := trs[i]
					for epoch := 1; epoch <= 50; epoch++ {
						tr.(EpochMarker).MarkEpoch(epoch)
						if err := tr.Barrier(); err != nil {
							failures[i] = err
							return
						}
						time.Sleep(5 * time.Millisecond)
					}
				}(i)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(20 * time.Second):
				t.Fatal("mesh hung instead of failing after the scripted death")
			}
			if !errors.Is(failures[1], ErrChaosKilled) {
				t.Fatalf("victim failure = %v, want ErrChaosKilled", failures[1])
			}
			for _, i := range []int{0, 2} {
				if failures[i] == nil {
					t.Fatalf("survivor %d observed no failure", i)
				}
			}
			for _, tr := range trs {
				tr.Close()
			}
			// Rejoin at the bumped generation: the same plan is no
			// longer armed, so the rebuilt mesh runs clean.
			trs = chaosMesh(t, wire, np, procs, 2, dir, addr, plan)
			perr := make(chan error, procs)
			for i := 0; i < procs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					tr := trs[i]
					for epoch := 1; epoch <= 4; epoch++ {
						tr.(EpochMarker).MarkEpoch(epoch)
						if err := tr.Barrier(); err != nil {
							perr <- fmt.Errorf("rejoined process %d epoch %d: %v", i, epoch, err)
							return
						}
					}
					if h := tr.Status(); h.Err != nil || len(lostOf(h)) != 0 {
						perr <- fmt.Errorf("rejoined process %d unhealthy: %+v", i, h)
					}
				}(i)
			}
			wg.Wait()
			close(perr)
			for err := range perr {
				t.Error(err)
			}
			for _, tr := range trs {
				tr.Close()
			}
		})
	}
}

// TestChaosDropConnTCP severs one raw mesh connection mid-job: both
// ends of the dead socket must attribute the loss to the right peer.
func TestChaosDropConnTCP(t *testing.T) {
	const np, procs = 4, 2
	addr := freeAddr(t)
	plan := &ChaosPlan{Generation: 1, DropConnAtEpoch: 1, DropPeer: 1}
	trs := chaosMesh(t, TCP, np, procs, 1, t.TempDir(), addr, plan)
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	// Only process 0 executes the drop (its plan names peer 1).
	trs[0].(EpochMarker).MarkEpoch(1)
	deadline := time.Now().Add(10 * time.Second)
	for i, wantPeer := range []int{1, 0} {
		for {
			if proc, ok := AsMemberLost(trs[i].Err()); ok {
				if proc != wantPeer {
					t.Fatalf("process %d attributed loss to %d, want %d", i, proc, wantPeer)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("process %d never detected the severed connection (err=%v)", i, trs[i].Err())
			}
			time.Sleep(time.Millisecond)
		}
	}
}
