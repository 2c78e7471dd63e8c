package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// freeAddr reserves a localhost port for a rendezvous address.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestHostOfRankPartition(t *testing.T) {
	for _, tc := range []struct{ np, procs int }{{8, 1}, {8, 4}, {7, 3}, {5, 5}, {9, 4}, {8, 6}, {5, 4}} {
		seen := map[int]int{}
		for r := 1; r <= tc.np; r++ {
			h := HostOfRank(tc.np, tc.procs, r)
			if h < 0 || h >= tc.procs {
				t.Fatalf("np=%d procs=%d rank %d: host %d out of range", tc.np, tc.procs, r, h)
			}
			seen[h]++
		}
		covered := 0
		for p := 0; p < tc.procs; p++ {
			lo, hi := RanksOf(tc.np, tc.procs, p)
			// The remainder is spread: hosts differ by at most one
			// rank, the larger first, and none is empty.
			if n, q := hi-lo+1, tc.np/tc.procs; n < 1 || n != q && n != q+1 || n == q+1 && p >= tc.np%tc.procs {
				t.Fatalf("np=%d procs=%d: process %d hosts ranks %d..%d", tc.np, tc.procs, p, lo, hi)
			}
			for r := lo; r <= hi; r++ {
				if HostOfRank(tc.np, tc.procs, r) != p {
					t.Fatalf("np=%d procs=%d: RanksOf(%d)=[%d,%d] but rank %d hosted by %d", tc.np, tc.procs, p, lo, hi, r, HostOfRank(tc.np, tc.procs, r))
				}
				covered++
			}
		}
		if covered != tc.np {
			t.Fatalf("np=%d procs=%d: partition covers %d ranks", tc.np, tc.procs, covered)
		}
	}
}

// exerciseStreams checks per-pair FIFO order over every ordered rank
// pair of a single-process transport.
func exerciseStreams(t *testing.T, tr Transport) {
	t.Helper()
	np := tr.NP()
	const msgs = 5
	var wg sync.WaitGroup
	for s := 1; s <= np; s++ {
		for d := 1; d <= np; d++ {
			wg.Add(1)
			go func(s, d int) {
				defer wg.Done()
				for k := 0; k < msgs; k++ {
					tr.Send(s, d, []float64{float64(s*100 + d), float64(k)})
				}
			}(s, d)
		}
	}
	errc := make(chan error, np*np)
	for s := 1; s <= np; s++ {
		for d := 1; d <= np; d++ {
			wg.Add(1)
			go func(s, d int) {
				defer wg.Done()
				for k := 0; k < msgs; k++ {
					msg := tr.Recv(s, d)
					if len(msg) != 2 || msg[0] != float64(s*100+d) || msg[1] != float64(k) {
						errc <- fmt.Errorf("pair (%d,%d) msg %d: got %v", s, d, k, msg)
						return
					}
				}
			}(s, d)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func TestInprocStreams(t *testing.T) {
	tr := NewInproc(4)
	defer tr.Close()
	exerciseStreams(t, tr)
}

func TestTCPLoopStreams(t *testing.T) {
	tr, err := New(TCP, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	exerciseStreams(t, tr)
}

func TestFailUnblocksRecvAndSend(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			tr, err := New(kind, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			done := make(chan []float64, 1)
			go func() { done <- tr.Recv(1, 2) }()
			time.Sleep(20 * time.Millisecond)
			tr.Fail(fmt.Errorf("boom"))
			select {
			case msg := <-done:
				if msg != nil {
					t.Fatalf("aborted Recv returned %v, want nil", msg)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Recv still blocked after Fail")
			}
			// Sends on a failed transport must not block either.
			sent := make(chan struct{})
			go func() {
				for i := 0; i < 10; i++ {
					tr.Send(1, 2, []float64{1})
				}
				close(sent)
			}()
			select {
			case <-sent:
			case <-time.After(2 * time.Second):
				t.Fatal("Send blocked after Fail")
			}
			if tr.Err() == nil {
				t.Fatal("Err() nil after Fail")
			}
		})
	}
}

// joinMesh bootstraps every member of a multi-process job inside this
// test binary — real sockets, or one real mapped file — and closes them
// when the test ends. base carries the shape; Self, Addr and Dir are
// filled in per member.
func joinMesh(t *testing.T, kind string, base Config) []Transport {
	t.Helper()
	if kind == TCP {
		base.Addr = freeAddr(t)
	} else {
		base.Dir = t.TempDir()
	}
	if base.Timeout == 0 {
		base.Timeout = 10 * time.Second
	}
	trs := make([]Transport, base.Procs)
	errs := make([]error, base.Procs)
	var wg sync.WaitGroup
	for i := range trs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := base
			cfg.Self = i
			trs[i], errs[i] = Join(kind, cfg)
		}(i)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, tr := range trs {
			if tr != nil {
				tr.Close()
			}
		}
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d bootstrap: %v", i, err)
		}
	}
	return trs
}

// meshTraffic drives one round of everything a job does on the wire
// from every member at once: every rank sends one tagged message to
// every rank (cross- and same-process pairs), each process broadcasts
// in turn, and everyone meets at a barrier.
func meshTraffic(t *testing.T, trs []Transport) {
	t.Helper()
	np, procs := trs[0].NP(), len(trs)
	var wg sync.WaitGroup
	perr := make(chan error, procs)
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := trs[i]
			lo, hi := RanksOf(np, procs, i)
			for s := lo; s <= hi; s++ {
				for d := 1; d <= np; d++ {
					tr.Send(s, d, []float64{float64(1000*s + d)})
				}
			}
			for d := lo; d <= hi; d++ {
				for s := 1; s <= np; s++ {
					msg := tr.Recv(s, d)
					if len(msg) != 1 || msg[0] != float64(1000*s+d) {
						perr <- fmt.Errorf("process %d pair (%d,%d): got %v", i, s, d, msg)
						return
					}
				}
			}
			for from := 0; from < procs; from++ {
				var vals []float64
				if from == i {
					vals = []float64{float64(from), 42}
				}
				got := tr.Bcast(from, vals)
				if len(got) != 2 || got[0] != float64(from) || got[1] != 42 {
					perr <- fmt.Errorf("process %d bcast from %d: got %v", i, from, got)
					return
				}
			}
			if err := tr.Barrier(); err != nil {
				perr <- fmt.Errorf("process %d barrier: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(perr)
	for err := range perr {
		t.Error(err)
	}
}

// TestMesh runs a full 3-process job inside one test binary on each
// multi-process wire: three transports bootstrap over real localhost
// sockets (tcp) or rendezvous on one mapped file (shm), exchange
// cross- and same-process rank traffic, broadcast, and barrier.
func TestMesh(t *testing.T) {
	for _, kind := range []string{TCP, Shm} {
		t.Run(kind, func(t *testing.T) {
			trs := joinMesh(t, kind, Config{Job: "mesh-test", NP: 6, Procs: 3, Generation: 7})
			meshTraffic(t, trs)
			for i, tr := range trs {
				if h := tr.Status(); h.Generation != 7 || h.Self != i || len(lostOf(h)) != 0 || h.Err != nil {
					t.Errorf("process %d after a clean round: status %+v", i, h)
				}
			}
		})
	}
}

// TestMeshFramesBalance: every frame one member counts as sent, some
// member counts as received — data and collective frames alike, and
// never a liveness frame, so an idle job's counters stand still.
func TestMeshFramesBalance(t *testing.T) {
	for _, kind := range []string{TCP, Shm} {
		t.Run(kind, func(t *testing.T) {
			const beat = 10 * time.Millisecond
			trs := joinMesh(t, kind, Config{Job: "balance-test", NP: 4, Procs: 2, Generation: 1, Heartbeat: beat})
			meshTraffic(t, trs)
			time.Sleep(5 * beat) // idle: only heartbeats cross the wire
			var sum WireStats
			for _, tr := range trs {
				w := tr.(WireCounter).Wire()
				sum.FramesSent += w.FramesSent
				sum.FramesRecv += w.FramesRecv
				sum.BytesSent += w.BytesSent
				sum.BytesRecv += w.BytesRecv
			}
			if sum.FramesSent == 0 || sum.FramesSent != sum.FramesRecv || sum.BytesSent != sum.BytesRecv {
				t.Fatalf("job-wide wire tally does not balance after an idle: %+v", sum)
			}
		})
	}
}

// TestJoinRefusesBadShape: one validate refuses, before touching the
// network or the file system, what no wire can run — here more
// processes than ranks, so that one would host none.
func TestJoinRefusesBadShape(t *testing.T) {
	for _, kind := range []string{TCP, Shm} {
		for self := 0; self < 4; self++ {
			start := time.Now()
			// An address nobody listens on: reaching the network would
			// cost the full timeout.
			tr, err := Join(kind, Config{Job: "shape", NP: 3, Procs: 4, Self: self, Generation: 1,
				Addr: "127.0.0.1:1", Dir: t.TempDir(), Timeout: 5 * time.Second})
			if err == nil {
				tr.Close()
				t.Fatalf("%s: process %d joined a job whose process 3 hosts no ranks", kind, self)
			}
			if time.Since(start) > time.Second {
				t.Fatalf("%s: process %d refused only after touching the rendezvous: %v", kind, self, err)
			}
		}
	}
	if _, err := Join(Inproc, Config{NP: 4, Procs: 2}); err == nil {
		t.Fatal("inproc joined a multi-process job")
	}
	if _, err := Join("carrier-pigeon", Config{NP: 4, Procs: 1}); err == nil {
		t.Fatal("unknown kind joined")
	}
}

// TestTCPStaleGenerationRejected checks the handshake's generation
// gate: a worker from an older generation is refused (its connection
// closed) while the leader keeps waiting for the real members — so
// the stale worker errors immediately and the leader's bootstrap
// fails only when the membership never completes (timeout here).
func TestTCPStaleGenerationRejected(t *testing.T) {
	addr := freeAddr(t)
	var wg sync.WaitGroup
	var leaderErr, staleErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		tr, err := Join(TCP, Config{Job: "gen-test", NP: 2, Procs: 2, Self: 0, Generation: 3, Addr: addr, Timeout: 2 * time.Second})
		if tr != nil {
			tr.Close()
		}
		leaderErr = err
	}()
	go func() {
		defer wg.Done()
		tr, err := Join(TCP, Config{Job: "gen-test", NP: 2, Procs: 2, Self: 1, Generation: 2, Addr: addr, Timeout: 2 * time.Second})
		if tr != nil {
			tr.Close()
		}
		staleErr = err
	}()
	wg.Wait()
	if leaderErr == nil {
		t.Error("leader bootstrapped a job whose only member was stale")
	}
	if staleErr == nil {
		t.Error("stale worker joined successfully")
	}
}

// TestRecvLends checks the buffer contract on every wire while the
// sender runs ahead: up to four messages deep in the tcp socket and
// the shm ring, and as far as the capacity-1 channel lets it on
// inproc. The slice a Recv lends must stay intact until the next Recv
// on its stream although the sender has meanwhile filled more buffers
// from the same pool, so no pooled buffer may alias a live one.
// Message sizes vary, empty ones included, so buffers are reused
// across sizes.
func TestRecvLends(t *testing.T) {
	const msgs, ahead = 200, 4
	size := func(i int) int { return (i * 37) % 61 }
	val := func(i, j int) float64 { return float64(i*1000 + j) }
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			tr, err := New(kind, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			lead := ahead // how far the sender gets while a slice is lent
			if kind == Inproc {
				lead = 2 // one in the channel, one filled and blocked in Send
			}
			tokens := make(chan struct{}, ahead)
			var filled atomic.Int64
			go func() {
				for i := 0; i < msgs; i++ {
					tokens <- struct{}{}
					buf := tr.Buffer(1, 2, size(i))
					for j := range buf {
						buf[j] = val(i, j)
					}
					filled.Add(1)
					tr.Send(1, 2, buf)
				}
			}()
			check := func(msg []float64, i int, when string) {
				t.Helper()
				if msg == nil || len(msg) != size(i) {
					t.Fatalf("message %d %s: %d values (nil=%v), want %d", i, when, len(msg), msg == nil, size(i))
				}
				for j, v := range msg {
					if v != val(i, j) {
						t.Fatalf("message %d %s: value %d is %v, want %v", i, when, j, v, val(i, j))
					}
				}
			}
			var lent []float64
			for i := 0; i < msgs; i++ {
				if i > 0 {
					check(lent, i-1, "before the next Recv")
				}
				lent = tr.Recv(1, 2)
				<-tokens
				check(lent, i, "as received")
				for want := int64(min(i+1+lead, msgs)); filled.Load() < want; {
					time.Sleep(10 * time.Microsecond)
				}
			}
		})
	}
}

// TestBidirectionalFlood has two ranks each send a burst far beyond
// what the wire holds — about 20 fills of an shm ring, 10 MiB through
// a loopback socket — to the other before either receives: the spill
// and its pump must keep both Sends non-blocking, or this deadlocks
// (and times out).
func TestBidirectionalFlood(t *testing.T) {
	for _, tc := range []struct {
		kind string
		size int
	}{{Shm, shmDataCap / 8 / 2}, {TCP, 256 << 10 / 8}} {
		t.Run(tc.kind, func(t *testing.T) {
			tr, err := New(tc.kind, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			const msgs = 40
			done := make(chan error, 2)
			for r := 1; r <= 2; r++ {
				go func(self int) {
					peer := 3 - self
					for k := 0; k < msgs; k++ {
						msg := make([]float64, tc.size)
						msg[0] = float64(self*1000 + k)
						tr.Send(self, peer, msg)
					}
					for k := 0; k < msgs; k++ {
						got := tr.Recv(peer, self)
						if len(got) != tc.size || got[0] != float64(peer*1000+k) {
							done <- fmt.Errorf("rank %d msg %d: got len %d head %v", self, k, len(got), got[:min(len(got), 1)])
							return
						}
					}
					done <- nil
				}(r)
			}
			for i := 0; i < 2; i++ {
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(30 * time.Second):
					t.Fatal("bidirectional flood deadlocked")
				}
			}
		})
	}
}

// TestDrainOnClose pins the pop contract on the tcp wire's worker-read
// sockets: process 1 of a 2-process job, hosting ranks 3 and 4, sends
// frames on every stream to process 0's ranks and closes. Process 0
// has detected the loss before it receives a frame, yet every frame
// already sent arrives, in order, from each of the two data sockets;
// only then does Recv return nil, with the loss attributed to
// process 1.
func TestDrainOnClose(t *testing.T) {
	const frames = 8
	trs := joinMesh(t, TCP, Config{Job: "drain-test", NP: 4, Procs: 2, Generation: 1})
	for s := 3; s <= 4; s++ {
		for d := 1; d <= 2; d++ {
			for k := 0; k < frames; k++ {
				trs[1].Send(s, d, []float64{float64(100*s + 10*d + k)})
			}
		}
	}
	trs[1].Close()
	for deadline := time.Now().Add(10 * time.Second); trs[0].Err() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("process 0 never saw process 1 close")
		}
	}
	for s := 3; s <= 4; s++ {
		for d := 1; d <= 2; d++ {
			for k := 0; k < frames; k++ {
				if msg := trs[0].Recv(s, d); len(msg) != 1 || msg[0] != float64(100*s+10*d+k) {
					t.Fatalf("pair (%d,%d) frame %d after the close: got %v", s, d, k, msg)
				}
			}
			within(t, "Recv past the last frame", func() {
				if msg := trs[0].Recv(s, d); msg != nil {
					t.Errorf("pair (%d,%d): Recv past the last frame returned %v, want nil", s, d, msg)
				}
			})
		}
	}
	if p, ok := AsMemberLost(trs[0].Err()); !ok || p != 1 {
		t.Fatalf("Err() = %v, want process 1 lost", trs[0].Err())
	}
}
