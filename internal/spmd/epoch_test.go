package spmd

import (
	"errors"
	"os"
	"path/filepath"
	gort "runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hpfnt/internal/dist"
	"hpfnt/internal/index"
	"hpfnt/internal/machine"
	"hpfnt/internal/obs"
	"hpfnt/internal/proc"
	"hpfnt/internal/runtime"
	"hpfnt/internal/transport"
)

// dispatchers makes an np-worker engine on each dispatcher.
var dispatchers = []struct {
	name string
	make func(np int, cost machine.CostModel) (*Engine, error)
}{{"sim", NewSequential}, {"spmd", New}}

// stencilEpochs runs a 2-D 5-point Jacobi on (BLOCK,:) for three
// iterations and a sum over its result, and returns the engine's
// per-worker detail, which workers have a plan and which hold elements
// of the sum.
func stencilEpochs(t *testing.T, e *Engine) (det machine.Detail, planned, holds []bool) {
	t.Helper()
	const n = 64
	sys, _ := proc.NewSystem(e.NP())
	dom := index.Standard(1, n, 1, n)
	u, err := e.NewArray("U", mapping(t, sys, dom, dist.Block{}))
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.NewArray("V", mapping(t, sys, dom, dist.Block{}))
	if err != nil {
		t.Fatal(err)
	}
	u.Fill(func(tu index.Tuple) float64 { return float64(tu[0]*7 + tu[1]) })
	s, err := e.BuildSchedule(v, index.Standard(2, n-1, 2, n-1),
		[]Term{ref(u, 0.25, -1, 0), ref(u, 0.25, 1, 0), ref(u, 0.25, 0, -1), ref(u, 0.25, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ExecuteN(3); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Reduce(v, runtime.ReduceSum); err != nil {
		t.Fatal(err)
	}
	planned, holds = make([]bool, e.NP()+1), make([]bool, e.NP()+1)
	for p, wp := range s.plans {
		planned[p], holds[p] = wp != nil, v.lay.idx.vol[p] > 0
	}
	return e.DetailStats(), planned, holds
}

// TestPhaseAttribution: with the phase timers on, every worker with a
// plan spends time in compute and in ghost wait, every worker holding
// elements spends time reducing, and the sequential dispatcher waits at
// no barrier; with them off, every phase is zero. The logical report is
// the same either way.
func TestPhaseAttribution(t *testing.T) {
	const np = 4
	for _, d := range dispatchers {
		t.Run(d.name, func(t *testing.T) {
			run := func(timed bool) (machine.Detail, []bool, []bool) {
				obs.EnableTiming(timed)
				defer obs.EnableTiming(false)
				e, err := d.make(np, machine.DefaultCost())
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				return stencilEpochs(t, e)
			}
			plain, _, _ := run(false)
			timed, planned, holds := run(true)
			if timed.Report.Logical() != plain.Report.Logical() {
				t.Errorf("logical report with timers %+v, without %+v", timed.Report.Logical(), plain.Report.Logical())
			}
			for ph := range machine.NumPhases {
				for p, ns := range plain.PhaseNS[ph] {
					if ns != 0 {
						t.Errorf("timers off: worker %d has %d ns of %s", p, ns, machine.Phase(ph))
					}
				}
			}
			for p := 1; p <= np; p++ {
				at := func(ph machine.Phase) int64 { return timed.PhaseNS[ph][p] }
				if planned[p] && (at(machine.PhaseCompute) <= 0 || at(machine.PhaseGhostWait) <= 0) {
					t.Errorf("worker %d has a plan but compute %d ns, ghost wait %d ns", p, at(machine.PhaseCompute), at(machine.PhaseGhostWait))
				}
				if holds[p] && at(machine.PhaseReduce) <= 0 {
					t.Errorf("worker %d holds elements but reduced for %d ns", p, at(machine.PhaseReduce))
				}
				if d.name == "sim" && at(machine.PhaseBarrierWait) != 0 {
					t.Errorf("sim worker %d waited %d ns at a barrier", p, at(machine.PhaseBarrierWait))
				}
			}
		})
	}
}

// failingWire fails the transport at the n-th Recv into worker dst
// once armed, as a dead peer would.
type failingWire struct {
	transport.Transport
	dst  int
	left atomic.Int32
}

func (w *failingWire) Recv(src, dst int) []float64 {
	if dst == w.dst && w.left.Add(-1) == 0 {
		w.Fail(errors.New("injected wire failure"))
		return nil
	}
	return w.Transport.Recv(src, dst)
}

// TestFailedEpochChargesNothing: an ExecuteN epoch whose wire fails
// partway through charges no counters on either dispatcher — not even
// those of the workers that ran every phase.
func TestFailedEpochChargesNothing(t *testing.T) {
	const n, np = 32, 4
	sys, _ := proc.NewSystem(np)
	dom := index.Standard(1, n)
	for _, seq := range []bool{true, false} {
		w := &failingWire{Transport: transport.NewInproc(np), dst: 2}
		e, err := NewOn(w, machine.DefaultCost())
		if err != nil {
			t.Fatal(err)
		}
		e.seq = seq
		a, err := e.NewArray("A", mapping(t, sys, dom, dist.Block{}))
		if err != nil {
			t.Fatal(err)
		}
		a.Fill(func(tu index.Tuple) float64 { return float64(tu[0]) })
		s, err := e.BuildSchedule(a, index.Standard(2, n-1), []Term{ref(a, 0.5, -1), ref(a, 0.5, 1)})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ExecuteN(2); err != nil {
			t.Fatal(err)
		}
		before := e.Stats().Logical()
		// Worker 2 receives from 1 and 3 every iteration: its fourth
		// receive is the second of the epoch's second iteration.
		w.left.Store(4)
		if err := s.ExecuteN(5); err == nil || !strings.Contains(err.Error(), "injected") {
			t.Fatalf("seq=%v: ExecuteN over a failing wire = %v, want the wire's error", seq, err)
		}
		if after := e.Stats().Logical(); after != before {
			t.Errorf("seq=%v: the failed epoch charged counters: before %+v, after %+v", seq, before, after)
		}
		e.Close()
	}
}

// TestFinalizerStopsWorkers: a single-process parallel engine dropped
// without Close after an epoch is collected, and its finalizer stops
// the worker goroutines.
func TestFinalizerStopsWorkers(t *testing.T) {
	base := gort.NumGoroutine()
	func() {
		e, err := New(4, machine.DefaultCost())
		if err != nil {
			t.Fatal(err)
		}
		stencilEpochs(t, e)
	}()
	for deadline := time.Now().Add(10 * time.Second); gort.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 10 s after dropping the engine, %d before it", gort.NumGoroutine(), base)
		}
		gort.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// shortCounters is a two-process job's process 0 whose peer's counter
// vector is too short to merge.
type shortCounters struct{ transport.Transport }

func (shortCounters) Procs() int     { return 2 }
func (shortCounters) HostOf(int) int { return 0 }
func (shortCounters) Bcast(from int, vals []float64) []float64 {
	if from == 0 {
		return vals
	}
	return []float64{1, 2}
}
func (shortCounters) Barrier() error { return nil }

// TestMalformedPeerCountersFailEngine: counters from another process
// that do not merge fail the engine with the merge error instead of
// panicking; Stats still returns, and Checkpoint refuses.
func TestMalformedPeerCountersFailEngine(t *testing.T) {
	e, err := NewOn(shortCounters{transport.NewInproc(2)}, machine.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	_ = e.Stats()
	if err := e.tr.Err(); err == nil || !strings.Contains(err.Error(), "merging the counters of process 1") {
		t.Fatalf("Err after Stats = %v, want the merge error", err)
	}
	e2, err := NewOn(shortCounters{transport.NewInproc(2)}, machine.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	dir := t.TempDir()
	if err := e2.Checkpoint(dir, 1, nil); err == nil || !strings.Contains(err.Error(), "merging the counters") {
		t.Fatalf("Checkpoint = %v, want the merge error", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "CURRENT")); err == nil {
		t.Error("a checkpoint with unmergeable counters was published")
	}
}
