package spmd

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/index"
	"hpfnt/internal/machine"
	"hpfnt/internal/proc"
	"hpfnt/internal/runtime"
	"hpfnt/internal/transport"
)

// TestWorkerPanicSurfaces checks the robustness fix: a panicking
// worker (here: a user Fill function) must not deadlock the engine —
// the failure surfaces as an error from the next dispatched
// operation and stays sticky.
func TestWorkerPanicSurfaces(t *testing.T) {
	for _, kind := range transport.Kinds() {
		t.Run(kind, func(t *testing.T) {
			const n, np = 16, 4
			sys, _ := proc.NewSystem(np)
			dom := index.Standard(1, n)
			tr, err := transport.New(kind, np)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewOn(tr, machine.DefaultCost())
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			a, err := e.NewArray("A", mapping(t, sys, dom, dist.Block{}))
			if err != nil {
				t.Fatal(err)
			}
			a.Fill(func(tu index.Tuple) float64 {
				if tu[0] == 7 {
					panic("injected failure")
				}
				return float64(tu[0])
			})
			s, err := e.BuildSchedule(a, index.Standard(2, n), []Term{Ref(a, 1, -1)})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- s.ExecuteN(3) }()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "panicked") {
					t.Fatalf("ExecuteN after worker panic: %v, want panic error", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("ExecuteN deadlocked after worker panic")
			}
			// The failure is sticky: every subsequent operation refuses.
			if _, err := e.Reduce(a, runtime.ReduceSum); err == nil {
				t.Fatal("Reduce on a failed engine must error")
			}
			if _, err := e.Remap(a, mapping(t, sys, dom, dist.Cyclic{K: 1})); err == nil {
				t.Fatal("Remap on a failed engine must error")
			}
		})
	}
}

// TestPanicUnblocksPeers pins the deadlock scenario directly: worker
// 2 panics before sending, leaving workers 1 and 3 blocked on
// receives (and worker 4 blocked on a send into a full stream); the
// epoch must still complete with an error.
func TestPanicUnblocksPeers(t *testing.T) {
	for _, kind := range transport.Kinds() {
		t.Run(kind, func(t *testing.T) {
			tr, err := transport.New(kind, 4)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewOn(tr, machine.DefaultCost())
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			done := make(chan error, 1)
			go func() {
				done <- e.run(fill(func(p int) {
					switch p {
					case 1:
						e.tr.Recv(2, 1) // never sent
					case 2:
						panic("boom")
					case 3:
						e.tr.Recv(2, 3) // never sent
					case 4:
						// Flood the (4,1) stream; with the capacity-1
						// inproc channels the second send blocks until
						// the failure aborts it.
						for i := 0; i < 4; i++ {
							e.tr.Send(4, 1, []float64{1})
						}
					}
				}))
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("epoch with a panicking worker returned nil error")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("epoch deadlocked: peers not unblocked after panic")
			}
		})
	}
}

// mpResult is one simulated process's observation of the program.
type mpResult struct {
	sum  float64
	data []float64
	rep  machine.Report
}

// multiProcRun executes one deterministic program — fill, pipelined
// schedule replay, remap, reduce, stats, data — on the given engine.
// In the multi-process test every "process" runs exactly this, which
// is the SPMD replicated-control contract. It returns (rather than
// asserts) errors because it runs on non-test goroutines.
func multiProcRun(e *Engine, am, bm core.ElementMapping, n int) (mpResult, error) {
	var out mpResult
	a, err := e.NewArray("A", am)
	if err != nil {
		return out, err
	}
	b, err := e.NewArray("B", bm)
	if err != nil {
		return out, err
	}
	a.Fill(func(tu index.Tuple) float64 { return float64(tu[0]*13 - tu[1]*5) })
	interior := index.Standard(2, n-1, 2, n-1)
	terms := []Term{Ref(a, 0.25, -1, 0), Ref(a, 0.25, 1, 0), Ref(a, 0.25, 0, -1), Ref(a, 0.25, 0, 1)}
	s, err := e.BuildSchedule(b, interior, terms)
	if err != nil {
		return out, err
	}
	if err := s.ExecuteN(4); err != nil {
		return out, err
	}
	if _, err := e.Remap(a, bm); err != nil {
		return out, err
	}
	out.sum, err = e.Reduce(b, runtime.ReduceSum)
	if err != nil {
		return out, err
	}
	out.data = append(a.Data(), b.Data()...)
	out.rep = e.Stats()
	return out, nil
}

// TestMultiProcessEquivalence boots a real 2-process tcp job (both
// processes simulated inside this test binary), runs the same program
// in both, and checks values, reduction and the aggregated
// machine.Report against the single-process inproc engine.
func TestMultiProcessEquivalence(t *testing.T) {
	const n, np, procs = 20, 4, 2
	sys, _ := proc.NewSystem(np)
	dom := index.Standard(1, n, 1, n)
	am := mapping(t, sys, dom, dist.Block{})
	bm := mapping(t, sys, dom, dist.Cyclic{K: 3})

	ref, err := New(np, machine.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, err := multiProcRun(ref, am, bm, n)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	got := make([]mpResult, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := transport.Join(transport.TCP, transport.Config{
				Job: "spmd-equiv", NP: np, Procs: procs, Self: i, Generation: 1, Addr: addr,
				Timeout: 15 * time.Second,
			})
			if err != nil {
				errs[i] = err
				return
			}
			e, err := NewOn(tr, machine.DefaultCost())
			if err != nil {
				errs[i] = err
				tr.Close()
				return
			}
			defer e.Close()
			got[i], errs[i] = multiProcRun(e, am, bm, n)
			if errs[i] != nil {
				// Unblock the peer's collectives so the test reports
				// the failure instead of hanging on wg.Wait.
				tr.Fail(errs[i])
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", i, err)
		}
	}
	for i := 0; i < procs; i++ {
		if got[i].sum != want.sum {
			t.Errorf("process %d reduce = %g, want %g", i, got[i].sum, want.sum)
		}
		if got[i].rep != want.rep {
			t.Errorf("process %d report:\n got  %+v\n want %+v", i, got[i].rep, want.rep)
		}
		for k := range want.data {
			if got[i].data[k] != want.data[k] {
				t.Errorf("process %d value mismatch at %d: %g vs %g", i, k, got[i].data[k], want.data[k])
				break
			}
		}
	}
}

// TestNoBufferForRemoteRanks: in a 2-process job (both processes
// simulated inside this test binary, over tcp) each process holds the
// ghost and staging values of the ranks it hosts, sized for every
// schedule it compiled — the LU statement and a gather — and none for
// the ranks its peer hosts, as for array values.
func TestNoBufferForRemoteRanks(t *testing.T) {
	const n, np, procs = 24, 4, 2
	sys, _ := proc.NewSystem(np)
	dom := index.Standard(1, n, 1, n)
	m := mapping(t, sys, dom, dist.Cyclic{K: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for i := range procs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := transport.Join(transport.TCP, transport.Config{
				Job: "spmd-bufs", NP: np, Procs: procs, Self: i, Generation: 1, Addr: addr,
				Timeout: 15 * time.Second,
			})
			if err != nil {
				errs[i] = err
				return
			}
			e, err := NewOn(tr, machine.DefaultCost())
			if err != nil {
				errs[i] = err
				tr.Close()
				return
			}
			defer e.Close()
			errs[i] = func() error {
				a, err := e.NewArray("A", m)
				if err != nil {
					return err
				}
				r, err := e.NewArray("R", m)
				if err != nil {
					return err
				}
				lu, err := e.BuildSchedule(r, index.Standard(2, n, 2, n), []Term{Ref(r, 1, 0, 0), Ref(a, 1.0/16, -1, -1)})
				if err != nil {
					return err
				}
				gather, err := e.BuildIrregular(r, a, ringPattern(dom.Size()))
				if err != nil {
					return err
				}
				for p := 1; p <= np; p++ {
					need := 0
					for _, s := range []*Schedule{lu, gather} {
						if wp := s.plans[p]; wp != nil {
							need = max(need, wp.ghost+wp.tmp)
						}
					}
					if hosted := e.hosted(p); hosted && len(e.bufs[p]) < need || !hosted && e.bufs[p] != nil {
						return fmt.Errorf("rank %d (hosted %v) has a buffer of %d values for a need of %d", p, hosted, len(e.bufs[p]), need)
					}
				}
				if err := lu.Execute(); err != nil {
					return err
				}
				return gather.Execute()
			}()
			if errs[i] != nil {
				tr.Fail(errs[i])
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("process %d: %v", i, err)
		}
	}
}
