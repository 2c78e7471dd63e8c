package spmd

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/index"
	"hpfnt/internal/inspector"
	"hpfnt/internal/machine"
	"hpfnt/internal/proc"
	"hpfnt/internal/runtime"
	"hpfnt/internal/transport"
)

// twin is one array materialized on both sides of the differential:
// the spmd engine under test and the element-wise oracle.
type twin struct {
	p *Array
	r *runtime.Array
}

func newTwin(t *testing.T, e *Engine, name string, m core.ElementMapping, fill func(index.Tuple) float64) twin {
	t.Helper()
	p, err := e.NewArray(name, m)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runtime.NewArray(name, m)
	if err != nil {
		t.Fatal(err)
	}
	p.Fill(fill)
	r.Fill(fill)
	return twin{p, r}
}

// sameValues fails unless the spmd array holds the oracle's values bit
// for bit: -0 and +0 differ.
func (tw twin) sameValues(t *testing.T) {
	t.Helper()
	got, want := tw.p.Data(), tw.r.Data()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value mismatch at offset %d: spmd %g, sim %g", tw.p.name, i, got[i], want[i])
		}
	}
}

// oracleSchedule is what the two sequential schedule types share.
type oracleSchedule interface {
	Execute(m *machine.Machine) error
	GhostElements() int
	Messages() int
}

// ringPattern reads, for every element, its ring neighbour and a far
// element, guaranteeing cross-worker halo traffic.
func ringPattern(n int) inspector.Pattern {
	var pat inspector.Pattern
	for i := 0; i < n; i++ {
		pat.Writes = append(pat.Writes, int32(i), int32(i))
		pat.Reads = append(pat.Reads, int32((i+1)%n), int32((i+n/2)%n))
		pat.Coeffs = append(pat.Coeffs, 1, 0.5)
	}
	return pat
}

// TestEpochExecutor drives the one ExecuteN through plans of both
// producers on every wire and checks each epoch against the sequential
// oracle: values, the logical report, and the schedule-level
// coalescing invariant — a multi-iteration epoch of a statement that
// does not overwrite its own input ships exactly one physical frame
// per active (sender,receiver) pair while the logical message count
// (the cost model's view) still charges one message per pair per
// iteration, and a statement that does overwrite its input keeps
// frames == messages, since each iteration's ghosts depend on the
// previous stores.
func TestEpochExecutor(t *testing.T) {
	const np, iters = 4, 5
	sys, _ := proc.NewSystem(np)
	dom2 := index.Standard(1, 32, 1, 32)
	interior := index.Standard(2, 31, 2, 31)
	dom1 := index.Standard(1, 40)
	block2 := mapping(t, sys, dom2, dist.Block{})
	block1 := mapping(t, sys, dom1, dist.Block{})
	fillA := func(tp index.Tuple) float64 { return float64(tp[0]*3 + tp[1]) }
	fillB := func(tp index.Tuple) float64 { return float64(tp[0] - 7*tp[1]) }
	fillX := func(tp index.Tuple) float64 { return float64(tp[0] * tp[0] % 61) }

	dense := func(t *testing.T, e *Engine, lhs twin, shifts [][]int, coeffs []float64, srcs []twin) (*Schedule, oracleSchedule) {
		var pts []Term
		var rts []runtime.Term
		for i, sh := range shifts {
			pts = append(pts, ref(srcs[i].p, coeffs[i], sh...))
			rts = append(rts, oracleRef(srcs[i].r, coeffs[i], sh...))
		}
		ps, err := e.BuildSchedule(lhs.p, interior, pts)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := runtime.BuildSchedule(lhs.r, interior, rts)
		if err != nil {
			t.Fatal(err)
		}
		return ps, rs
	}
	irregular := func(t *testing.T, e *Engine, lhs, src twin) (*Schedule, oracleSchedule) {
		ps, err := e.BuildIrregular(lhs.p, src.p, ringPattern(dom1.Size()))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := runtime.BuildIrregular(np, lhs.r, src.r, ringPattern(dom1.Size()))
		if err != nil {
			t.Fatal(err)
		}
		return ps, rs
	}

	cases := []struct {
		name      string
		coalesces bool
		build     func(t *testing.T, e *Engine) (*Schedule, oracleSchedule, twin)
	}{
		{"dense coalescible", true, func(t *testing.T, e *Engine) (*Schedule, oracleSchedule, twin) {
			a, b := newTwin(t, e, "A", block2, fillA), newTwin(t, e, "B", block2, fillB)
			ps, rs := dense(t, e, b, [][]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}},
				[]float64{0.25, 0.25, 0.25, 0.25}, []twin{a, a, a, a})
			return ps, rs, b
		}},
		{"dense in-place", false, func(t *testing.T, e *Engine) (*Schedule, oracleSchedule, twin) {
			a := newTwin(t, e, "A", block2, fillA)
			ps, rs := dense(t, e, a, [][]int{{-1, 0}, {1, 0}}, []float64{0.5, 0.5}, []twin{a, a})
			return ps, rs, a
		}},
		// One message gathers from two stores: A's and B's boundary rows
		// travel across the same processor pair, discovered interleaved
		// (A,B,A,B,… along the row), shipped grouped by store.
		{"dense two sources one pair", true, func(t *testing.T, e *Engine) (*Schedule, oracleSchedule, twin) {
			a, b := newTwin(t, e, "A", block2, fillA), newTwin(t, e, "B", block2, fillB)
			c := newTwin(t, e, "C", block2, fillX)
			ps, rs := dense(t, e, c, [][]int{{-1, 0}, {-1, 0}, {1, 0}, {1, 1}},
				[]float64{1, 2, 0.5, -1}, []twin{a, b, a, b})
			twoStores := false
			for _, wp := range ps.plans[1:] {
				for _, sp := range wp.ex.sends {
					twoStores = twoStores || len(sp.segs) == 2
				}
			}
			if !twoStores {
				t.Fatal("no message gathers from two stores")
			}
			return ps, rs, c
		}},
		{"irregular coalescible", true, func(t *testing.T, e *Engine) (*Schedule, oracleSchedule, twin) {
			x, q := newTwin(t, e, "X", block1, fillX), newTwin(t, e, "Q", block1, fillX)
			ps, rs := irregular(t, e, q, x)
			return ps, rs, q
		}},
		{"irregular in-place", false, func(t *testing.T, e *Engine) (*Schedule, oracleSchedule, twin) {
			x := newTwin(t, e, "X", block1, fillX)
			ps, rs := irregular(t, e, x, x)
			return ps, rs, x
		}},
	}
	for _, tc := range cases {
		for _, kind := range transport.Kinds() {
			t.Run(tc.name+"/"+kind, func(t *testing.T) {
				tr, err := transport.New(kind, np)
				if err != nil {
					t.Fatal(err)
				}
				e, err := NewOn(tr, machine.DefaultCost())
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				sched, oracle, out := tc.build(t, e)
				pairs := sched.Messages()
				if pairs == 0 {
					t.Fatal("schedule has no ghost pairs")
				}
				if pairs != oracle.Messages() || sched.GhostElements() != oracle.GhostElements() {
					t.Fatalf("schedule shape: spmd (%d ghost, %d msgs), sim (%d, %d)",
						sched.GhostElements(), pairs, oracle.GhostElements(), oracle.Messages())
				}
				m, _ := machine.New(np, machine.DefaultCost())
				framesPerEpoch := int64(pairs * iters)
				if tc.coalesces {
					framesPerEpoch = int64(pairs)
				}
				// The second epoch re-ships even when coalescing: the
				// sources may have changed between epochs.
				for epoch := int64(1); epoch <= 2; epoch++ {
					if epoch == 1 {
						e.Reset()
					}
					if err := sched.ExecuteN(iters); err != nil {
						t.Fatal(err)
					}
					for i := 0; i < iters; i++ {
						if err := oracle.Execute(m); err != nil {
							t.Fatal(err)
						}
					}
					if got := e.Machine().WireFrames(); got != epoch*framesPerEpoch {
						t.Errorf("epoch %d: WireFrames = %d, want %d", epoch, got, epoch*framesPerEpoch)
					}
					got, want := e.Stats().Logical(), m.Stats().Logical()
					if got != want {
						t.Errorf("epoch %d: report mismatch:\n spmd %+v\n  sim %+v", epoch, got, want)
					}
					if want.Messages != epoch*int64(pairs*iters) {
						t.Errorf("epoch %d: logical Messages = %d, want %d (pairs × iters)", epoch, want.Messages, epoch*int64(pairs*iters))
					}
					out.sameValues(t)
				}
			})
		}
	}
}

// TestRemapInvalidatesAndMatchesOracle: a schedule of either producer
// refuses to replay after Remap of any array it involves, and Remap —
// whose shipment runs through the schedules' exchange — moves the same
// elements and charges the same traffic as the element-wise oracle, for
// a distributed, a replicated source and a replicated target mapping.
func TestRemapInvalidatesAndMatchesOracle(t *testing.T) {
	const n, np = 24, 4
	sys, _ := proc.NewSystem(np)
	dom := index.Standard(1, n)
	block := mapping(t, sys, dom, dist.Block{})
	cyclic := mapping(t, sys, dom, dist.Cyclic{K: 3})
	rep, err := sys.DeclareScalar("REPX", proc.ScalarReplicated)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := dist.New(dom, []dist.Format{dist.Collapsed{}}, proc.Whole(rep))
	if err != nil {
		t.Fatal(err)
	}
	replicated := core.DistMapping{D: dr}
	fill := func(tp index.Tuple) float64 { return float64(tp[0] * 10) }

	e := newEngine(t, np)
	a, err := e.NewArray("A", block)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.NewArray("B", block)
	if err != nil {
		t.Fatal(err)
	}
	// Each producer's round remaps both arrays to a mapping they are
	// not on, so every remap moves data.
	for _, prod := range []struct {
		name  string
		to    core.ElementMapping
		build func() (*Schedule, error)
	}{
		{"regular", cyclic, func() (*Schedule, error) {
			return e.BuildSchedule(b, index.Standard(2, n), []Term{ref(a, 1, -1)})
		}},
		{"irregular", block, func() (*Schedule, error) { return e.BuildIrregular(b, a, ringPattern(n)) }},
	} {
		for _, victim := range []*Array{a, b} {
			sched, err := prod.build()
			if err != nil {
				t.Fatal(err)
			}
			if err := sched.Execute(); err != nil {
				t.Fatalf("%s: fresh schedule: %v", prod.name, err)
			}
			if moved, err := e.Remap(victim, prod.to); err != nil || moved == 0 {
				t.Fatalf("remap of %s: moved %d, err %v", victim.name, moved, err)
			}
			err = sched.ExecuteN(2)
			if err == nil || !strings.Contains(err.Error(), "invalidated by remap; rebuild it") {
				t.Errorf("%s schedule after remap of %s: err = %v, want invalidation", prod.name, victim.name, err)
			}
		}
	}

	for _, tc := range []struct {
		name     string
		from, to core.ElementMapping
	}{
		{"block->cyclic(3)", block, cyclic},
		{"replicated->block", replicated, block},
		{"block->replicated", block, replicated},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngine(t, np)
			tw := newTwin(t, e, "R", tc.from, fill)
			m, _ := machine.New(np, machine.DefaultCost())
			moved, err := e.Remap(tw.p, tc.to)
			if err != nil {
				t.Fatal(err)
			}
			wantMoved, err := runtime.Remap(m, tw.r, tc.to)
			if err != nil {
				t.Fatal(err)
			}
			if moved != wantMoved {
				t.Errorf("moved %d, sim moved %d", moved, wantMoved)
			}
			if got, want := e.Stats().Logical(), m.Stats().Logical(); got != want {
				t.Errorf("report mismatch:\n spmd %+v\n  sim %+v", got, want)
			}
			tw.sameValues(t)
			// Every replica of the new mapping holds the value, not
			// just the first owner Data reads.
			eachLine(tw.p.lay, func(p, off, slot, n int) {
				for k := range n {
					if v := tw.p.lay.stores[p].data[slot+k]; v != fill(dom.TupleAt(off+k)) {
						t.Fatalf("worker %d slot %d (offset %d) = %g after remap", p, slot+k, off+k, v)
					}
				}
			})
		})
	}
}

// TestWrongLengthMessageFailsEngine: a message is input from another
// process. One that is shorter or longer than the plan's pair expects
// must fail the engine with an error naming the pair and both lengths —
// not leave stale ghosts behind or fold a wrong partial in, and not die
// as an index panic — on every wire, for a schedule's ghost exchange
// and for Reduce's combine tree. The bad frame is put on the stream
// ahead of the epoch, as a peer with a different plan would have.
func TestWrongLengthMessageFailsEngine(t *testing.T) {
	const np = 4
	sys, _ := proc.NewSystem(np)
	dom := index.Standard(1, 40)
	block := mapping(t, sys, dom, dist.Block{})
	// B(i) = A(i-1): worker 2 expects one value from worker 1.
	execute := func(e *Engine, a, b *Array) error {
		sched, err := e.BuildSchedule(b, index.Standard(2, 40), []Term{ref(a, 1, -1)})
		if err != nil {
			t.Fatal(err)
		}
		return sched.Execute()
	}
	// The combine tree's first round: worker 1 expects worker 2's partial.
	reduce := func(e *Engine, a, _ *Array) error {
		_, err := e.Reduce(a, runtime.ReduceSum)
		return err
	}
	for _, kind := range transport.Kinds() {
		for _, tc := range []struct {
			name     string
			src, dst int
			n        int
			op       func(e *Engine, a, b *Array) error
		}{
			{"short", 1, 2, 0, execute},
			{"long", 1, 2, 3, execute},
			{"reduce/short", 2, 1, 0, reduce},
			{"reduce/long", 2, 1, 3, reduce},
		} {
			t.Run(kind+"/"+tc.name, func(t *testing.T) {
				tr, err := transport.New(kind, np)
				if err != nil {
					t.Fatal(err)
				}
				e, err := NewOn(tr, machine.DefaultCost())
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				a, err := e.NewArray("A", block)
				if err != nil {
					t.Fatal(err)
				}
				b, err := e.NewArray("B", block)
				if err != nil {
					t.Fatal(err)
				}
				e.tr.Send(tc.src, tc.dst, make([]float64, tc.n))
				err = tc.op(e, a, b)
				want := fmt.Sprintf("spmd: message %d→%d carries %d values, plan expects 1", tc.src, tc.dst, tc.n)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("%s = %v, want %q", tc.name, err, want)
				}
				if err := tc.op(e, a, b); err == nil {
					t.Fatal("a failed engine must stay failed")
				}
			})
		}
	}
}

// TestGhostBufferSharedAcrossSchedules: the schedules of one engine
// share each worker's ghost buffer, valid for one epoch only. Three of
// them take turns on it — A, a Jacobi that ships its ghosts once per
// epoch (constGhost); B, an in-place CYCLIC halo statement with more
// ghosts than A and values staged after them; C, an irregular gather
// into A's source — as A×3, B×2, A×3, C, A×1. After every epoch the
// values and the logical report equal the element-wise oracle's, on
// both dispatchers and every wire: an epoch that read a ghost another
// schedule left in the buffer would not.
func TestGhostBufferSharedAcrossSchedules(t *testing.T) {
	const n, np = 24, 4
	sys, _ := proc.NewSystem(np)
	dom, interior := index.Standard(1, n, 1, n), index.Standard(2, n-1, 2, n-1)
	block, cyclic := mapping(t, sys, dom, dist.Block{}), mapping(t, sys, dom, dist.Cyclic{K: 1})
	fill := func(k int) func(index.Tuple) float64 {
		return func(tp index.Tuple) float64 { return float64((tp[0]*7+tp[1]*k)%23) - 11 }
	}
	for _, seq := range []bool{false, true} {
		for _, kind := range transport.Kinds() {
			t.Run(fmt.Sprintf("seq=%v/%s", seq, kind), func(t *testing.T) {
				tr, err := transport.New(kind, np)
				if err != nil {
					t.Fatal(err)
				}
				e, err := NewOn(tr, machine.DefaultCost())
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				e.seq = seq
				u, v := newTwin(t, e, "U", block, fill(3)), newTwin(t, e, "V", block, fill(5))
				h, x := newTwin(t, e, "H", cyclic, fill(2)), newTwin(t, e, "X", cyclic, fill(9))
				type step struct {
					s     *Schedule
					o     oracleSchedule
					iters int
				}
				jacobi := []int{-1, 0, 1, 0, 0, -1, 0, 1}
				var pts []Term
				var rts []runtime.Term
				for i := 0; i < len(jacobi); i += 2 {
					pts = append(pts, ref(u.p, 0.25, jacobi[i], jacobi[i+1]))
					rts = append(rts, oracleRef(u.r, 0.25, jacobi[i], jacobi[i+1]))
				}
				as, err := e.BuildSchedule(v.p, interior, pts)
				if err != nil {
					t.Fatal(err)
				}
				ao, err := runtime.BuildSchedule(v.r, interior, rts)
				if err != nil {
					t.Fatal(err)
				}
				bs, err := e.BuildSchedule(h.p, interior, []Term{ref(h.p, 0.5, 0, 0), ref(h.p, 0.25, -1, 0), ref(h.p, 0.25, 1, 0)})
				if err != nil {
					t.Fatal(err)
				}
				bo, err := runtime.BuildSchedule(h.r, interior, []runtime.Term{oracleRef(h.r, 0.5, 0, 0), oracleRef(h.r, 0.25, -1, 0), oracleRef(h.r, 0.25, 1, 0)})
				if err != nil {
					t.Fatal(err)
				}
				cs, err := e.BuildIrregular(u.p, x.p, ringPattern(dom.Size()))
				if err != nil {
					t.Fatal(err)
				}
				co, err := runtime.BuildIrregular(np, u.r, x.r, ringPattern(dom.Size()))
				if err != nil {
					t.Fatal(err)
				}
				if !as.constGhost || bs.constGhost || as.GhostElements() >= bs.GhostElements() {
					t.Fatalf("A constGhost %v with %d ghosts, B constGhost %v with %d", as.constGhost, as.GhostElements(), bs.constGhost, bs.GhostElements())
				}
				a, b, c := step{as, ao, 3}, step{bs, bo, 2}, step{cs, co, 1}
				m, _ := machine.New(np, machine.DefaultCost())
				for i, st := range []step{a, b, a, c, {as, ao, 1}} {
					if err := st.s.ExecuteN(st.iters); err != nil {
						t.Fatal(err)
					}
					for range st.iters {
						if err := st.o.Execute(m); err != nil {
							t.Fatal(err)
						}
					}
					for _, tw := range []twin{u, v, h, x} {
						tw.sameValues(t)
					}
					if got, want := e.Stats().Logical(), m.Stats().Logical(); got != want {
						t.Fatalf("step %d: report mismatch:\n spmd %+v\n  sim %+v", i, got, want)
					}
				}
			})
		}
	}
}
