package engine

import (
	"math"
	"testing"

	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/index"
	"hpfnt/internal/machine"
	"hpfnt/internal/proc"
	"hpfnt/internal/runtime"
)

// scenario is one differential-test case: two mappings over the same
// 2-D domain, a shifted statement executed once and then replayed, a
// remap and a reduction. run executes it on one backend and returns
// everything observable; the fuzz target asserts every backend observes
// exactly what the oracle does.
type scenario struct {
	np     int
	n      int
	f1, f2 dist.Format
	shift  [2]int
	srcRep bool // use a replicated source term
	// mapped adds two terms read through other accesses, each at the
	// shift's offsets: A transposed, and the E10-shaped rank-reducing
	// read V(i) of a vector, replicated under srcRep.
	mapped   bool
	back     bool // remap A there and back, not one way
	replayIt int
	// tkind is the spmd transport the scenario runs on ("inproc",
	// "shm" or "tcp"); sim always runs on inproc.
	tkind string
}

type outcome struct {
	errs   []string
	data   []float64
	moved  int
	sum    float64
	report machine.Report
}

// buildMapping distributes dom's first dimension by f onto P and
// collapses the others.
func buildMapping(t *testing.T, sys *proc.System, dom index.Domain, f dist.Format) core.ElementMapping {
	t.Helper()
	arr, ok := sys.Lookup("P")
	if !ok {
		var err error
		arr, err = sys.DeclareArray("P", index.Standard(1, sys.AP.N()))
		if err != nil {
			t.Fatal(err)
		}
	}
	fs := []dist.Format{f}
	for len(fs) < dom.Rank() {
		fs = append(fs, dist.Collapsed{})
	}
	d, err := dist.New(dom, fs, proc.Whole(arr))
	if err != nil {
		t.Skipf("invalid format for domain: %v", err)
	}
	return core.DistMapping{D: d}
}

func replicatedMapping(t *testing.T, sys *proc.System, dom index.Domain) core.ElementMapping {
	t.Helper()
	arr, ok := sys.Lookup("REP")
	if !ok {
		var err error
		arr, err = sys.DeclareScalar("REP", proc.ScalarReplicated)
		if err != nil {
			t.Fatal(err)
		}
	}
	fs := make([]dist.Format, dom.Rank())
	for i := range fs {
		fs[i] = dist.Collapsed{}
	}
	d, err := dist.New(dom, fs, proc.Whole(arr))
	if err != nil {
		t.Fatal(err)
	}
	return core.DistMapping{D: d}
}

// newBackend builds an engine of the given kind on the given wire, or
// the element-wise oracle for oracleKind.
func newBackend(t *testing.T, kind, tkind string, np int) Engine {
	t.Helper()
	var eng Engine
	var err error
	if kind == oracleKind {
		eng, err = NewOracle(np, machine.DefaultCost())
	} else {
		eng, err = NewOn(kind, tkind, np, machine.DefaultCost())
	}
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// assign builds lhs(region) = Σ terms and executes it once, the
// one-shot form of a statement.
func assign(lhs Array, region index.Domain, terms []Term) error {
	s, err := lhs.NewSchedule(region, terms)
	if err != nil {
		return err
	}
	return s.Execute()
}

// sameOutcome fails unless got, observed on the named backend, is
// exactly what the oracle observed.
func sameOutcome(t *testing.T, kind string, want, got outcome) {
	t.Helper()
	if len(want.errs) != len(got.errs) {
		t.Fatalf("error mismatch: oracle %v, %s %v", want.errs, kind, got.errs)
	}
	if want.moved != got.moved {
		t.Fatalf("moved: oracle %d, %s %d", want.moved, kind, got.moved)
	}
	if want.sum != got.sum {
		t.Fatalf("reduce: oracle %g, %s %g", want.sum, kind, got.sum)
	}
	if len(want.data) != len(got.data) {
		t.Fatalf("data length: oracle %d, %s %d", len(want.data), kind, len(got.data))
	}
	for i := range want.data {
		if !sameBits(want.data[i], got.data[i]) {
			t.Fatalf("value mismatch at %d: oracle %g, %s %g", i, want.data[i], kind, got.data[i])
		}
	}
	if want.report != got.report {
		t.Fatalf("report mismatch:\n oracle %+v\n %s %+v", want.report, kind, got.report)
	}
}

// sameBits reports whether x and y are one float64 bit for bit, any
// NaN matching any NaN: -0 and +0 differ, as a -0 printed by a program
// would.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || x != x && y != y
}

// run executes the scenario on the given backend kind. Mapping
// construction is shared; only the execution backend differs.
func (sc scenario) run(t *testing.T, kind string) outcome {
	t.Helper()
	var out outcome
	fail := func(err error) {
		out.errs = append(out.errs, err.Error())
	}
	sys, err := proc.NewSystem(sc.np)
	if err != nil {
		t.Fatal(err)
	}
	dom := index.Standard(1, sc.n, 1, sc.n)
	m1 := buildMapping(t, sys, dom, sc.f1)
	m2 := buildMapping(t, sys, dom, sc.f2)
	tkind := sc.tkind
	if tkind == "" {
		tkind = InprocTransport
	}
	eng := newBackend(t, kind, tkind, sc.np)
	defer eng.Close()
	a, err := eng.NewArray("A", m1)
	if err != nil {
		fail(err)
		return out
	}
	b, err := eng.NewArray("B", m2)
	if err != nil {
		fail(err)
		return out
	}
	// A third of A is -0, which no sum from +0 reproduces: a remap must
	// carry it bit for bit.
	a.Fill(func(tu index.Tuple) float64 {
		if (tu[0]+2*tu[1])%3 == 0 {
			return math.Copysign(0, -1)
		}
		return float64(tu[0]*13 - tu[1]*5)
	})
	terms := []Term{Read(a, 0.5, 0, 0), Read(a, 1, sc.shift[0], sc.shift[1])}
	if sc.srcRep {
		r, err := eng.NewArray("R", replicatedMapping(t, sys, dom))
		if err != nil {
			fail(err)
			return out
		}
		r.Fill(func(tu index.Tuple) float64 { return float64(tu[0] + 100*tu[1]) })
		terms = append(terms, Read(r, 2, 0, 0))
	}
	if sc.mapped {
		vdom := index.Standard(1, sc.n)
		vm := buildMapping(t, sys, vdom, sc.f1)
		if sc.srcRep {
			vm = replicatedMapping(t, sys, vdom)
		}
		v, err := eng.NewArray("V", vm)
		if err != nil {
			fail(err)
			return out
		}
		v.Fill(func(tu index.Tuple) float64 { return float64(7*tu[0] - 20) })
		// A(j+sh1, i+sh0) and V(i+sh0) are in bounds wherever
		// A(i+sh0, j+sh1) is: the region below keeps them there.
		terms = append(terms,
			Term{Src: a, Coeff: 1.5, Access: index.Access{{Dim: 1, Off: sc.shift[1]}, {Dim: 0, Off: sc.shift[0]}}},
			Term{Src: v, Coeff: 3, Access: index.Access{{Dim: 0, Off: sc.shift[0]}}})
	}
	lo0, hi0 := 1, sc.n
	lo1, hi1 := 1, sc.n
	if sc.shift[0] < 0 {
		lo0 = 1 - sc.shift[0]
	} else {
		hi0 = sc.n - sc.shift[0]
	}
	if sc.shift[1] < 0 {
		lo1 = 1 - sc.shift[1]
	} else {
		hi1 = sc.n - sc.shift[1]
	}
	if lo0 > hi0 || lo1 > hi1 {
		return out
	}
	region := index.Standard(lo0, hi0, lo1, hi1)
	sched, err := b.NewSchedule(region, terms)
	if err != nil {
		fail(err)
	} else if err := sched.Execute(); err != nil {
		fail(err)
	} else if err := sched.ExecuteN(sc.replayIt); err != nil {
		fail(err)
	}
	before := a.Data()
	moved, err := a.Remap(m2)
	if err != nil {
		fail(err)
	}
	out.moved = moved
	if sc.back {
		if moved, err = a.Remap(m1); err != nil {
			fail(err)
		}
		out.moved += moved
	}
	for i, v := range a.Data() {
		if len(out.errs) == 0 && math.Float64bits(v) != math.Float64bits(before[i]) {
			t.Fatalf("%s: remap changed A's value %d from %g (%#x) to %g (%#x)", kind, i, before[i], math.Float64bits(before[i]), v, math.Float64bits(v))
		}
	}
	sum, err := b.Reduce(runtime.ReduceSum)
	if err != nil {
		fail(err)
	}
	out.sum = sum
	out.data = append(a.Data(), b.Data()...)
	out.report = eng.Stats()
	return out
}

func formatFor(sel, k uint8, n, np int) dist.Format {
	switch sel % 5 {
	case 0:
		return dist.Block{}
	case 1:
		return dist.BlockVienna{}
	case 2:
		return dist.Cyclic{K: int(k%5) + 1}
	case 3:
		bounds := make([]int, np-1)
		for i := range bounds {
			b := (i + 1) * n / np
			b += int(k) % 3
			if b > n {
				b = n
			}
			if i > 0 && b < bounds[i-1] {
				b = bounds[i-1]
			}
			bounds[i] = b
		}
		return dist.GeneralBlock{Bounds: bounds}
	default:
		owner := make([]int, n)
		x := uint32(k)*2654435761 + 1
		for i := range owner {
			x = x*1664525 + 1013904223
			owner[i] = int(x>>16)%np + 1
		}
		f, err := dist.NewIndirect(owner)
		if err != nil {
			return dist.Block{}
		}
		return f
	}
}

// FuzzEngineEquivalence is the differential fuzz target of both engine
// kinds against the element-wise oracle: for random formats, shifts,
// replicated sources, mapped terms (a transposed and a rank-reducing
// read), remaps (one way or there and back) and, for
// spmd, transports (inproc channels, shm rings or tcp loopback
// sockets), sim and spmd must each produce the oracle's array values,
// remap counts, reduction results and machine.Report.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(uint8(4), uint8(12), uint8(0), uint8(2), uint8(0), uint8(1), uint8(2), false, uint8(0), false)
	f.Add(uint8(3), uint8(9), uint8(2), uint8(4), uint8(3), uint8(3), uint8(3), false, uint8(2), false)
	f.Add(uint8(5), uint8(16), uint8(4), uint8(1), uint8(7), uint8(2), uint8(0), true, uint8(1), false)
	f.Add(uint8(2), uint8(7), uint8(3), uint8(0), uint8(1), uint8(4), uint8(2), false, uint8(2), false)
	f.Add(uint8(6), uint8(10), uint8(1), uint8(4), uint8(9), uint8(2), uint8(2), true, uint8(1), false)
	// The shapes the spmd tile producer is pinned on (package spmd,
	// TestTileProducerMatchesElementProducer): CYCLIC(1) against
	// CYCLIC(2) and CYCLIC(3) against CYCLIC(4) with shifts past a block,
	// GENERAL_BLOCK with empty blocks (more processors than rows),
	// INDIRECT on both sides, one format on both sides, and a
	// replicated source, which sends the statement to the element walk.
	f.Add(uint8(0), uint8(12), uint8(2), uint8(2), uint8(0), uint8(0), uint8(3), false, uint8(1), false)
	f.Add(uint8(2), uint8(15), uint8(2), uint8(2), uint8(2), uint8(4), uint8(0), false, uint8(2), false)
	f.Add(uint8(6), uint8(1), uint8(3), uint8(3), uint8(0), uint8(1), uint8(2), false, uint8(0), false)
	f.Add(uint8(2), uint8(9), uint8(4), uint8(4), uint8(5), uint8(3), uint8(3), false, uint8(1), false)
	f.Add(uint8(1), uint8(14), uint8(0), uint8(0), uint8(0), uint8(2), uint8(4), false, uint8(0), false)
	f.Add(uint8(2), uint8(8), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), true, uint8(2), false)
	// Two remaps, there and back (wireSel ≥ 16): block rows to a cyclic
	// interleaving and back, two interleavings, GENERAL_BLOCK and
	// INDIRECT against BLOCK, and one format on both sides, where the
	// tiling does not change and nothing may move either way.
	f.Add(uint8(0), uint8(12), uint8(0), uint8(2), uint8(7), uint8(2), uint8(2), false, uint8(16), false)
	f.Add(uint8(2), uint8(15), uint8(2), uint8(2), uint8(2), uint8(1), uint8(3), false, uint8(17), false)
	f.Add(uint8(3), uint8(9), uint8(3), uint8(0), uint8(1), uint8(2), uint8(1), false, uint8(18), false)
	f.Add(uint8(1), uint8(11), uint8(0), uint8(4), uint8(5), uint8(3), uint8(2), true, uint8(16), false)
	f.Add(uint8(4), uint8(8), uint8(1), uint8(1), uint8(0), uint8(2), uint8(2), false, uint8(17), false)
	// The mapped arm, one seed per wire: BLOCK against CYCLIC(4) on
	// inproc, CYCLIC(4) against INDIRECT with a replicated vector on
	// shm, INDIRECT against Vienna BLOCK on tcp.
	f.Add(uint8(4), uint8(12), uint8(0), uint8(2), uint8(2), uint8(1), uint8(2), false, uint8(0), true)
	f.Add(uint8(3), uint8(9), uint8(2), uint8(4), uint8(3), uint8(3), uint8(3), true, uint8(1), true)
	f.Add(uint8(5), uint8(16), uint8(4), uint8(1), uint8(7), uint8(2), uint8(0), false, uint8(2), true)
	f.Fuzz(func(t *testing.T, npB, nB, sel1, sel2, k, sh0, sh1 uint8, srcRep bool, wireSel uint8, mapped bool) {
		np := int(npB%7) + 2
		n := int(nB%20) + 4
		wires := Transports()
		tkind := wires[int(wireSel)%len(wires)]
		sc := scenario{
			np:       np,
			n:        n,
			f1:       formatFor(sel1, k, n, np),
			f2:       formatFor(sel2, k+1, n, np),
			shift:    [2]int{int(sh0%5) - 2, int(sh1%5) - 2},
			srcRep:   srcRep,
			mapped:   mapped,
			back:     wireSel&16 != 0,
			replayIt: 2,
			tkind:    tkind,
		}
		want := sc.run(t, oracleKind)
		for _, kind := range Kinds() {
			got := sc.run(t, kind)
			if len(want.errs) > 0 && len(got.errs) == len(want.errs) {
				continue // failed alike; what came before the failure is not compared
			}
			sameOutcome(t, kind, want, got)
		}
	})
}
