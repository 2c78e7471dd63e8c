package spmd

import (
	"math"
	"strconv"
	"testing"
	"time"

	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/index"
	"hpfnt/internal/machine"
	"hpfnt/internal/proc"
	"hpfnt/internal/runtime"
)

func mapping(t *testing.T, sys *proc.System, dom index.Domain, f dist.Format) core.ElementMapping {
	t.Helper()
	arr, ok := sys.Lookup("P")
	if !ok {
		var err error
		arr, err = sys.DeclareArray("P", index.Standard(1, sys.AP.N()))
		if err != nil {
			t.Fatal(err)
		}
	}
	formats := make([]dist.Format, dom.Rank())
	formats[0] = f
	for i := 1; i < dom.Rank(); i++ {
		formats[i] = dist.Collapsed{}
	}
	d, err := dist.New(dom, formats, proc.Whole(arr))
	if err != nil {
		t.Fatal(err)
	}
	return core.DistMapping{D: d}
}

func newEngine(t *testing.T, np int) *Engine {
	t.Helper()
	e, err := New(np, machine.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestValuesMatchSequential checks the parallel executor against the
// sequential reference for several formats.
func TestValuesMatchSequential(t *testing.T) {
	const n, np = 16, 4
	sys, _ := proc.NewSystem(np)
	dom := index.Standard(1, n, 1, n)
	ind, err := dist.NewIndirect(func() []int {
		o := make([]int, n)
		for i := range o {
			o[i] = (i*3)%np + 1
		}
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []dist.Format{dist.Block{}, dist.BlockVienna{}, dist.Cyclic{K: 3},
		dist.GeneralBlock{Bounds: []int{2, 9, 11}}, ind} {
		e := newEngine(t, np)
		am := mapping(t, sys, dom, f)
		a, err := e.NewArray("A", am)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		b, err := e.NewArray("B", mapping(t, sys, dom, f))
		if err != nil {
			t.Fatal(err)
		}
		fill := func(tu index.Tuple) float64 { return float64(tu[0]*31 + tu[1]*7) }
		a.Fill(fill)
		interior := index.Standard(2, n-1, 2, n-1)
		terms := []Term{Ref(a, 0.25, -1, 0), Ref(a, 0.25, 1, 0), Ref(a, 0.25, 0, -1), Ref(a, 0.25, 0, 1)}
		if err := e.ShiftAssign(b, interior, terms); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		as, bs := runtime.NewSeqArray(dom), runtime.NewSeqArray(dom)
		as.Fill(fill)
		if err := runtime.SeqShiftAssign(bs, interior, []runtime.SeqTerm{
			{Src: as, Shift: []int{-1, 0}, Coeff: 0.25}, {Src: as, Shift: []int{1, 0}, Coeff: 0.25},
			{Src: as, Shift: []int{0, -1}, Coeff: 0.25}, {Src: as, Shift: []int{0, 1}, Coeff: 0.25},
		}); err != nil {
			t.Fatal(err)
		}
		bd, sd := b.Data(), bs.Data()
		for i := range bd {
			if bd[i] != sd[i] {
				t.Fatalf("%s: value mismatch at offset %d: %f vs %f", f, i, bd[i], sd[i])
			}
		}
	}
}

// TestStatsMatchOracle compares the full machine report of a
// statement, a schedule replay, a remap and a reduction against the
// element-wise oracle.
func TestStatsMatchOracle(t *testing.T) {
	const n, np = 24, 4
	sys, _ := proc.NewSystem(np)
	dom := index.Standard(1, n, 1, n)
	am := mapping(t, sys, dom, dist.Block{})
	bm := mapping(t, sys, dom, dist.Cyclic{K: 5})

	e := newEngine(t, np)
	pa, err := e.NewArray("A", am)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(tu index.Tuple) float64 { return float64(tu[0] - 2*tu[1]) }
	pa.Fill(fill)
	interior := index.Standard(2, n-1, 2, n-1)
	terms := []Term{Ref(pa, 1, -1, 0), Ref(pa, 1, 1, 0)}
	sched, err := e.BuildSchedule(pa, interior, terms)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.ExecuteN(3); err != nil {
		t.Fatal(err)
	}
	moved, err := e.Remap(pa, bm)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := e.Reduce(pa, runtime.ReduceSum)
	if err != nil {
		t.Fatal(err)
	}
	got := e.Stats()

	m, _ := machine.New(np, machine.DefaultCost())
	ra, err := runtime.NewArray("A", am)
	if err != nil {
		t.Fatal(err)
	}
	ra.Fill(fill)
	rs, err := runtime.BuildSchedule(ra, interior, []runtime.Term{
		runtime.Ref(ra, 1, -1, 0), runtime.Ref(ra, 1, 1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := rs.Execute(m); err != nil {
			t.Fatal(err)
		}
	}
	wantMoved, err := runtime.Remap(m, ra, bm)
	if err != nil {
		t.Fatal(err)
	}
	wantSum, err := runtime.Reduce(m, ra, runtime.ReduceSum)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Stats()

	if got != want {
		t.Fatalf("report mismatch:\n spmd %+v\n  sim %+v", got, want)
	}
	if moved != wantMoved {
		t.Fatalf("moved %d, want %d", moved, wantMoved)
	}
	if sum != wantSum {
		t.Fatalf("sum %f, want %f", sum, wantSum)
	}
	if sched.GhostElements() != rs.GhostElements() || sched.Messages() != rs.Messages() {
		t.Fatalf("schedule shape: spmd (%d ghost, %d msgs), sim (%d, %d)",
			sched.GhostElements(), sched.Messages(), rs.GhostElements(), rs.Messages())
	}
	gd, wd := pa.Data(), ra.Data()
	for i := range gd {
		if gd[i] != wd[i] {
			t.Fatalf("post-remap value mismatch at %d", i)
		}
	}
}

// TestExecuteNPipelined iterates an in-place shift (lhs == src) in a
// single epoch: the pipelined exchange must match iterating the
// sequential executor.
func TestExecuteNPipelined(t *testing.T) {
	const n, np, iters = 32, 4, 6
	sys, _ := proc.NewSystem(np)
	dom := index.Standard(1, n)
	e := newEngine(t, np)
	a, err := e.NewArray("A", mapping(t, sys, dom, dist.Block{}))
	if err != nil {
		t.Fatal(err)
	}
	fill := func(tu index.Tuple) float64 { return float64(tu[0] * tu[0]) }
	a.Fill(fill)
	region := index.Standard(2, n)
	sched, err := e.BuildSchedule(a, region, []Term{Ref(a, 1, -1), Ref(a, 0.5, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.ExecuteN(iters); err != nil {
		t.Fatal(err)
	}
	ra, err := runtime.NewArray("A", mapping(t, sys, dom, dist.Block{}))
	if err != nil {
		t.Fatal(err)
	}
	ra.Fill(fill)
	rs, err := runtime.BuildSchedule(ra, region, []runtime.Term{runtime.Ref(ra, 1, -1), runtime.Ref(ra, 0.5, 0)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < iters; i++ {
		if err := rs.Execute(nil); err != nil {
			t.Fatal(err)
		}
	}
	gd, wd := a.Data(), ra.Data()
	for i := range gd {
		if gd[i] != wd[i] {
			t.Fatalf("iterated value mismatch at %d: %f vs %f", i, gd[i], wd[i])
		}
	}
}

// TestReplicatedArrays covers replicated sources (local reads) and
// replicated left-hand sides (every owner computes).
func TestReplicatedArrays(t *testing.T) {
	const n, np = 16, 4
	sys, _ := proc.NewSystem(np)
	rep, err := sys.DeclareScalar("REP", proc.ScalarReplicated)
	if err != nil {
		t.Fatal(err)
	}
	dom := index.Standard(1, n)
	dr, err := dist.New(dom, []dist.Format{dist.Collapsed{}}, proc.Whole(rep))
	if err != nil {
		t.Fatal(err)
	}
	repMap := core.ElementMapping(core.DistMapping{D: dr})
	blkMap := mapping(t, sys, dom, dist.Block{})

	e := newEngine(t, np)
	src, err := e.NewArray("R", repMap)
	if err != nil {
		t.Fatal(err)
	}
	if !src.Replicated() {
		t.Fatal("expected replicated array")
	}
	dst, err := e.NewArray("B", blkMap)
	if err != nil {
		t.Fatal(err)
	}
	src.Fill(func(tu index.Tuple) float64 { return float64(tu[0] * 3) })
	if err := e.ShiftAssign(dst, dom, []Term{Ref(src, 1, 0)}); err != nil {
		t.Fatal(err)
	}
	r := e.Stats()
	if r.RemoteRefs != 0 {
		t.Fatalf("reads of replicated array must be local, got %d remote", r.RemoteRefs)
	}
	for i := 1; i <= n; i++ {
		if dst.At(index.Tuple{i}) != float64(i*3) {
			t.Fatalf("B(%d) wrong", i)
		}
	}

	// Replicated lhs: every worker computes all elements.
	e2 := newEngine(t, np)
	rl, err := e2.NewArray("R", repMap)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := e2.NewArray("A", blkMap)
	if err != nil {
		t.Fatal(err)
	}
	bs.Fill(func(tu index.Tuple) float64 { return float64(tu[0]) })
	if err := e2.ShiftAssign(rl, dom, []Term{Ref(bs, 2, 0)}); err != nil {
		t.Fatal(err)
	}
	if got := e2.Stats().TotalLoad; got != int64(np*n) {
		t.Fatalf("TotalLoad = %d, want %d", got, np*n)
	}
	for i := 1; i <= n; i++ {
		if rl.At(index.Tuple{i}) != float64(2*i) {
			t.Fatalf("R(%d) wrong", i)
		}
	}
}

// TestRemapValuesAndSpread checks value preservation and the
// per-destination sender choice for replicated sources.
func TestRemapValuesAndSpread(t *testing.T) {
	const n, np = 16, 4
	sys, _ := proc.NewSystem(np)
	dom := index.Standard(1, n)
	e := newEngine(t, np)
	a, err := e.NewArray("A", mapping(t, sys, dom, dist.Block{}))
	if err != nil {
		t.Fatal(err)
	}
	a.Fill(func(tu index.Tuple) float64 { return float64(tu[0] * 10) })
	moved, err := e.Remap(a, mapping(t, sys, dom, dist.Cyclic{K: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("remap must move elements")
	}
	for i := 1; i <= n; i++ {
		if a.At(index.Tuple{i}) != float64(i*10) {
			t.Fatalf("A(%d) changed across remap", i)
		}
	}
	// Replicated source: traffic must not all originate at worker 1.
	rep, err := sys.DeclareScalar("REPS", proc.ScalarReplicated)
	if err != nil {
		t.Fatal(err)
	}
	dr, _ := dist.New(dom, []dist.Format{dist.Collapsed{}}, proc.Whole(rep))
	e2 := newEngine(t, np)
	r, err := e2.NewArray("R", core.DistMapping{D: dr})
	if err != nil {
		t.Fatal(err)
	}
	r.Fill(func(tu index.Tuple) float64 { return float64(tu[0]) })
	// Replicated -> block drops all but one replica; nothing moves
	// (every destination already holds the data).
	moved, err = e2.Remap(r, mapping(t, sys, dom, dist.Block{}))
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Fatalf("replicated->block moved %d, want 0", moved)
	}
	for i := 1; i <= n; i++ {
		if r.At(index.Tuple{i}) != float64(i) {
			t.Fatalf("R(%d) changed across remap", i)
		}
	}
}

func TestErrors(t *testing.T) {
	const n, np = 8, 2
	sys, _ := proc.NewSystem(np)
	dom := index.Standard(1, n)
	e := newEngine(t, np)
	a, _ := e.NewArray("A", mapping(t, sys, dom, dist.Block{}))
	b, _ := e.NewArray("B", mapping(t, sys, dom, dist.Block{}))
	// The out-of-bounds error names the first offending element in
	// region order: such statements are walked element by element.
	err := e.ShiftAssign(b, dom, []Term{Ref(a, 1, -1)})
	if want := "spmd: reference A((0)) out of bounds in assignment to B((1))"; err == nil || err.Error() != want {
		t.Fatalf("out-of-bounds reference: %v, want %q", err, want)
	}
	if err := e.ShiftAssign(b, dom, []Term{Ref(a, 1, 0, 0)}); err == nil {
		t.Fatal("shift rank mismatch must fail")
	}
	if err := e.ShiftAssign(b, index.Standard(1, n, 1, n), []Term{Ref(a, 1, 0)}); err == nil {
		t.Fatal("region rank mismatch must fail")
	}
	if _, err := e.Remap(a, mapping(t, sys, index.Standard(1, 4), dist.Block{})); err == nil {
		t.Fatal("remap shape mismatch must fail")
	}
	other := newEngine(t, np)
	if err := other.ShiftAssign(b, dom, []Term{Ref(a, 1, 0)}); err == nil {
		t.Fatal("cross-engine arrays must fail")
	}
	if s, err := e.BuildSchedule(b, dom, []Term{Ref(a, 1, 0)}); err != nil {
		t.Fatal(err)
	} else if err := s.ExecuteN(0); err == nil {
		t.Fatal("non-positive iteration count must fail")
	}
}

// TestGeneralAssign checks rank-changing mapped references.
func TestGeneralAssign(t *testing.T) {
	const np = 4
	sys, _ := proc.NewSystem(np)
	ddom := index.Standard(1, 12, 1, 6)
	adom := index.Standard(1, 12)
	e := newEngine(t, np)
	d, _ := e.NewArray("D", mapping(t, sys, ddom, dist.Block{}))
	ea, _ := e.NewArray("E", mapping(t, sys, ddom, dist.Block{}))
	a, _ := e.NewArray("A", mapping(t, sys, adom, dist.Cyclic{K: 2}))
	d.Fill(func(tu index.Tuple) float64 { return float64(tu[0]*10 + tu[1]) })
	a.Fill(func(tu index.Tuple) float64 { return float64(tu[0] * tu[0]) })
	err := e.GeneralAssign(ea, ddom, []GeneralTerm{
		{Src: d, Coeff: 1, Map: func(tu index.Tuple) index.Tuple { return tu }},
		{Src: a, Coeff: 2, Map: func(tu index.Tuple) index.Tuple { return index.Tuple{tu[0]} }},
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	ddom.ForEach(func(tu index.Tuple) bool {
		want := float64(tu[0]*10+tu[1]) + 2*float64(tu[0]*tu[0])
		if ea.At(tu) != want {
			bad++
		}
		return true
	})
	if bad != 0 {
		t.Fatalf("%d wrong values", bad)
	}
	if e.Stats().RemoteRefs == 0 {
		t.Fatal("expected remote reads of the cyclic array")
	}
}

// TestSetWritesAllReplicas pins Set's write-to-every-copy semantics.
func TestSetWritesAllReplicas(t *testing.T) {
	const n, np = 6, 3
	sys, _ := proc.NewSystem(np)
	rep, err := sys.DeclareScalar("REPW", proc.ScalarReplicated)
	if err != nil {
		t.Fatal(err)
	}
	dr, _ := dist.New(index.Standard(1, n), []dist.Format{dist.Collapsed{}}, proc.Whole(rep))
	e := newEngine(t, np)
	a, err := e.NewArray("R", core.DistMapping{D: dr})
	if err != nil {
		t.Fatal(err)
	}
	a.Set(index.Tuple{3}, 42)
	for p := 1; p <= np; p++ {
		off, _ := a.dom.Offset(index.Tuple{3})
		slot, ok := a.lay.slotIn(p, off)
		if got := a.lay.stores[p].data[slot]; !ok || got != 42 {
			t.Fatalf("worker %d copy = %f, want 42", p, got)
		}
	}
	if a.At(index.Tuple{3}) != 42 {
		t.Fatal("At after Set wrong")
	}
}

// TestReduceReplicated: a reduction over a replicated array folds each
// element once, at its first owner, and its data is each element's
// value: the sum, the maximum and the logical report equal the
// element-wise oracle's, and Data equals the oracle's values.
func TestReduceReplicated(t *testing.T) {
	const n, np = 7, 3
	sys, _ := proc.NewSystem(np)
	rep, err := sys.DeclareScalar("REPR", proc.ScalarReplicated)
	if err != nil {
		t.Fatal(err)
	}
	dr, _ := dist.New(index.Standard(1, n), []dist.Format{dist.Collapsed{}}, proc.Whole(rep))
	m := core.DistMapping{D: dr}
	fill := func(tp index.Tuple) float64 { return 0.1 * float64(tp[0]*tp[0]) }
	e := newEngine(t, np)
	a := newArray(t, e, "R", m)
	a.Fill(fill)
	mach, _ := machine.New(np, machine.DefaultCost())
	ra, err := runtime.NewArray("R", m)
	if err != nil {
		t.Fatal(err)
	}
	ra.Fill(fill)
	for _, op := range []runtime.ReduceOp{runtime.ReduceSum, runtime.ReduceMax} {
		got, err := e.Reduce(a, op)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := runtime.Reduce(mach, ra, op); got != want {
			t.Errorf("reduction %v: %v, oracle %v", op, got, want)
		}
	}
	if got, want := e.Stats().Logical(), mach.Stats().Logical(); got != want {
		t.Errorf("report\n got  %+v\n want %+v", got, want)
	}
	for i, v := range a.Data() {
		if w := ra.Data()[i]; v != w {
			t.Errorf("Data[%d] = %v, oracle %v", i, v, w)
		}
	}
}

// TestLayoutRefusesOversizeDomain: slots, offsets and run bases are
// int32, so a domain of more than MaxInt32 elements cannot be laid
// out. It must be refused by the size alone — before any per-element
// grid is allocated or any tile walked — with an error naming the
// array.
func TestLayoutRefusesOversizeDomain(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("a domain above MaxInt32 elements needs a 64-bit int")
	}
	const np = 2
	sys, _ := proc.NewSystem(np)
	n := int64(math.MaxInt32) + 1 // not a constant: must compile where int is 32 bits
	huge := mapping(t, sys, index.Standard(1, int(n)), dist.Block{})
	e := newEngine(t, np)
	start := time.Now()
	_, err := e.NewArray("HUGE", huge)
	if want := "spmd: materializing HUGE: domain [1:2147483648] has 2147483648 elements, above the 2147483647 a layout can index"; err == nil || err.Error() != want {
		t.Fatalf("NewArray = %v, want %q", err, want)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("refusal took %v: something walked the domain", d)
	}
}
