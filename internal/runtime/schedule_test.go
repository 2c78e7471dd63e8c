package runtime

import (
	"math"
	"testing"

	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/index"
	"hpfnt/internal/proc"
)

func mapOf(d *dist.Distribution) core.ElementMapping { return core.DistMapping{D: d} }

func TestScheduleMatchesShiftAssign(t *testing.T) {
	// Replaying one prebuilt schedule must produce the same values and
	// the same machine counters as building the statement afresh for
	// every execution. The statement updates A in place, so every
	// iteration reads what the one before it stored.
	sys, _ := proc.NewSystem(4)
	n := 24
	dom := index.Standard(1, n, 1, n)
	a1, _ := NewArray("A", blockMapping(t, sys, "A", dom, dist.Block{}))
	a2, _ := NewArray("A", blockMapping(t, sys, "A", dom, dist.Block{}))
	fill := func(tu index.Tuple) float64 { return float64(tu[0]*5 - tu[1]) }
	a1.Fill(fill)
	a2.Fill(fill)

	interior := index.Standard(2, n-1, 2, n-1)
	mkTerms := func(a *Array) []Term {
		return []Term{
			ref(a, 0.25, -1, 0), ref(a, 0.25, 1, 0), ref(a, 0.25, 0, -1), ref(a, 0.25, 0, 1),
		}
	}
	m1, m2 := mkMachine(t, 4), mkMachine(t, 4)
	sched, err := BuildSchedule(a2, interior, mkTerms(a2))
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 3; it++ {
		if err := assign(m1, a1, interior, mkTerms(a1)); err != nil {
			t.Fatal(err)
		}
		if err := sched.Execute(m2); err != nil {
			t.Fatal(err)
		}
	}
	if r1, r2 := m1.Stats(), m2.Stats(); r1 != r2 {
		t.Fatalf("counters differ:\nfresh builds: %s\nreplay:       %s", r1, r2)
	}
	d1, d2 := a1.Data(), a2.Data()
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("values differ at %d: %f vs %f", i, d1[i], d2[i])
		}
	}
}

func TestScheduleReuseAcrossIterations(t *testing.T) {
	// Iterated Jacobi through one schedule: counters accumulate
	// linearly, values evolve as in the reference executor.
	sys, _ := proc.NewSystem(4)
	n := 16
	dom := index.Standard(1, n)
	a, _ := NewArray("A", blockMapping(t, sys, "A", dom, dist.Block{}))
	a.Fill(func(tu index.Tuple) float64 { return float64(tu[0]) })
	region := index.Standard(2, n-1)
	sched, err := BuildSchedule(a, region, []Term{ref(a, 0.5, -1), ref(a, 0.5, 1)})
	if err != nil {
		t.Fatal(err)
	}
	m := mkMachine(t, 4)
	const iters = 10
	for it := 0; it < iters; it++ {
		if err := sched.Execute(m); err != nil {
			t.Fatal(err)
		}
	}
	r := m.Stats()
	if r.ElementsMoved != int64(iters*sched.GhostElements()) {
		t.Fatalf("elements = %d, want %d per iter x %d", r.ElementsMoved, sched.GhostElements(), iters)
	}
	if r.Messages != int64(iters*sched.Messages()) {
		t.Fatalf("messages = %d", r.Messages)
	}
	// Reference: sequential iteration.
	s := NewSeqArray(dom)
	s.Fill(func(tu index.Tuple) float64 { return float64(tu[0]) })
	for it := 0; it < iters; it++ {
		if err := SeqShiftAssign(s, region, []SeqTerm{
			{Src: s, Shift: []int{-1}, Coeff: 0.5}, {Src: s, Shift: []int{1}, Coeff: 0.5},
		}); err != nil {
			t.Fatal(err)
		}
	}
	ad, sd := a.Data(), s.Data()
	for i := range ad {
		if math.Abs(ad[i]-sd[i]) > 1e-12 {
			t.Fatalf("iterated values differ at %d: %f vs %f", i, ad[i], sd[i])
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	sys, _ := proc.NewSystem(2)
	dom := index.Standard(1, 8)
	a, _ := NewArray("A", blockMapping(t, sys, "A", dom, dist.Block{}))
	if _, err := BuildSchedule(a, dom, []Term{ref(a, 1, -1)}); err == nil {
		t.Fatal("out-of-bounds shift must fail at build time")
	}
	if _, err := BuildSchedule(a, index.Standard(1, 8, 1, 8), nil); err == nil {
		t.Fatal("region rank mismatch must fail")
	}
	if _, err := BuildSchedule(a, dom, []Term{ref(a, 1, 0, 0)}); err == nil {
		t.Fatal("shift rank mismatch must fail")
	}
	strided := index.New(index.Triplet{Low: 3, High: 7, Stride: 2})
	if _, err := BuildSchedule(a, strided, []Term{ref(a, 1, 1)}); err != nil {
		t.Fatalf("strided region: %v", err)
	}
}

func TestReduceSum(t *testing.T) {
	sys, _ := proc.NewSystem(4)
	dom := index.Standard(1, 100)
	a, _ := NewArray("A", blockMapping(t, sys, "A", dom, dist.Block{}))
	a.Fill(func(tu index.Tuple) float64 { return float64(tu[0]) })
	m := mkMachine(t, 4)
	got, err := Reduce(m, a, ReduceSum)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5050 {
		t.Fatalf("sum = %f", got)
	}
	r := m.Stats()
	// Local reductions: one load unit per element.
	if r.TotalLoad != 100 {
		t.Fatalf("load = %d", r.TotalLoad)
	}
	// Tree combine of 4 partials: 3 single-element messages.
	if r.Messages != 3 || r.ElementsMoved != 3 {
		t.Fatalf("combine: %d msgs, %d elems", r.Messages, r.ElementsMoved)
	}
}

func TestReduceMaxMin(t *testing.T) {
	sys, _ := proc.NewSystem(4)
	dom := index.Standard(1, 10)
	a, _ := NewArray("A", blockMapping(t, sys, "A", dom, dist.Cyclic{K: 1}))
	a.Fill(func(tu index.Tuple) float64 { return float64((tu[0]*7)%10) - 3 })
	m := mkMachine(t, 4)
	max, err := Reduce(m, a, ReduceMax)
	if err != nil {
		t.Fatal(err)
	}
	min, err := Reduce(m, a, ReduceMin)
	if err != nil {
		t.Fatal(err)
	}
	if max != 6 || min != -3 {
		t.Fatalf("max=%f min=%f", max, min)
	}
}

func TestReduceReplicatedCountsOnce(t *testing.T) {
	// A replicated array's elements must each contribute once.
	sys, _ := proc.NewSystem(4)
	rep, _ := sys.DeclareScalar("REPR", proc.ScalarReplicated)
	dom := index.Standard(1, 8)
	dr, err := dist.New(dom, []dist.Format{dist.Collapsed{}}, proc.Whole(rep))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArray("R", mapOf(dr))
	if err != nil {
		t.Fatal(err)
	}
	a.Fill(func(tu index.Tuple) float64 { return 1 })
	got, err := Reduce(mkMachine(t, 4), a, ReduceSum)
	if err != nil {
		t.Fatal(err)
	}
	if got != 8 {
		t.Fatalf("sum = %f, want 8 (each element once)", got)
	}
}

func TestReduceNilMachine(t *testing.T) {
	sys, _ := proc.NewSystem(4)
	dom := index.Standard(1, 5)
	a, _ := NewArray("A", blockMapping(t, sys, "A", dom, dist.Block{}))
	a.Fill(func(tu index.Tuple) float64 { return 2 })
	got, err := Reduce(nil, a, ReduceSum)
	if err != nil || got != 10 {
		t.Fatalf("Reduce(nil) = %f, %v", got, err)
	}
}
