package workload

import (
	"testing"

	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/index"
	"hpfnt/internal/machine"
	"hpfnt/internal/proc"
)

func gridMappings(t *testing.T, n, r, c int) (StaggeredMappings, int) {
	t.Helper()
	np := r * c
	sys, err := proc.NewSystem(np)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := sys.DeclareArray("G", index.Standard(1, r, 1, c))
	if err != nil {
		t.Fatal(err)
	}
	tg := proc.Whole(arr)
	udom, vdom, pdom := StaggeredDomains(n)
	mk := func(dom index.Domain) core.ElementMapping {
		d, err := dist.New(dom, []dist.Format{dist.BlockVienna{}, dist.BlockVienna{}}, tg)
		if err != nil {
			t.Fatal(err)
		}
		return core.DistMapping{D: d}
	}
	return StaggeredMappings{U: mk(udom), V: mk(vdom), P: mk(pdom)}, np
}

func TestStaggeredDomains(t *testing.T) {
	u, v, p := StaggeredDomains(8)
	if u.Lower(0) != 0 || u.Dims[0].Last() != 8 || u.Lower(1) != 1 {
		t.Fatalf("U = %s", u)
	}
	if v.Lower(1) != 0 || v.Dims[1].Last() != 8 {
		t.Fatalf("V = %s", v)
	}
	if p.Size() != 64 {
		t.Fatalf("P = %s", p)
	}
}

func TestStaggeredSweepRuns(t *testing.T) {
	maps, np := gridMappings(t, 16, 2, 2)
	rep, err := StaggeredSweep(16, np, maps, machine.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	// Four references per P element.
	if got := rep.LocalRefs + rep.RemoteRefs; got != 4*16*16 {
		t.Fatalf("total refs = %d, want %d", got, 4*16*16)
	}
	// Block mapping: only boundary traffic, well under 20%.
	if rep.RemoteFraction > 0.2 {
		t.Fatalf("remote fraction %f too high for block mapping", rep.RemoteFraction)
	}
}

func TestStaggeredVerify(t *testing.T) {
	maps, np := gridMappings(t, 12, 2, 2)
	ok, err := StaggeredVerify(12, np, maps)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("distributed result differs from sequential reference")
	}
}

func TestJacobiSweep(t *testing.T) {
	sys, _ := proc.NewSystem(4)
	arr, _ := sys.DeclareArray("P", index.Standard(1, 4))
	dom := index.Standard(1, 32, 1, 32)
	d, err := dist.New(dom, []dist.Format{dist.Block{}, dist.Collapsed{}}, proc.Whole(arr))
	if err != nil {
		t.Fatal(err)
	}
	m := core.DistMapping{D: d}
	rep, err := JacobiSweep(32, 4, m, m, machine.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalLoad != 4*30*30 {
		t.Fatalf("load = %d", rep.TotalLoad)
	}
	// Row-blocked Jacobi: 2 boundary rows per interior cut, 3 cuts,
	// 30 interior columns each, both directions.
	if rep.ElementsMoved != int64(3*2*30) {
		t.Fatalf("elements moved = %d, want %d", rep.ElementsMoved, 3*2*30)
	}
}

func TestTriangularWeights(t *testing.T) {
	w := TriangularWeights(5)
	for i, want := range []float64{1, 2, 3, 4, 5} {
		if w[i] != want {
			t.Fatalf("w = %v", w)
		}
	}
}

func TestLUSweepTotalsIndependentOfFormat(t *testing.T) {
	// Total work is mapping-independent; only max load changes.
	a, err := LUSweep(256, 8, dist.Block{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := LUSweep(256, 8, dist.Cyclic{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalLoad != b.TotalLoad {
		t.Fatalf("total load differs: %d vs %d", a.TotalLoad, b.TotalLoad)
	}
	if b.Imbalance >= a.Imbalance {
		t.Fatalf("cyclic (%f) must beat block (%f)", b.Imbalance, a.Imbalance)
	}
	// Exact total: sum over k of (n-k)*(n-k).
	var want int64
	n := int64(256)
	for k := int64(1); k < n; k++ {
		want += (n - k) * (n - k)
	}
	if a.TotalLoad != want {
		t.Fatalf("total = %d, want %d", a.TotalLoad, want)
	}
}

func TestLUSweepValidation(t *testing.T) {
	if _, err := LUSweep(16, 4, dist.Cyclic{K: 0}); err == nil {
		t.Fatal("invalid format must fail")
	}
}

func TestRowSweepLoad(t *testing.T) {
	m, _ := machine.New(4, machine.DefaultCost())
	w := TriangularWeights(16)
	if err := RowSweepLoad(m, dist.Block{}, w, 4); err != nil {
		t.Fatal(err)
	}
	r := m.Stats()
	if r.TotalLoad != 16*17/2 {
		t.Fatalf("total = %d", r.TotalLoad)
	}
	// BLOCK on triangular weights: last block heaviest.
	loads := m.PerProcessorLoad()
	if loads[4] <= loads[1] {
		t.Fatalf("expected increasing loads, got %v", loads[1:])
	}
}

// TestLUSweepClosedForm differentially tests the O(runs) closed-form
// LU load sums against a naive per-step, per-row oracle.
func TestLUSweepClosedForm(t *testing.T) {
	naive := func(n, np int, f dist.Format) []int64 {
		load := make([]int64, np+1)
		for k := 1; k < n; k++ {
			for i := k + 1; i <= n; i++ {
				load[f.Map(i, n, np)] += int64(n - k)
			}
		}
		return load
	}
	owner := make([]int, 37)
	for i := range owner {
		owner[i] = (i*5)%4 + 1
	}
	ind, err := dist.NewIndirect(owner)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		n, np int
		f     dist.Format
	}{
		{37, 4, dist.Block{}},
		{37, 4, dist.BlockVienna{}},
		{37, 4, dist.Cyclic{K: 1}},
		{37, 4, dist.Cyclic{K: 5}},
		{37, 4, dist.GeneralBlock{Bounds: []int{10, 10, 30}}},
		{37, 4, ind},
		{1, 3, dist.Block{}},
		{64, 8, dist.Cyclic{K: 2}},
	}
	for _, c := range cases {
		rep, err := LUSweep(c.n, c.np, c.f)
		if err != nil {
			t.Fatalf("%s: %v", c.f, err)
		}
		load := naive(c.n, c.np, c.f)
		var max, total int64
		for p := 1; p <= c.np; p++ {
			total += load[p]
			if load[p] > max {
				max = load[p]
			}
		}
		if rep.MaxLoad != max || rep.TotalLoad != total {
			t.Fatalf("%s n=%d np=%d: closed form (max %d, total %d), oracle (max %d, total %d)",
				c.f, c.n, c.np, rep.MaxLoad, rep.TotalLoad, max, total)
		}
	}
}

// TestRowSweepLoadRuns checks the per-run load aggregation against
// per-row accumulation, including the per-row integer truncation.
func TestRowSweepLoadRuns(t *testing.T) {
	n, np := 41, 4
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(i)*0.75 + 0.5 // fractional: truncation matters
	}
	for _, f := range []dist.Format{dist.Block{}, dist.Cyclic{K: 3}, dist.GeneralBlock{Bounds: []int{8, 20, 22}}} {
		m1, err := machine.New(np, machine.DefaultCost())
		if err != nil {
			t.Fatal(err)
		}
		if err := RowSweepLoad(m1, f, w, np); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		m2, err := machine.New(np, machine.DefaultCost())
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= n; i++ {
			m2.AddLoad(f.Map(i, n, np), int(w[i-1]))
		}
		s1, s2 := m1.Stats(), m2.Stats()
		if s1.MaxLoad != s2.MaxLoad || s1.TotalLoad != s2.TotalLoad {
			t.Fatalf("%s: run loads (max %d, total %d) != per-row (max %d, total %d)",
				f, s1.MaxLoad, s1.TotalLoad, s2.MaxLoad, s2.TotalLoad)
		}
	}
}
