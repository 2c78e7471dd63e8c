package inquiry

import (
	"strings"
	"testing"

	"hpfnt/internal/align"
	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/expr"
	"hpfnt/internal/index"
	"hpfnt/internal/proc"
)

func setup(t *testing.T) (*core.Unit, proc.Target) {
	t.Helper()
	sys, err := proc.NewSystem(8)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := sys.DeclareArray("P", index.Standard(1, 8))
	if err != nil {
		t.Fatal(err)
	}
	return core.NewUnit("Q", sys), proc.Whole(arr)
}

func TestDescribeDirect(t *testing.T) {
	u, tg := setup(t)
	u.DeclareArray("A", index.Standard(1, 64, 1, 64))
	u.Distribute("A", []dist.Format{dist.Cyclic{K: 3}, dist.Collapsed{}}, tg)
	m, _ := u.MappingOf("A")
	info := Describe(m)
	if !info.Direct || info.Aligned || info.Inherited {
		t.Fatalf("info = %+v", info)
	}
	if info.Rank != 2 || info.NP != 8 {
		t.Fatalf("info = %+v", info)
	}
	if info.Dims[0].Format != dist.KindCyclic || info.Dims[0].CyclicK != 3 {
		t.Fatalf("dim 0 = %+v", info.Dims[0])
	}
	if info.Dims[1].Format != dist.KindCollapsed || info.Dims[1].Distributed {
		t.Fatalf("dim 1 = %+v", info.Dims[1])
	}
	if !strings.Contains(info.Render(), "CYCLIC(3)") {
		t.Fatalf("Render = %q", info.Render())
	}
}

func TestDescribeGeneralBlock(t *testing.T) {
	u, tg := setup(t)
	u.DeclareArray("C", index.Standard(1, 100))
	u.Distribute("C", []dist.Format{dist.GeneralBlock{Bounds: []int{10, 20, 40, 55, 70, 80, 90}}}, tg)
	m, _ := u.MappingOf("C")
	info := Describe(m)
	if info.Dims[0].Format != dist.KindGeneralBlock {
		t.Fatalf("info = %+v", info)
	}
	if len(info.Dims[0].GeneralBounds) != 7 {
		t.Fatalf("bounds = %v", info.Dims[0].GeneralBounds)
	}
	if !strings.Contains(info.Render(), "GENERAL_BLOCK") {
		t.Fatalf("Render = %q", info.Render())
	}
}

func TestDescribeAligned(t *testing.T) {
	u, tg := setup(t)
	u.DeclareArray("B", index.Standard(1, 32))
	u.DeclareArray("A", index.Standard(1, 16))
	u.Distribute("B", []dist.Format{dist.Block{}}, tg)
	u.Align(align.Spec{
		Alignee: "A", Axes: []align.Axis{align.DummyAxis("I")},
		Base: "B", Subs: []align.Subscript{align.ExprSub(expr.Affine(2, "I", 0))},
	})
	m, _ := u.MappingOf("A")
	info := Describe(m)
	if !info.Aligned || info.Direct {
		t.Fatalf("info = %+v", info)
	}
	if info.NP != 8 {
		t.Fatalf("NP = %d", info.NP)
	}
	if info.Replicated {
		t.Fatal("affine alignment is not replicated")
	}
}

func TestDescribeReplicatedAlignment(t *testing.T) {
	u, tg := setup(t)
	u.DeclareArray("D", index.Standard(1, 16, 1, 4))
	u.DeclareArray("A", index.Standard(1, 16))
	u.Distribute("D", []dist.Format{dist.Block{}, dist.Collapsed{}}, tg)
	// ALIGN A(:) WITH D(:,*): replication (§5.1 example 1).
	u.Align(align.Spec{
		Alignee: "A", Axes: []align.Axis{align.Colon()},
		Base: "D", Subs: []align.Subscript{align.TripletSub(index.Unit(1, 16)), align.StarSub()},
	})
	m, _ := u.MappingOf("A")
	info := Describe(m)
	if !info.Replicated {
		t.Fatal("replication not detected")
	}
}

func TestDescribeInherited(t *testing.T) {
	// §8.2: inquiry functions determine every aspect of a
	// distribution passed into a procedure, even inherited section
	// mappings not expressible as format lists.
	u, tg := setup(t)
	u.DeclareArray("A", index.Standard(1, 1000))
	u.Distribute("A", []dist.Format{dist.Cyclic{K: 3}}, tg)
	tr, _ := index.NewTriplet(2, 996, 2)
	fr, err := u.Call("SUB", []core.DummySpec{{Name: "X", Mode: core.DummyInherit}},
		[]core.Actual{{Name: "A", Section: []index.Triplet{tr}}})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := fr.Callee.MappingOf("X")
	info := Describe(m)
	if !info.Inherited {
		t.Fatalf("info = %+v", info)
	}
	if info.NP != 8 {
		t.Fatalf("NP = %d", info.NP)
	}
	if !strings.Contains(info.Render(), "inherited") {
		t.Fatalf("Render = %q", info.Render())
	}
}

func TestOwnersOfSorted(t *testing.T) {
	u, tg := setup(t)
	u.DeclareArray("A", index.Standard(1, 8))
	u.Distribute("A", []dist.Format{dist.Block{}}, tg)
	m, _ := u.MappingOf("A")
	os, err := OwnersOf(m, index.Tuple{5})
	if err != nil || len(os) != 1 || os[0] != 5 {
		t.Fatalf("OwnersOf = %v, %v", os, err)
	}
}

// TestLocalExtents checks every processor's count against a
// brute-force count of per-element owner sets, for every format family
// over a two-dimensional target, a section target, a scalar replicated
// target and a replicating alignment; single-owner counts sum to the
// domain size.
func TestLocalExtents(t *testing.T) {
	sys, err := proc.NewSystem(8)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := sys.DeclareArray("G", index.Standard(1, 4, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	line, err := sys.DeclareArray("P", index.Standard(1, 8))
	if err != nil {
		t.Fatal(err)
	}
	odd, err := proc.SectionOf(line, index.Triplet{Low: 1, High: 8, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.DeclareScalar("REP", proc.ScalarReplicated)
	if err != nil {
		t.Fatal(err)
	}
	ind, err := dist.NewIndirect([]int{1, 4, 2, 3, 2, 1, 1, 3, 4, 2, 1, 2, 3, 4, 4, 1, 2, 3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	u := core.NewUnit("Q", sys)
	dom := index.Standard(1, 20, 1, 6)
	cases := []struct {
		name    string
		dom     index.Domain
		formats []dist.Format
		target  proc.Target
	}{
		{"BC", dom, []dist.Format{dist.Block{}, dist.Cyclic{K: 1}}, proc.Whole(grid)},
		{"VB", dom, []dist.Format{dist.BlockVienna{}, dist.Block{}}, proc.Whole(grid)},
		{"GV", dom, []dist.Format{dist.GeneralBlock{Bounds: []int{3, 9, 15}}, dist.BlockVienna{}}, proc.Whole(grid)},
		{"IC", dom, []dist.Format{ind, dist.Cyclic{K: 2}}, proc.Whole(grid)},
		{"SEC", index.Standard(1, 64), []dist.Format{dist.Cyclic{K: 3}}, odd},
		{"REPL", index.Standard(1, 8), []dist.Format{dist.Collapsed{}}, proc.Whole(rep)},
	}
	for _, c := range cases {
		if _, err := u.DeclareArray(c.name, c.dom); err != nil {
			t.Fatal(err)
		}
		if err := u.Distribute(c.name, c.formats, c.target); err != nil {
			t.Fatal(err)
		}
	}
	// ALIGN R(:) WITH BC(:,*): each element on every processor holding
	// its row of BC.
	u.DeclareArray("R", index.Standard(1, 20))
	if err := u.Align(align.Spec{
		Alignee: "R", Axes: []align.Axis{align.Colon()},
		Base: "BC", Subs: []align.Subscript{align.TripletSub(index.Unit(1, 20)), align.StarSub()},
	}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"BC", "VB", "GV", "IC", "SEC", "REPL", "R"} {
		m, err := u.MappingOf(name)
		if err != nil {
			t.Fatal(err)
		}
		counts, err := LocalExtents(m)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int, 9)
		replicated := false
		m.Domain().ForEach(func(tu index.Tuple) bool {
			os, err := m.AppendOwners(nil, tu)
			if err != nil {
				t.Fatal(err)
			}
			replicated = replicated || len(os) > 1
			for _, p := range os {
				want[p]++
			}
			return true
		})
		total := 0
		for p := 1; p <= 8; p++ {
			got := 0
			if p < len(counts) {
				got = counts[p]
			}
			if got != want[p] {
				t.Fatalf("%s: LocalExtents()[%d] = %d, brute force %d", name, p, got, want[p])
			}
			total += got
		}
		if len(counts) > 9 {
			t.Fatalf("%s: counts %v name processors past 8", name, counts)
		}
		if !replicated && total != m.Domain().Size() {
			t.Fatalf("%s: counts sum to %d, want %d", name, total, m.Domain().Size())
		}
		if (name == "REPL" || name == "R") != replicated {
			t.Fatalf("%s: replicated = %v", name, replicated)
		}
	}
}
