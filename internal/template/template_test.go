package template

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"hpfnt/internal/align"
	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/expr"
	"hpfnt/internal/index"
	"hpfnt/internal/proc"
)

func newModel(t *testing.T, np int) (*Model, proc.Target) {
	t.Helper()
	sys, err := proc.NewSystem(np)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := sys.DeclareArray("P", index.Standard(1, np))
	if err != nil {
		t.Fatal(err)
	}
	return NewModel(sys), proc.Whole(arr)
}

// chainOwners is the test-side oracle of Mapping.AppendOwners: it
// walks the alignment chain element by element, taking the union of
// the owners of α(i) one level down until it reaches a distribution,
// with no core.Construct in between.
func (m *Model) chainOwners(name string, i index.Tuple) ([]int, error) {
	return m.chainWalk(name, i, map[string]bool{})
}

func (m *Model) chainWalk(name string, i index.Tuple, seen map[string]bool) ([]int, error) {
	n, ok := m.arrays[name]
	if !ok {
		return nil, fmt.Errorf("template: unknown array %s", name)
	}
	if seen[name] {
		return nil, fmt.Errorf("template: alignment cycle through %s", name)
	}
	seen[name] = true
	var down func(index.Tuple) ([]int, error)
	switch {
	case n.d != nil:
		return n.d.Owners(i)
	case n.toTemplate != "":
		t := m.templates[n.toTemplate]
		if t.d == nil {
			return nil, fmt.Errorf("template: template %s has no distribution", t.Name)
		}
		down = t.d.Owners
	case n.toArray != "":
		down = func(j index.Tuple) ([]int, error) { return m.chainWalk(n.toArray, j, seen) }
	default:
		return nil, fmt.Errorf("template: array %s has neither distribution nor alignment", name)
	}
	img, err := n.alpha.Image(i)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, j := range img {
		os, err := down(j)
		if err != nil {
			return nil, err
		}
		for _, p := range os {
			if !slices.Contains(out, p) {
				out = append(out, p)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("template: empty owner set")
	}
	return out, nil
}

func grid(t *testing.T, m *Model, np, r, c int) proc.Target {
	t.Helper()
	arr, err := m.Sys.DeclareArray("G", index.Standard(1, r, 1, c))
	if err != nil {
		t.Fatal(err)
	}
	return proc.Whole(arr)
}

func TestTemplateDeclaration(t *testing.T) {
	m, _ := newModel(t, 4)
	tp, err := m.DeclareTemplate("T", index.Standard(0, 16, 0, 16))
	if err != nil {
		t.Fatal(err)
	}
	if tp.Tag == 0 {
		t.Fatal("templates must be tagged index domains (§8)")
	}
	if _, err := m.DeclareTemplate("T", index.Standard(1, 4)); err == nil {
		t.Fatal("duplicate template must fail")
	}
	// Distinct definitions get distinct tags even with equal domains.
	t2, _ := m.DeclareTemplate("T2", index.Standard(0, 16, 0, 16))
	if t2.Tag == tp.Tag {
		t.Fatal("distinct templates must have distinct tags")
	}
	if !m.HasTemplate("T") || m.HasTemplate("NOPE") {
		t.Fatal("HasTemplate wrong")
	}
	dom, err := m.TemplateDomain("T")
	if err != nil || dom.Size() != 17*17 {
		t.Fatalf("TemplateDomain: %v %v", dom, err)
	}
}

func TestTemplateRestrictions(t *testing.T) {
	// §8.2's two problems, executable.
	m, _ := newModel(t, 4)
	if err := m.AllocatableTemplate("T", 2); err == nil || !strings.Contains(err.Error(), "ALLOCATABLE") {
		t.Fatalf("allocatable template must fail with explanation, got %v", err)
	}
	m.DeclareTemplate("T", index.Standard(1, 8))
	if err := m.PassTemplate("T", "SUB"); err == nil || !strings.Contains(err.Error(), "first-class") {
		t.Fatalf("passing template must fail with explanation, got %v", err)
	}
}

func TestAlignWithTemplateAndResolve(t *testing.T) {
	m, tg := newModel(t, 4)
	m.DeclareTemplate("T", index.Standard(1, 16))
	m.DeclareArray("A", index.Standard(1, 8))
	err := m.AlignWithTemplate(align.Spec{
		Alignee: "A", Axes: []align.Axis{align.DummyAxis("I")},
		Base: "T", Subs: []align.Subscript{align.ExprSub(expr.Affine(2, "I", 0))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DistributeTemplate("T", []dist.Format{dist.Block{}}, tg); err != nil {
		t.Fatal(err)
	}
	// A(i) lives where T(2i) lives: BLOCK q=4.
	for i := 1; i <= 8; i++ {
		os, err := Mapping{M: m, Name: "A"}.AppendOwners(nil, index.Tuple{i})
		if err != nil {
			t.Fatal(err)
		}
		want := (2*i-1)/4 + 1
		if os[0] != want {
			t.Fatalf("A(%d) on %v, want %d", i, os, want)
		}
	}
}

func TestAlignmentChainsPermitted(t *testing.T) {
	// The HPF model allows trees of height > 1; the paper's model
	// does not. Verify the baseline supports chains.
	m, tg := newModel(t, 4)
	m.DeclareTemplate("T", index.Standard(1, 16))
	m.DeclareArray("A", index.Standard(1, 16))
	m.DeclareArray("B", index.Standard(1, 16))
	m.DeclareArray("C", index.Standard(1, 16))
	id := func(alignee, base string) align.Spec {
		return align.Spec{
			Alignee: alignee, Axes: []align.Axis{align.DummyAxis("I")},
			Base: base, Subs: []align.Subscript{align.ExprSub(expr.Dummy("I"))},
		}
	}
	if err := m.AlignWithTemplate(id("A", "T")); err != nil {
		t.Fatal(err)
	}
	if err := m.AlignWithArray(id("B", "A")); err != nil {
		t.Fatal(err)
	}
	if err := m.AlignWithArray(id("C", "B")); err != nil {
		t.Fatal(err)
	}
	m.DistributeTemplate("T", []dist.Format{dist.Cyclic{K: 1}}, tg)
	for i := 1; i <= 16; i++ {
		co, err := Mapping{M: m, Name: "C"}.AppendOwners(nil, index.Tuple{i})
		if err != nil {
			t.Fatal(err)
		}
		ao, _ := Mapping{M: m, Name: "A"}.AppendOwners(nil, index.Tuple{i})
		if co[0] != ao[0] {
			t.Fatalf("chain resolution broken at %d", i)
		}
	}
}

func TestCycleDetection(t *testing.T) {
	m, _ := newModel(t, 4)
	m.DeclareArray("A", index.Standard(1, 8))
	m.DeclareArray("B", index.Standard(1, 8))
	id := func(alignee, base string) align.Spec {
		return align.Spec{
			Alignee: alignee, Axes: []align.Axis{align.DummyAxis("I")},
			Base: base, Subs: []align.Subscript{align.ExprSub(expr.Dummy("I"))},
		}
	}
	m.AlignWithArray(id("A", "B"))
	m.AlignWithArray(id("B", "A"))
	if _, err := (Mapping{M: m, Name: "A"}).AppendOwners(nil, index.Tuple{1}); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle must be detected, got %v", err)
	}
}

func TestUndistributedTemplateFails(t *testing.T) {
	m, _ := newModel(t, 4)
	m.DeclareTemplate("T", index.Standard(1, 8))
	m.DeclareArray("A", index.Standard(1, 8))
	m.AlignWithTemplate(align.Spec{
		Alignee: "A", Axes: []align.Axis{align.DummyAxis("I")},
		Base: "T", Subs: []align.Subscript{align.ExprSub(expr.Dummy("I"))},
	})
	if _, err := (Mapping{M: m, Name: "A"}).AppendOwners(nil, index.Tuple{1}); err == nil {
		t.Fatal("owners without template distribution must fail")
	}
}

// TestStaggeredCyclicDisaster reproduces §8.1.1's observation: with
// T(0:2N,0:2N) distributed (CYCLIC,CYCLIC), all arrays land on
// different processors from their neighbors — "the worst possible
// effect, viz. different processor allocations for any two
// neighbors."
func TestStaggeredCyclicDisaster(t *testing.T) {
	n := 4
	sys, _ := proc.NewSystem(4)
	m := NewModel(sys)
	g := grid(t, m, 4, 2, 2)
	m.DeclareTemplate("T", index.Standard(0, 2*n, 0, 2*n))
	m.DeclareArray("P", index.Standard(1, n, 1, n))
	m.DeclareArray("U", index.Standard(0, n, 1, n))
	m.AlignWithTemplate(align.Spec{
		Alignee: "P", Axes: []align.Axis{align.DummyAxis("I"), align.DummyAxis("J")},
		Base: "T", Subs: []align.Subscript{
			align.ExprSub(expr.Affine(2, "I", -1)), align.ExprSub(expr.Affine(2, "J", -1))},
	})
	m.AlignWithTemplate(align.Spec{
		Alignee: "U", Axes: []align.Axis{align.DummyAxis("I"), align.DummyAxis("J")},
		Base: "T", Subs: []align.Subscript{
			align.ExprSub(expr.Affine(2, "I", 0)), align.ExprSub(expr.Affine(2, "J", -1))},
	})
	m.DistributeTemplate("T", []dist.Format{dist.Cyclic{K: 1}, dist.Cyclic{K: 1}}, g)
	// P(i,j) reads U(i-1,j) and U(i,j): under (CYCLIC,CYCLIC) on the
	// doubled template, both are always remote.
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			po, _ := Mapping{M: m, Name: "P"}.AppendOwners(nil, index.Tuple{i, j})
			uo1, _ := Mapping{M: m, Name: "U"}.AppendOwners(nil, index.Tuple{i - 1, j})
			uo2, _ := Mapping{M: m, Name: "U"}.AppendOwners(nil, index.Tuple{i, j})
			if po[0] == uo1[0] || po[0] == uo2[0] {
				t.Fatalf("expected all U neighbors of P(%d,%d) remote; got P:%v U:%v,%v", i, j, po, uo1, uo2)
			}
		}
	}
}

func TestDistributeArrayDirectly(t *testing.T) {
	// HPF also permits direct array distribution in the template model.
	m, tg := newModel(t, 4)
	m.DeclareArray("A", index.Standard(1, 16))
	if err := m.DistributeArray("A", []dist.Format{dist.Cyclic{K: 1}}, tg); err != nil {
		t.Fatal(err)
	}
	os, err := Mapping{M: m, Name: "A"}.AppendOwners(nil, index.Tuple{6})
	if err != nil || os[0] != 2 {
		t.Fatalf("A(6) on %v, %v", os, err)
	}
	// Aligned arrays cannot also be distributed directly.
	m.DeclareArray("B", index.Standard(1, 16))
	m.AlignWithArray(align.Spec{
		Alignee: "B", Axes: []align.Axis{align.DummyAxis("I")},
		Base: "A", Subs: []align.Subscript{align.ExprSub(expr.Dummy("I"))},
	})
	if err := m.DistributeArray("B", []dist.Format{dist.Block{}}, tg); err == nil {
		t.Fatal("distributing an aligned array must fail")
	}
	if err := m.DistributeArray("NOPE", []dist.Format{dist.Block{}}, tg); err == nil {
		t.Fatal("unknown array must fail")
	}
}

func TestTemplateMappingAdapter(t *testing.T) {
	m, tg := newModel(t, 4)
	m.DeclareTemplate("T", index.Standard(1, 16))
	m.DeclareArray("A", index.Standard(1, 16))
	m.AlignWithTemplate(align.Spec{
		Alignee: "A", Axes: []align.Axis{align.DummyAxis("I")},
		Base: "T", Subs: []align.Subscript{align.ExprSub(expr.Dummy("I"))},
	})
	m.DistributeTemplate("T", []dist.Format{dist.Block{}}, tg)
	tm := Mapping{M: m, Name: "A"}
	if tm.Domain().Size() != 16 {
		t.Fatalf("Domain = %v", tm.Domain())
	}
	os, err := tm.AppendOwners(nil, index.Tuple{16})
	if err != nil || os[0] != 4 {
		t.Fatalf("Owners = %v, %v", os, err)
	}
	if !strings.Contains(tm.Describe(), "template") {
		t.Fatalf("Describe = %q", tm.Describe())
	}
}

func TestTemplateBoundsEnvIntrinsics(t *testing.T) {
	// UBOUND over a template base resolves through the model's
	// bounds environment.
	m, tg := newModel(t, 4)
	m.DeclareTemplate("T", index.Standard(1, 12))
	m.DeclareArray("A", index.Standard(1, 12))
	err := m.AlignWithTemplate(align.Spec{
		Alignee: "A", Axes: []align.Axis{align.DummyAxis("I")},
		Base: "T", Subs: []align.Subscript{align.ExprSub(
			expr.Min(expr.Add(expr.Dummy("I"), expr.Const(3)), expr.UBound("T", 1)))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DistributeTemplate("T", []dist.Format{dist.Block{}}, tg); err != nil {
		t.Fatal(err)
	}
	o12, err := Mapping{M: m, Name: "A"}.AppendOwners(nil, index.Tuple{12})
	if err != nil {
		t.Fatal(err)
	}
	o9, _ := Mapping{M: m, Name: "A"}.AppendOwners(nil, index.Tuple{9})
	if o12[0] != o9[0] {
		t.Fatalf("clamped alignments must coincide: %v vs %v", o12, o9)
	}
}

func TestTemplateMappingOwnerTiles(t *testing.T) {
	// The bulk tile path through a height-3 alignment chain (with a
	// stride-2 alignment in the middle) must agree element-for-element
	// with the chain walk of the test-side oracle (Mapping.AppendOwners
	// and the tiles share one composed mapping, so comparing those two
	// would prove nothing).
	m, tg := newModel(t, 4)
	m.DeclareTemplate("T", index.Standard(1, 40))
	m.DeclareArray("A", index.Standard(1, 40))
	m.DeclareArray("B", index.Standard(1, 16))
	if err := m.AlignWithTemplate(align.Spec{
		Alignee: "A", Axes: []align.Axis{align.DummyAxis("I")},
		Base: "T", Subs: []align.Subscript{align.ExprSub(expr.Dummy("I"))},
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.AlignWithArray(align.Spec{
		Alignee: "B", Axes: []align.Axis{align.DummyAxis("I")},
		Base: "A", Subs: []align.Subscript{align.ExprSub(expr.Affine(2, "I", 3))},
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.DistributeTemplate("T", []dist.Format{dist.Cyclic{K: 3}}, tg); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"A", "B"} {
		tm := Mapping{M: m, Name: name}
		tiles, err := core.OwnerTiles(tm, tm.Domain())
		if err != nil {
			t.Fatalf("%s: OwnerTiles: %v", name, err)
		}
		total := 0
		for _, tl := range tiles {
			total += tl.Region.Size()
			tl.Region.ForEach(func(tu index.Tuple) bool {
				os, err := m.chainOwners(name, tu)
				if err != nil {
					t.Fatalf("%s: chainOwners(%s): %v", name, tu, err)
				}
				if len(os) != 1 || os[0] != tl.Proc {
					t.Fatalf("%s: tile owner %d at %s, oracle %v", name, tl.Proc, tu, os)
				}
				return true
			})
		}
		if total != tm.Domain().Size() {
			t.Fatalf("%s: tiles cover %d of %d elements", name, total, tm.Domain().Size())
		}
	}
}
