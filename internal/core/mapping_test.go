package core

import (
	"strings"
	"testing"

	"hpfnt/internal/align"
	"hpfnt/internal/dist"
	"hpfnt/internal/expr"
	"hpfnt/internal/index"
	"hpfnt/internal/proc"
)

func TestMappingDescriptions(t *testing.T) {
	u := newUnit(t, 4)
	tg := declTarget(t, u, "P", 1, 4)
	u.DeclareArray("B", index.Standard(1, 16))
	u.DeclareArray("A", index.Standard(1, 16))
	u.Distribute("B", []dist.Format{dist.Block{}}, tg)
	u.Align(identitySpec("A", "B", 1))
	bm, _ := u.MappingOf("B")
	if !strings.Contains(bm.Describe(), "BLOCK") {
		t.Fatalf("B description = %q", bm.Describe())
	}
	am, _ := u.MappingOf("A")
	if !strings.Contains(am.Describe(), "CONSTRUCT") {
		t.Fatalf("A description = %q", am.Describe())
	}
	fr, err := u.Call("SUB", []DummySpec{{Name: "X", Mode: DummyInherit}}, []Actual{{Name: "A"}})
	if err != nil {
		t.Fatal(err)
	}
	xm, _ := fr.Callee.MappingOf("X")
	if !strings.Contains(xm.Describe(), "INHERITED") {
		t.Fatalf("X description = %q", xm.Describe())
	}
}

func TestOwnerGridAndReplicatedGrid(t *testing.T) {
	u := newUnit(t, 4)
	tg := declTarget(t, u, "P", 1, 4)
	u.DeclareArray("B", index.Standard(1, 8))
	u.Distribute("B", []dist.Format{dist.Block{}}, tg)
	m, _ := u.MappingOf("B")
	g, err := OwnerGrid(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 8 || g[0] != 1 || g[7] != 4 {
		t.Fatalf("grid = %v", g)
	}
	// Replicated mapping: OwnerGrid must refuse, ReplicatedGrid must
	// produce full sets.
	u.DeclareArray("D", index.Standard(1, 8, 1, 4))
	u.DeclareArray("R", index.Standard(1, 8))
	u.Distribute("D", []dist.Format{dist.Block{}, dist.Collapsed{}}, tg)
	err = u.Align(align.Spec{
		Alignee: "R", Axes: []align.Axis{align.Colon()},
		Base: "D", Subs: []align.Subscript{align.TripletSub(index.Unit(1, 8)), align.StarSub()},
	})
	if err != nil {
		t.Fatal(err)
	}
	rm, _ := u.MappingOf("R")
	// D's columns are collapsed, so replication over columns still
	// yields one owner — use a distribution splitting columns
	// instead.
	u.DeclareArray("D2", index.Standard(1, 4, 1, 4))
	u.DeclareArray("R2", index.Standard(1, 4))
	g2, err := u.Sys.DeclareArray("G", index.Standard(1, 2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	u.Distribute("D2", []dist.Format{dist.Block{}, dist.Block{}}, proc.Whole(g2))
	err = u.Align(align.Spec{
		Alignee: "R2", Axes: []align.Axis{align.Colon()},
		Base: "D2", Subs: []align.Subscript{align.TripletSub(index.Unit(1, 4)), align.StarSub()},
	})
	if err != nil {
		t.Fatal(err)
	}
	rm2, _ := u.MappingOf("R2")
	if _, err := OwnerGrid(rm2); err == nil {
		t.Fatal("OwnerGrid must refuse replicated mappings")
	}
	rg, err := ReplicatedGrid(rm2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rg) != 4 || len(rg[0]) != 2 {
		t.Fatalf("replicated grid = %v", rg)
	}
	_ = rm
}

func TestSectionMappingErrors(t *testing.T) {
	u := newUnit(t, 4)
	tg := declTarget(t, u, "P", 1, 4)
	u.DeclareArray("B", index.Standard(1, 16))
	u.Distribute("B", []dist.Format{dist.Block{}}, tg)
	m, _ := u.MappingOf("B")
	if _, err := NewSectionMapping(index.Standard(1, 4, 1, 4), m); err == nil {
		t.Fatal("rank mismatch must fail")
	}
	sm, err := NewSectionMapping(index.New(index.Triplet{Low: 2, High: 16, Stride: 2}), m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sm.AppendOwners(nil, index.Tuple{99}); err == nil {
		t.Fatal("out-of-domain dummy index must fail")
	}
}

func TestRemapVolumeShapeMismatch(t *testing.T) {
	u := newUnit(t, 4)
	tg := declTarget(t, u, "P", 1, 4)
	u.DeclareArray("A", index.Standard(1, 8))
	u.DeclareArray("B", index.Standard(1, 16))
	u.Distribute("A", []dist.Format{dist.Block{}}, tg)
	u.Distribute("B", []dist.Format{dist.Block{}}, tg)
	am, _ := u.MappingOf("A")
	bm, _ := u.MappingOf("B")
	if vol, err := RemapVolume(am, bm); err == nil {
		t.Fatalf("different shapes must not compare: volume %d", vol)
	}
}

func TestDistributionOfAndBaseOf(t *testing.T) {
	u := newUnit(t, 4)
	tg := declTarget(t, u, "P", 1, 4)
	u.DeclareArray("B", index.Standard(1, 8))
	u.DeclareArray("A", index.Standard(1, 8))
	u.Distribute("B", []dist.Format{dist.Cyclic{K: 2}}, tg)
	u.Align(identitySpec("A", "B", 1))
	d, ok := u.DistributionOf("B")
	if !ok || d.Formats[0].Kind() != dist.KindCyclic {
		t.Fatalf("DistributionOf = %v, %v", d, ok)
	}
	if _, ok := u.DistributionOf("A"); ok {
		t.Fatal("secondary has no direct distribution")
	}
	if b := u.BaseOf("A"); b != "B" {
		t.Fatalf("BaseOf(A) = %q", b)
	}
	if b := u.BaseOf("B"); b != "" {
		t.Fatalf("primary has no base, BaseOf(B) = %q", b)
	}
	names := u.Names()
	if len(names) != 2 || names[0] != "B" {
		t.Fatalf("Names = %v", names)
	}
}

func TestImplicitTargetFactorization(t *testing.T) {
	// Implicit 2-D targets factor the processor count near-square.
	u := newUnit(t, 12)
	u.DeclareArray("A", index.Standard(1, 8, 1, 8))
	if err := u.Distribute("A", []dist.Format{dist.Block{}, dist.Block{}}, proc.Target{}); err != nil {
		t.Fatal(err)
	}
	d, ok := u.DistributionOf("A")
	if !ok {
		t.Fatal("no distribution")
	}
	if d.NP() != 12 {
		t.Fatalf("implicit target covers %d processors, want 12", d.NP())
	}
	tdom := d.Target.Domain()
	r, c := tdom.Extent(0), tdom.Extent(1)
	if r*c != 12 || r < c || r > 6 {
		t.Fatalf("factorization %dx%d not near-square", r, c)
	}
}

func TestBoundsEnvThroughAlign(t *testing.T) {
	// UBOUND through the unit's bounds environment.
	u := newUnit(t, 4)
	tg := declTarget(t, u, "P", 1, 4)
	u.DeclareArray("B", index.Standard(1, 10))
	u.DeclareArray("A", index.Standard(1, 10))
	u.Distribute("B", []dist.Format{dist.Block{}}, tg)
	err := u.Align(align.Spec{
		Alignee: "A", Axes: []align.Axis{align.DummyAxis("I")},
		Base: "B", Subs: []align.Subscript{align.ExprSub(
			expr.Min(expr.Add(expr.Dummy("I"), expr.Const(2)), expr.UBound("B", 1)))},
	})
	if err != nil {
		t.Fatal(err)
	}
	ao, err := u.Owners("A", index.Tuple{10})
	if err != nil {
		t.Fatal(err)
	}
	bo, _ := u.Owners("B", index.Tuple{10})
	if ao[0] != bo[0] {
		t.Fatal("MIN(I+2, UBOUND) clamp failed")
	}
}

func TestDummyModeStrings(t *testing.T) {
	for m, want := range map[DummyMode]string{
		DummyExplicit:     "explicit",
		DummyInherit:      "inherit",
		DummyInheritMatch: "inherit-matching",
		DummyImplicit:     "implicit",
	} {
		if m.String() != want {
			t.Fatalf("%d.String() = %q", int(m), m.String())
		}
	}
}

func TestImplicitTargetForInheritMatchSpec(t *testing.T) {
	// buildSpec with no TO-clause uses the callee's implicit target.
	u := newUnit(t, 8)
	tg := declTarget(t, u, "P", 1, 8)
	u.DeclareArray("A", index.Standard(1, 64))
	u.Distribute("A", []dist.Format{dist.Block{}}, tg)
	// The actual is BLOCK over P (all 8 APs); an inherit-match spec
	// (BLOCK) with implicit target over the same 8 APs matches
	// semantically.
	fr, err := u.Call("SUB", []DummySpec{{
		Name: "X", Mode: DummyInheritMatch, Formats: []dist.Format{dist.Block{}},
	}}, []Actual{{Name: "A"}})
	if err != nil {
		t.Fatalf("semantically matching implicit-target spec rejected: %v", err)
	}
	if err := fr.Return(); err != nil {
		t.Fatal(err)
	}
}
