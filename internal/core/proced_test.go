package core

import (
	"strings"
	"testing"

	"hpfnt/internal/dist"
	"hpfnt/internal/index"
	"hpfnt/internal/proc"
)

// setup8112 builds the §8.1.2 situation: REAL A(1000) distributed
// CYCLIC(3), and the section A(2:996:2) to pass to SUB.
func setup8112(t *testing.T) (*Unit, proc.Target) {
	t.Helper()
	u := newUnit(t, 8)
	tg := declTarget(t, u, "P", 1, 8)
	if _, err := u.DeclareArray("A", index.Standard(1, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := u.Distribute("A", []dist.Format{dist.Cyclic{K: 3}}, tg); err != nil {
		t.Fatal(err)
	}
	return u, tg
}

func sectionTriplet(t *testing.T) index.Triplet {
	t.Helper()
	tr, err := index.NewTriplet(2, 996, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestInheritWholeArray(t *testing.T) {
	u, _ := setup8112(t)
	fr, err := u.Call("SUB", []DummySpec{{Name: "X", Mode: DummyInherit}}, []Actual{{Name: "A"}})
	if err != nil {
		t.Fatal(err)
	}
	b := fr.Bindings[0]
	if b.RemapIn != 0 {
		t.Fatalf("inherit moved %d elements on entry", b.RemapIn)
	}
	// The dummy sees the actual's owners element-for-element.
	am, _ := u.MappingOf("A")
	xm, _ := fr.Callee.MappingOf("X")
	for _, i := range []int{1, 3, 500, 1000} {
		ao, _ := am.AppendOwners(nil, index.Tuple{i})
		xo, err := xm.AppendOwners(nil, index.Tuple{i})
		if err != nil {
			t.Fatal(err)
		}
		if ao[0] != xo[0] {
			t.Fatalf("inherited owner of X(%d) = %v, actual A(%d) = %v", i, xo, i, ao)
		}
	}
	if err := fr.Return(); err != nil {
		t.Fatal(err)
	}
	if fr.Bindings[0].RemapOut != 0 {
		t.Fatalf("inherit moved %d elements on exit", fr.Bindings[0].RemapOut)
	}
}

func TestInheritSection(t *testing.T) {
	// §8.1.2: SUB(A(2:996:2)) with X inheriting its distribution —
	// the inherited mapping is generally not expressible as a format
	// list, but it is exactly the actual's mapping restricted to the
	// section.
	u, _ := setup8112(t)
	fr, err := u.Call("SUB", []DummySpec{{Name: "X", Mode: DummyInherit}},
		[]Actual{{Name: "A", Section: []index.Triplet{sectionTriplet(t)}}})
	if err != nil {
		t.Fatal(err)
	}
	xm, _ := fr.Callee.MappingOf("X")
	if xm.Domain().Size() != 498 {
		t.Fatalf("dummy domain size = %d", xm.Domain().Size())
	}
	am, _ := u.MappingOf("A")
	for k := 1; k <= 498; k++ {
		xo, err := xm.AppendOwners(nil, index.Tuple{k})
		if err != nil {
			t.Fatal(err)
		}
		ao, _ := am.AppendOwners(nil, index.Tuple{2 * k}) // X(k) is A(2k)
		if xo[0] != ao[0] {
			t.Fatalf("X(%d) on %v but A(%d) on %v", k, xo, 2*k, ao)
		}
	}
	if fr.Bindings[0].RemapIn != 0 {
		t.Fatal("inherit must not move data")
	}
}

func TestExplicitRemapAndRestore(t *testing.T) {
	// §7 mode 1: DISTRIBUTE X (BLOCK) — the actual is remapped on
	// entry and restored on exit.
	u, tg := setup8112(t)
	fr, err := u.Call("SUB", []DummySpec{{
		Name: "X", Mode: DummyExplicit,
		Formats: []dist.Format{dist.Block{}}, Target: tg,
	}}, []Actual{{Name: "A", Section: []index.Triplet{sectionTriplet(t)}}})
	if err != nil {
		t.Fatal(err)
	}
	b := fr.Bindings[0]
	if b.RemapIn == 0 {
		t.Fatal("explicit remap must move elements (cyclic(3) section vs block)")
	}
	if b.RemapIn > 498 {
		t.Fatalf("moved %d > section size", b.RemapIn)
	}
	if err := fr.Return(); err != nil {
		t.Fatal(err)
	}
	if fr.Bindings[0].RemapOut != b.RemapIn {
		t.Fatalf("restore volume %d != entry volume %d", fr.Bindings[0].RemapOut, b.RemapIn)
	}
	// Caller's mapping untouched throughout.
	am, _ := u.MappingOf("A")
	os, _ := am.AppendOwners(nil, index.Tuple{4})
	want := ((4+2)/3-1)%8 + 1 // CYCLIC(3) owner of index 4: seg ceil(4/3)-1 = 1 -> proc 2
	if os[0] != want {
		t.Fatalf("caller mapping disturbed: A(4) on %d, want %d", os[0], want)
	}
}

func TestInheritMatchingConformance(t *testing.T) {
	// §7 mode 3: DISTRIBUTE X *(CYCLIC(3)) — matches the whole-array
	// actual's distribution; a different spec is non-conforming.
	u, tg := setup8112(t)
	// Matching case: whole array, same format and target.
	fr, err := u.Call("SUB", []DummySpec{{
		Name: "X", Mode: DummyInheritMatch,
		Formats: []dist.Format{dist.Cyclic{K: 3}}, Target: tg,
	}}, []Actual{{Name: "A"}})
	if err != nil {
		t.Fatalf("matching inherit rejected: %v", err)
	}
	if fr.Bindings[0].RemapIn != 0 {
		t.Fatal("matching inherit must not move data")
	}
	// Mismatching case.
	_, err = u.Call("SUB", []DummySpec{{
		Name: "X", Mode: DummyInheritMatch,
		Formats: []dist.Format{dist.Block{}}, Target: tg,
	}}, []Actual{{Name: "A"}})
	if err == nil || !strings.Contains(err.Error(), "not HPF-conforming") {
		t.Fatalf("expected non-conforming error, got %v", err)
	}
}

func TestImplicitDummyInherits(t *testing.T) {
	u, _ := setup8112(t)
	fr, err := u.Call("SUB", []DummySpec{{Name: "X", Mode: DummyImplicit}}, []Actual{{Name: "A"}})
	if err != nil {
		t.Fatal(err)
	}
	if fr.Bindings[0].RemapIn != 0 {
		t.Fatal("implicit mode (inheritance) must not move data")
	}
}

func TestDummyRedistributionRestoredOnExit(t *testing.T) {
	// §7: "If a dummy argument is redistributed or realigned during
	// execution of the procedure, then the original distribution must
	// be restored on procedure exit."
	u, tg := setup8112(t)
	fr, err := u.Call("SUB", []DummySpec{{Name: "X", Mode: DummyInherit, Dynamic: true}},
		[]Actual{{Name: "A"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.RedistributeDummy("X", []dist.Format{dist.Block{}}, tg); err != nil {
		t.Fatal(err)
	}
	if err := fr.Return(); err != nil {
		t.Fatal(err)
	}
	if fr.Bindings[0].RemapOut == 0 {
		t.Fatal("restore after dummy redistribution must move data")
	}
}

func TestDummyRedistributionRequiresDynamic(t *testing.T) {
	u, tg := setup8112(t)
	fr, _ := u.Call("SUB", []DummySpec{{Name: "X", Mode: DummyInherit}}, []Actual{{Name: "A"}})
	if err := fr.RedistributeDummy("X", []dist.Format{dist.Block{}}, tg); err == nil {
		t.Fatal("redistribution of non-DYNAMIC dummy must fail")
	}
}

func TestLocalAlignedToDummy(t *testing.T) {
	// §7: "a local data object may be aligned to a dummy argument."
	u, _ := setup8112(t)
	fr, err := u.Call("SUB", []DummySpec{{Name: "X", Mode: DummyInherit}}, []Actual{{Name: "A"}})
	if err != nil {
		t.Fatal(err)
	}
	callee := fr.Callee
	if _, err := callee.DeclareArray("L", index.Standard(1, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := callee.Align(identitySpec("L", "X", 1)); err != nil {
		t.Fatal(err)
	}
	lo, err := callee.Owners("L", index.Tuple{7})
	if err != nil {
		t.Fatal(err)
	}
	xo, _ := callee.Owners("X", index.Tuple{7})
	if lo[0] != xo[0] {
		t.Fatal("local array must be collocated with the dummy")
	}
}

func TestCallerForestIsolation(t *testing.T) {
	// §7: the alignment tree is local to a procedure; an actual
	// argument is disconnected from its caller tree during the call.
	u, _ := setup8112(t)
	u.DeclareArray("W", index.Standard(1, 1000))
	u.Align(identitySpec("W", "A", 1))
	fr, err := u.Call("SUB", []DummySpec{{Name: "X", Mode: DummyInherit}}, []Actual{{Name: "A"}})
	if err != nil {
		t.Fatal(err)
	}
	// The callee knows nothing about W.
	if _, ok := fr.Callee.Array("W"); ok {
		t.Fatal("caller-local array leaked into callee")
	}
	// The caller's edge W -> A is untouched.
	if u.BaseOf("W") != "A" {
		t.Fatal("caller forest modified by call")
	}
}

func TestCallArgumentCountMismatch(t *testing.T) {
	u, _ := setup8112(t)
	if _, err := u.Call("SUB", []DummySpec{{Name: "X", Mode: DummyInherit}}, nil); err == nil {
		t.Fatal("argument count mismatch must fail")
	}
}

func TestDoubleReturnFails(t *testing.T) {
	u, _ := setup8112(t)
	fr, _ := u.Call("SUB", []DummySpec{{Name: "X", Mode: DummyInherit}}, []Actual{{Name: "A"}})
	if err := fr.Return(); err != nil {
		t.Fatal(err)
	}
	if err := fr.Return(); err == nil {
		t.Fatal("double return must fail")
	}
}

func TestEmptySectionRejected(t *testing.T) {
	u, _ := setup8112(t)
	if _, err := u.Call("SUB", []DummySpec{{Name: "X", Mode: DummyInherit}},
		[]Actual{{Name: "A", Section: []index.Triplet{index.Unit(5, 4)}}}); err == nil {
		t.Fatal("empty section must fail")
	}
}
