package core

import (
	"strings"
	"testing"
	"testing/quick"

	"hpfnt/internal/align"
	"hpfnt/internal/dist"
	"hpfnt/internal/expr"
	"hpfnt/internal/index"
	"hpfnt/internal/proc"
)

func newUnit(t *testing.T, np int) *Unit {
	t.Helper()
	sys, err := proc.NewSystem(np)
	if err != nil {
		t.Fatal(err)
	}
	return NewUnit("TEST", sys)
}

func declTarget(t *testing.T, u *Unit, name string, bounds ...int) proc.Target {
	t.Helper()
	a, err := u.Sys.DeclareArray(name, index.Standard(bounds...))
	if err != nil {
		t.Fatal(err)
	}
	return proc.Whole(a)
}

func identitySpec(alignee, base string, rank int) align.Spec {
	axes := make([]align.Axis, rank)
	subs := make([]align.Subscript, rank)
	for i := range axes {
		d := string(rune('I' + i))
		axes[i] = align.DummyAxis(d)
		subs[i] = align.ExprSub(expr.Dummy(d))
	}
	return align.Spec{Alignee: alignee, Axes: axes, Base: base, Subs: subs}
}

func TestDeclareAndDistribute(t *testing.T) {
	u := newUnit(t, 4)
	tg := declTarget(t, u, "P", 1, 4)
	if _, err := u.DeclareArray("A", index.Standard(1, 16)); err != nil {
		t.Fatal(err)
	}
	if err := u.Distribute("A", []dist.Format{dist.Block{}}, tg); err != nil {
		t.Fatal(err)
	}
	os, err := u.Owners("A", index.Tuple{5})
	if err != nil || len(os) != 1 || os[0] != 2 {
		t.Fatalf("Owners = %v, %v", os, err)
	}
	// Double distribution is an error.
	if err := u.Distribute("A", []dist.Format{dist.Cyclic{K: 1}}, tg); err == nil {
		t.Fatal("second DISTRIBUTE must fail")
	}
}

func TestImplicitDistribution(t *testing.T) {
	u := newUnit(t, 4)
	if _, err := u.DeclareArray("A", index.Standard(1, 8, 1, 8)); err != nil {
		t.Fatal(err)
	}
	// No DISTRIBUTE directive: the compiler implicitly distributes.
	m, err := u.MappingOf("A")
	if err != nil {
		t.Fatal(err)
	}
	os, err := m.AppendOwners(nil, index.Tuple{1, 1})
	if err != nil || len(os) != 1 {
		t.Fatalf("implicit owners: %v %v", os, err)
	}
	os2, _ := m.AppendOwners(nil, index.Tuple{8, 1})
	if os[0] == os2[0] {
		t.Fatal("implicit BLOCK should split the first dimension")
	}
}

// TestConstructCollocation verifies Definition 4's guarantee: if i
// maps to j via α, then A(i) and B(j) reside in the same processor
// under any distribution of B.
func TestConstructCollocation(t *testing.T) {
	u := newUnit(t, 4)
	tg := declTarget(t, u, "P", 1, 4)
	u.DeclareArray("B", index.Standard(1, 16))
	u.DeclareArray("A", index.Standard(1, 8))
	if err := u.Distribute("B", []dist.Format{dist.Cyclic{K: 3}}, tg); err != nil {
		t.Fatal(err)
	}
	// ALIGN A(I) WITH B(2*I).
	spec := align.Spec{
		Alignee: "A", Axes: []align.Axis{align.DummyAxis("I")},
		Base: "B", Subs: []align.Subscript{align.ExprSub(expr.Affine(2, "I", 0))},
	}
	if err := u.Align(spec); err != nil {
		t.Fatal(err)
	}
	bm, _ := u.MappingOf("B")
	am, _ := u.MappingOf("A")
	for i := 1; i <= 8; i++ {
		ao, err := am.AppendOwners(nil, index.Tuple{i})
		if err != nil {
			t.Fatal(err)
		}
		bo, err := bm.AppendOwners(nil, index.Tuple{2 * i})
		if err != nil {
			t.Fatal(err)
		}
		if ao[0] != bo[0] {
			t.Fatalf("collocation violated: A(%d) on %v, B(%d) on %v", i, ao, 2*i, bo)
		}
	}
}

func TestForestConstraints(t *testing.T) {
	u := newUnit(t, 4)
	u.DeclareArray("A", index.Standard(1, 8))
	u.DeclareArray("B", index.Standard(1, 8))
	u.DeclareArray("C", index.Standard(1, 8))
	if err := u.Align(identitySpec("A", "B", 1)); err != nil {
		t.Fatal(err)
	}
	// Constraint: an alignee has exactly one base.
	if err := u.Align(identitySpec("A", "C", 1)); err == nil {
		t.Fatal("second alignment of A must fail")
	}
	// Constraint: a base must not itself be aligned (height <= 1).
	if err := u.Align(identitySpec("C", "A", 1)); err == nil {
		t.Fatal("aligning to a secondary must fail")
	}
	// Aligning B (a base with children) to C would give height 2.
	if err := u.Align(identitySpec("B", "C", 1)); err == nil {
		t.Fatal("aligning a base must fail")
	}
	// Self-alignment.
	if err := u.Align(identitySpec("C", "C", 1)); err == nil {
		t.Fatal("self-alignment must fail")
	}
	if err := u.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	edges := u.Forest()
	if len(edges) != 1 || edges[0] != (Edge{Alignee: "A", Base: "B"}) {
		t.Fatalf("Forest = %v", edges)
	}
	if u.BaseOf("A") != "B" || u.BaseOf("B") != "" {
		t.Fatal("BaseOf wrong")
	}
	if got := u.SecondariesOf("B"); len(got) != 1 || got[0] != "A" {
		t.Fatalf("SecondariesOf = %v", got)
	}
}

func TestAlignedArrayCannotBeDistributed(t *testing.T) {
	u := newUnit(t, 4)
	tg := declTarget(t, u, "P", 1, 4)
	u.DeclareArray("A", index.Standard(1, 8))
	u.DeclareArray("B", index.Standard(1, 8))
	u.Align(identitySpec("A", "B", 1))
	if err := u.Distribute("A", []dist.Format{dist.Block{}}, tg); err == nil {
		t.Fatal("DISTRIBUTE of a secondary must fail")
	}
}

// TestRedistributePrimaryFollowers: §4.2 — every array aligned to B
// is redistributed so the alignment relationship stays invariant.
func TestRedistributePrimaryFollowers(t *testing.T) {
	u := newUnit(t, 4)
	tg := declTarget(t, u, "P", 1, 4)
	u.DeclareArray("B", index.Standard(1, 16))
	u.DeclareArray("A", index.Standard(1, 16))
	u.SetDynamic("B")
	u.Distribute("B", []dist.Format{dist.Block{}}, tg)
	u.Align(identitySpec("A", "B", 1))

	before, _ := u.Owners("A", index.Tuple{5})
	if err := u.Redistribute("B", []dist.Format{dist.Cyclic{K: 1}}, tg); err != nil {
		t.Fatal(err)
	}
	afterA, _ := u.Owners("A", index.Tuple{5})
	afterB, _ := u.Owners("B", index.Tuple{5})
	if afterA[0] != afterB[0] {
		t.Fatal("follower did not track the new distribution")
	}
	if before[0] == afterA[0] && before[0] == 2 {
		// BLOCK(16/4): 5 -> proc 2; CYCLIC: 5 -> proc 1. They must differ.
		t.Fatal("redistribution had no effect")
	}
	if u.BaseOf("A") != "B" {
		t.Fatal("alignment edge must survive redistribution of the primary")
	}
	if err := u.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRedistributeSecondaryDetaches: §4.2 — redistributing a
// secondary disconnects it into a degenerate tree.
func TestRedistributeSecondaryDetaches(t *testing.T) {
	u := newUnit(t, 4)
	tg := declTarget(t, u, "P", 1, 4)
	u.DeclareArray("B", index.Standard(1, 16))
	u.DeclareArray("A", index.Standard(1, 16))
	u.SetDynamic("A")
	u.Distribute("B", []dist.Format{dist.Block{}}, tg)
	u.Align(identitySpec("A", "B", 1))
	if err := u.Redistribute("A", []dist.Format{dist.Cyclic{K: 1}}, tg); err != nil {
		t.Fatal(err)
	}
	if u.BaseOf("A") != "" {
		t.Fatal("A must be detached")
	}
	if got := u.SecondariesOf("B"); len(got) != 0 {
		t.Fatalf("B still has children %v", got)
	}
	if !u.IsPrimary("A") {
		t.Fatal("A must be primary now")
	}
	if err := u.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRedistributeRequiresDynamic(t *testing.T) {
	u := newUnit(t, 4)
	tg := declTarget(t, u, "P", 1, 4)
	u.DeclareArray("B", index.Standard(1, 16))
	u.Distribute("B", []dist.Format{dist.Block{}}, tg)
	if err := u.Redistribute("B", []dist.Format{dist.Cyclic{K: 1}}, tg); err == nil {
		t.Fatal("REDISTRIBUTE of non-DYNAMIC array must fail")
	}
}

// TestRealignSurgery: the three steps of §5.2.
func TestRealignSurgery(t *testing.T) {
	u := newUnit(t, 4)
	tg := declTarget(t, u, "P", 1, 4)
	u.DeclareArray("B", index.Standard(1, 16))
	u.DeclareArray("C", index.Standard(1, 16))
	u.DeclareArray("A", index.Standard(1, 16))
	u.DeclareArray("D", index.Standard(1, 16))
	u.SetDynamic("A")
	u.Distribute("B", []dist.Format{dist.Block{}}, tg)
	u.Distribute("C", []dist.Format{dist.Cyclic{K: 1}}, tg)

	// A is primary with child D; realigning A must promote D to a
	// degenerate tree with its current distribution (step 1).
	u.SetDynamic("D")
	u.Align(identitySpec("D", "A", 1))
	dBefore := map[int][]int{}
	for i := 1; i <= 16; i++ {
		os, _ := u.Owners("D", index.Tuple{i})
		dBefore[i] = os
	}
	if err := u.Realign(identitySpec("A", "B", 1)); err != nil {
		t.Fatal(err)
	}
	if u.BaseOf("A") != "B" {
		t.Fatalf("A base = %q", u.BaseOf("A"))
	}
	if !u.IsPrimary("D") {
		t.Fatal("D must be promoted to primary")
	}
	// D keeps its distribution from before the surgery.
	for i := 1; i <= 16; i++ {
		os, err := u.Owners("D", index.Tuple{i})
		if err != nil {
			t.Fatal(err)
		}
		if os[0] != dBefore[i][0] {
			t.Fatalf("D(%d) moved from %v to %v during promotion", i, dBefore[i], os)
		}
	}
	// Step: realign a secondary — A moves from B to C.
	if err := u.Realign(identitySpec("A", "C", 1)); err != nil {
		t.Fatal(err)
	}
	if u.BaseOf("A") != "C" {
		t.Fatalf("A base = %q", u.BaseOf("A"))
	}
	if got := u.SecondariesOf("B"); len(got) != 0 {
		t.Fatalf("B children = %v", got)
	}
	// δ_A = CONSTRUCT(α, δ_C): A follows C's cyclic distribution.
	ao, _ := u.Owners("A", index.Tuple{5})
	co, _ := u.Owners("C", index.Tuple{5})
	if ao[0] != co[0] {
		t.Fatal("A must be collocated with C after realign")
	}
	if err := u.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRealignRequiresDynamic(t *testing.T) {
	u := newUnit(t, 4)
	u.DeclareArray("A", index.Standard(1, 8))
	u.DeclareArray("B", index.Standard(1, 8))
	if err := u.Realign(identitySpec("A", "B", 1)); err == nil {
		t.Fatal("REALIGN of non-DYNAMIC must fail")
	}
}

func TestRealignToSecondaryFails(t *testing.T) {
	u := newUnit(t, 4)
	u.DeclareArray("A", index.Standard(1, 8))
	u.DeclareArray("B", index.Standard(1, 8))
	u.DeclareArray("C", index.Standard(1, 8))
	u.SetDynamic("C")
	u.Align(identitySpec("A", "B", 1))
	if err := u.Realign(identitySpec("C", "A", 1)); err == nil {
		t.Fatal("REALIGN with secondary base must fail")
	}
}

// TestAllocatableLifecycle follows the §6 example's structure.
func TestAllocatableLifecycle(t *testing.T) {
	u := newUnit(t, 4)
	tg := declTarget(t, u, "PR", 1, 4)
	if _, err := u.DeclareAllocatable("C", 1); err != nil {
		t.Fatal(err)
	}
	u.SetDynamic("C")
	// Specification-part DISTRIBUTE on an uncreated allocatable is
	// deferred.
	if err := u.Distribute("C", []dist.Format{dist.Block{}}, tg); err != nil {
		t.Fatal(err)
	}
	if _, err := u.MappingOf("C"); err == nil {
		t.Fatal("mapping of uncreated allocatable must fail")
	}
	if err := u.Allocate("C", index.Standard(1, 100)); err != nil {
		t.Fatal(err)
	}
	os, err := u.Owners("C", index.Tuple{1})
	if err != nil || os[0] != 1 {
		t.Fatalf("after allocate: %v %v", os, err)
	}
	// Executable REDISTRIBUTE to cyclic (as in the paper's example).
	if err := u.Redistribute("C", []dist.Format{dist.Cyclic{K: 1}}, tg); err != nil {
		t.Fatal(err)
	}
	os, _ = u.Owners("C", index.Tuple{2})
	if os[0] != 2 {
		t.Fatalf("after redistribute: %v", os)
	}
	if err := u.Deallocate("C"); err != nil {
		t.Fatal(err)
	}
	if _, err := u.MappingOf("C"); err == nil {
		t.Fatal("mapping of deallocated array must fail")
	}
	// Re-allocation with a different shape applies the deferred
	// distribution again ("valid for each allocation instance").
	if err := u.Allocate("C", index.Standard(1, 40)); err != nil {
		t.Fatal(err)
	}
	os, _ = u.Owners("C", index.Tuple{40})
	if os[0] != 4 {
		t.Fatalf("re-allocation owners: %v", os)
	}
}

func TestDeallocatePromotesDependents(t *testing.T) {
	// §6: at DEALLOCATE, each array directly aligned to B becomes a
	// new tree with primary A.
	u := newUnit(t, 4)
	tg := declTarget(t, u, "P", 1, 4)
	u.DeclareAllocatable("B", 1)
	u.DeclareAllocatable("A", 1)
	u.Distribute("B", []dist.Format{dist.Block{}}, tg)
	u.Allocate("B", index.Standard(1, 16))
	u.Allocate("A", index.Standard(1, 16))
	// Executable-style alignment via Realign needs DYNAMIC; use the
	// spec-part Align on the created allocatable instead.
	if err := u.Align(identitySpec("A", "B", 1)); err != nil {
		t.Fatal(err)
	}
	before, _ := u.Owners("A", index.Tuple{7})
	if err := u.Deallocate("B"); err != nil {
		t.Fatal(err)
	}
	if !u.IsPrimary("A") {
		t.Fatal("A must be primary after base deallocation")
	}
	after, err := u.Owners("A", index.Tuple{7})
	if err != nil {
		t.Fatal(err)
	}
	if after[0] != before[0] {
		t.Fatal("A must keep its current distribution when promoted")
	}
	if err := u.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNonAllocatableCannotAlignToAllocatable(t *testing.T) {
	// §6: "a local array which is not declared ALLOCATABLE cannot be
	// aligned in the specification-part of a program unit to an
	// allocatable array".
	u := newUnit(t, 4)
	u.DeclareAllocatable("B", 1)
	u.DeclareArray("A", index.Standard(1, 8))
	if err := u.Align(identitySpec("A", "B", 1)); err == nil {
		t.Fatal("expected §6 restriction error")
	}
}

func TestAllocateErrors(t *testing.T) {
	u := newUnit(t, 4)
	u.DeclareArray("S", index.Standard(1, 4))
	u.DeclareAllocatable("A", 2)
	if err := u.Allocate("S", index.Standard(1, 4)); err == nil {
		t.Fatal("ALLOCATE of non-allocatable must fail")
	}
	if err := u.Allocate("A", index.Standard(1, 4)); err == nil {
		t.Fatal("rank mismatch must fail")
	}
	if err := u.Allocate("A", index.Standard(1, 4, 1, 4)); err != nil {
		t.Fatal(err)
	}
	if err := u.Allocate("A", index.Standard(1, 4, 1, 4)); err == nil {
		t.Fatal("double ALLOCATE must fail")
	}
	if err := u.Deallocate("S"); err == nil {
		t.Fatal("DEALLOCATE of non-allocatable must fail")
	}
}

func TestScalarsViaRankZero(t *testing.T) {
	u := newUnit(t, 4)
	if _, err := u.DeclareArray("S", index.Scalar()); err != nil {
		t.Fatal(err)
	}
	m, err := u.MappingOf("S")
	if err != nil {
		t.Fatal(err)
	}
	os, err := m.AppendOwners(nil, index.Tuple{})
	if err != nil || len(os) < 1 {
		t.Fatalf("scalar owners: %v %v", os, err)
	}
}

func TestRemapVolume(t *testing.T) {
	u := newUnit(t, 4)
	tg := declTarget(t, u, "P", 1, 4)
	d1, _ := dist.New(index.Standard(1, 16), []dist.Format{dist.Block{}}, tg)
	d2, _ := dist.New(index.Standard(1, 16), []dist.Format{dist.Cyclic{K: 1}}, tg)
	m1, m2 := DistMapping{D: d1}, DistMapping{D: d2}
	vol, err := RemapVolume(m1, m2)
	if err != nil {
		t.Fatal(err)
	}
	// BLOCK 16/4: blocks of 4. CYCLIC: round robin. Only elements
	// whose owners coincide stay: count them directly.
	stay := 0
	for i := 1; i <= 16; i++ {
		if (i-1)/4 == (i-1)%4 {
			stay++
		}
	}
	if vol != 16-stay {
		t.Fatalf("RemapVolume = %d, want %d", vol, 16-stay)
	}
	if v, _ := RemapVolume(m1, m1); v != 0 {
		t.Fatalf("self remap volume = %d", v)
	}
}

// TestRemapVolumeOwnerOrder: owner sets are sets. A(I) WITH B(I,*)
// lists A(i)'s owners in the order of B's second dimension, and a
// base distributed onto the grid's columns reversed lists the same
// owners back to front; no element moves.
func TestRemapVolumeOwnerOrder(t *testing.T) {
	sys, err := proc.NewSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sys.DeclareArray("Q", index.Standard(1, 2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	rev, err := proc.SectionOf(q, index.Unit(1, 2), index.Triplet{Low: 2, High: 1, Stride: -1})
	if err != nil {
		t.Fatal(err)
	}
	baseDom, dom := index.Standard(1, 4, 1, 2), index.Standard(1, 4)
	alpha, err := align.Normalize(align.Spec{
		Alignee: "A", Axes: []align.Axis{align.Colon()},
		Base: "B", Subs: []align.Subscript{align.TripletSub(index.Unit(1, 4)), align.StarSub()},
	}, dom, baseDom, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ms [2]ElementMapping
	for k, tg := range []proc.Target{proc.Whole(q), rev} {
		d, err := dist.New(baseDom, []dist.Format{dist.Block{}, dist.Block{}}, tg)
		if err != nil {
			t.Fatal(err)
		}
		ms[k] = Construct(alpha, DistMapping{D: d})
	}
	a, _ := ms[0].AppendOwners(nil, index.Tuple{1})
	b, _ := ms[1].AppendOwners(nil, index.Tuple{1})
	if len(a) != 2 || len(b) != 2 || a[0] != b[1] || a[1] != b[0] {
		t.Fatalf("A(1) owners %v and %v: want one pair in both orders", a, b)
	}
	if v, err := RemapVolume(ms[0], ms[1]); err != nil || v != 0 {
		t.Fatalf("RemapVolume = %d, %v; want 0", v, err)
	}
}

// Property: CONSTRUCT collocation holds for random affine alignments
// and random block/cyclic base distributions.
func TestConstructCollocationProperty(t *testing.T) {
	sys, _ := proc.NewSystem(8)
	arr, _ := sys.DeclareArray("P", index.Standard(1, 8))
	tg := proc.Whole(arr)
	f := func(useCyclic bool, kk, nn, cc uint8) bool {
		n := int(nn%24) + 4
		c := int(cc%2) + 1 // coeff 1..2
		var fm dist.Format = dist.Block{}
		if useCyclic {
			fm = dist.Cyclic{K: int(kk%4) + 1}
		}
		baseDom := index.Standard(1, 2*n)
		d, err := dist.New(baseDom, []dist.Format{fm}, tg)
		if err != nil {
			return false
		}
		alpha, err := align.Normalize(align.Spec{
			Alignee: "A", Axes: []align.Axis{align.DummyAxis("I")},
			Base: "B", Subs: []align.Subscript{align.ExprSub(expr.Affine(c, "I", 0))},
		}, index.Standard(1, n), baseDom, nil)
		if err != nil {
			return false
		}
		cm := Construct(alpha, DistMapping{D: d})
		for i := 1; i <= n; i++ {
			ao, err := cm.AppendOwners(nil, index.Tuple{i})
			if err != nil {
				return false
			}
			bo, err := d.Owners(index.Tuple{c * i})
			if err != nil {
				return false
			}
			if ao[0] != bo[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDescribeOutput(t *testing.T) {
	u := newUnit(t, 4)
	tg := declTarget(t, u, "P", 1, 4)
	u.DeclareArray("B", index.Standard(1, 8))
	u.DeclareArray("A", index.Standard(1, 8))
	u.DeclareAllocatable("Z", 1)
	u.Distribute("B", []dist.Format{dist.Block{}}, tg)
	u.Align(identitySpec("A", "B", 1))
	d := u.Describe()
	for _, want := range []string{"B: PRIMARY", "A: ALIGNED", "Z: (not created)"} {
		if !strings.Contains(d, want) {
			t.Fatalf("Describe missing %q:\n%s", want, d)
		}
	}
}
