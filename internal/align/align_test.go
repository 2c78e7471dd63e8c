package align

import (
	"strings"
	"testing"
	"testing/quick"

	"hpfnt/internal/expr"
	"hpfnt/internal/index"
)

func mustNormalize(t *testing.T, s Spec, alignee, base index.Domain) *Function {
	t.Helper()
	f, err := Normalize(s, alignee, base, nil)
	if err != nil {
		t.Fatalf("Normalize(%s): %v", s, err)
	}
	return f
}

func one(t *testing.T, f *Function, i ...int) index.Tuple {
	t.Helper()
	img, err := f.Image(index.Tuple(i))
	if err != nil {
		t.Fatalf("Image(%v): %v", i, err)
	}
	if len(img) != 1 {
		t.Fatalf("Image(%v) = %v, want singleton", i, img)
	}
	return img[0]
}

// TestPaperExample1 is §5.1 example 1:
//
//	REAL A(1:N), D(1:N,1:M)
//	!HPF$ ALIGN A(:) WITH D(:,*)
//
// which aligns a copy of A with every column of D:
// α(J) = {(J,k) | 1 <= k <= M}.
func TestPaperExample1(t *testing.T) {
	n, m := 6, 4
	a := index.Standard(1, n)
	d := index.Standard(1, n, 1, m)
	f := mustNormalize(t, Spec{
		Alignee: "A", Axes: []Axis{Colon()},
		Base: "D", Subs: []Subscript{TripletSub(index.Unit(1, n)), StarSub()},
	}, a, d)
	if !f.Replicates() {
		t.Fatal("expected replication")
	}
	if f.ImageSize() != m {
		t.Fatalf("ImageSize = %d, want %d", f.ImageSize(), m)
	}
	for j := 1; j <= n; j++ {
		img, err := f.Image(index.Tuple{j})
		if err != nil {
			t.Fatal(err)
		}
		if len(img) != m {
			t.Fatalf("len(Image(%d)) = %d", j, len(img))
		}
		seen := map[int]bool{}
		for _, tu := range img {
			if tu[0] != j {
				t.Fatalf("Image(%d) contains %v: first coordinate must be %d", j, tu, j)
			}
			seen[tu[1]] = true
		}
		for k := 1; k <= m; k++ {
			if !seen[k] {
				t.Fatalf("Image(%d) missing column %d", j, k)
			}
		}
	}
}

// TestPaperExample2 is §5.1 example 2:
//
//	REAL B(1:N,1:M), E(1:N)
//	!HPF$ ALIGN B(:,*) WITH E(:)
//
// a collapsing alignment: α(J1,J2) = {(J1)}.
func TestPaperExample2(t *testing.T) {
	n, m := 5, 3
	b := index.Standard(1, n, 1, m)
	e := index.Standard(1, n)
	f := mustNormalize(t, Spec{
		Alignee: "B", Axes: []Axis{Colon(), Star()},
		Base: "E", Subs: []Subscript{TripletSub(index.Unit(1, n))},
	}, b, e)
	if f.Replicates() {
		t.Fatal("collapse must not replicate")
	}
	collapsed := f.CollapsedDims()
	if len(collapsed) != 1 || collapsed[0] != 1 {
		t.Fatalf("CollapsedDims = %v", collapsed)
	}
	for j1 := 1; j1 <= n; j1++ {
		for j2 := 1; j2 <= m; j2++ {
			got := one(t, f, j1, j2)
			if got[0] != j1 {
				t.Fatalf("Image(%d,%d) = %v", j1, j2, got)
			}
		}
	}
}

// TestStaggeredGridAlignments checks the Thole example's alignment
// functions (§8.1.1): P(I,J) WITH T(2*I-1,2*J-1), U(I,J) WITH
// T(2*I,2*J-1), V(I,J) WITH T(2*I-1,2*J).
func TestStaggeredGridAlignments(t *testing.T) {
	n := 4
	tdom := index.Standard(0, 2*n, 0, 2*n)
	pdom := index.Standard(1, n, 1, n)
	udom := index.Standard(0, n, 1, n)

	p := mustNormalize(t, Spec{
		Alignee: "P", Axes: []Axis{DummyAxis("I"), DummyAxis("J")},
		Base: "T", Subs: []Subscript{
			ExprSub(expr.Affine(2, "I", -1)),
			ExprSub(expr.Affine(2, "J", -1)),
		},
	}, pdom, tdom)
	got := one(t, p, 2, 3)
	if got[0] != 3 || got[1] != 5 {
		t.Fatalf("P(2,3) -> %v, want (3,5)", got)
	}
	u := mustNormalize(t, Spec{
		Alignee: "U", Axes: []Axis{DummyAxis("I"), DummyAxis("J")},
		Base: "T", Subs: []Subscript{
			ExprSub(expr.Affine(2, "I", 0)),
			ExprSub(expr.Affine(2, "J", -1)),
		},
	}, udom, tdom)
	got = one(t, u, 0, 1)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("U(0,1) -> %v, want (0,1)", got)
	}
	// Disjointness: P and U images never coincide (odd vs even first
	// coordinate) — the paper's §8.1.1 point that all arrays align
	// with disjoint template elements.
	pi, _ := p.Image(index.Tuple{1, 1})
	ui, _ := u.Image(index.Tuple{1, 1})
	if pi[0].Equal(ui[0]) {
		t.Fatal("P and U images must be disjoint in the staggered grid")
	}
}

func TestColonToTripletNormalization(t *testing.T) {
	// ALIGN X(:) WITH A(2:996:2) — the §8.1.2 section alignment.
	x := index.Standard(1, 498)
	a := index.Standard(1, 1000)
	tr, _ := index.NewTriplet(2, 996, 2)
	f := mustNormalize(t, Spec{
		Alignee: "X", Axes: []Axis{Colon()},
		Base: "A", Subs: []Subscript{TripletSub(tr)},
	}, x, a)
	// Position J of X maps to (J-1)*2 + 2.
	for j := 1; j <= 498; j++ {
		got := one(t, f, j)
		if got[0] != (j-1)*2+2 {
			t.Fatalf("X(%d) -> %v", j, got)
		}
	}
}

func TestExtentCondition(t *testing.T) {
	// §5.1: U_i - L_i + 1 <= triplet positions. A 10-element alignee
	// cannot spread over a 5-position triplet.
	x := index.Standard(1, 10)
	a := index.Standard(1, 10)
	tr, _ := index.NewTriplet(1, 9, 2)
	_, err := Normalize(Spec{
		Alignee: "X", Axes: []Axis{Colon()},
		Base: "A", Subs: []Subscript{TripletSub(tr)},
	}, x, a, nil)
	if err == nil || !strings.Contains(err.Error(), "extent") {
		t.Fatalf("expected extent error, got %v", err)
	}
}

func TestSkewExcluded(t *testing.T) {
	// "Each J_i may occur in at most one y_j (this excludes the
	// possibility to specify skew alignments)."
	d2 := index.Standard(1, 4, 1, 4)
	_, err := Normalize(Spec{
		Alignee: "A", Axes: []Axis{DummyAxis("I"), DummyAxis("J")},
		Base: "B", Subs: []Subscript{
			ExprSub(expr.Dummy("I")),
			ExprSub(expr.Add(expr.Dummy("I"), expr.Const(1))),
		},
	}, d2, d2, nil)
	if err == nil || !strings.Contains(err.Error(), "skew") {
		t.Fatalf("expected skew error, got %v", err)
	}
}

func TestTwoDummiesInOneSubscript(t *testing.T) {
	d2 := index.Standard(1, 4, 1, 4)
	d1 := index.Standard(1, 4)
	_, err := Normalize(Spec{
		Alignee: "A", Axes: []Axis{DummyAxis("I"), DummyAxis("J")},
		Base: "B", Subs: []Subscript{ExprSub(expr.Add(expr.Dummy("I"), expr.Dummy("J")))},
	}, d2, d1, nil)
	if err == nil {
		t.Fatal("two dummies in one subscript must fail")
	}
}

func TestUndeclaredDummy(t *testing.T) {
	d1 := index.Standard(1, 4)
	_, err := Normalize(Spec{
		Alignee: "A", Axes: []Axis{DummyAxis("I")},
		Base: "B", Subs: []Subscript{ExprSub(expr.Dummy("K"))},
	}, d1, d1, nil)
	if err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Fatalf("expected undeclared dummy error, got %v", err)
	}
}

func TestDuplicateDummy(t *testing.T) {
	d2 := index.Standard(1, 4, 1, 4)
	_, err := Normalize(Spec{
		Alignee: "A", Axes: []Axis{DummyAxis("I"), DummyAxis("I")},
		Base: "B", Subs: []Subscript{ExprSub(expr.Dummy("I")), ExprSub(expr.Const(1))},
	}, d2, d2, nil)
	if err == nil {
		t.Fatal("duplicate dummy must fail")
	}
}

func TestColonTripletCountMismatch(t *testing.T) {
	d1 := index.Standard(1, 4)
	d2 := index.Standard(1, 4, 1, 4)
	// One ':' axis but no triplet subscripts.
	_, err := Normalize(Spec{
		Alignee: "A", Axes: []Axis{Colon()},
		Base: "B", Subs: []Subscript{ExprSub(expr.Const(1)), ExprSub(expr.Const(2))},
	}, d1, d2, nil)
	if err == nil {
		t.Fatal("colon without matching triplet must fail")
	}
}

func TestRankMismatches(t *testing.T) {
	d1 := index.Standard(1, 4)
	d2 := index.Standard(1, 4, 1, 4)
	if _, err := Normalize(Spec{Alignee: "A", Axes: []Axis{Colon()}, Base: "B",
		Subs: []Subscript{TripletSub(index.Unit(1, 4))}}, d2, d1, nil); err == nil {
		t.Fatal("axis count must match alignee rank")
	}
	if _, err := Normalize(Spec{Alignee: "A", Axes: []Axis{Colon(), Star()}, Base: "B",
		Subs: []Subscript{TripletSub(index.Unit(1, 4))}}, d2, d2, nil); err == nil {
		t.Fatal("subscript count must match base rank")
	}
}

func TestClampTruncation(t *testing.T) {
	// §5.1's ŷ = MIN(U_j, y) truncation: J+1 at the upper edge clamps.
	d1 := index.Standard(1, 5)
	f := mustNormalize(t, Spec{
		Alignee: "A", Axes: []Axis{DummyAxis("I")},
		Base: "B", Subs: []Subscript{ExprSub(expr.Affine(1, "I", 1))},
	}, d1, d1)
	got := one(t, f, 5)
	if got[0] != 5 {
		t.Fatalf("clamped image = %v, want 5", got)
	}
	got = one(t, f, 3)
	if got[0] != 4 {
		t.Fatalf("image = %v, want 4", got)
	}
	// Lower clamp.
	f2 := mustNormalize(t, Spec{
		Alignee: "A", Axes: []Axis{DummyAxis("I")},
		Base: "B", Subs: []Subscript{ExprSub(expr.Affine(1, "I", -3))},
	}, d1, d1)
	got = one(t, f2, 1)
	if got[0] != 1 {
		t.Fatalf("lower clamp image = %v, want 1", got)
	}
}

func TestMaxMinIntrinsics(t *testing.T) {
	// MAX(I-1,1): the truncation-at-the-edge alignment the paper
	// admits MAX/MIN for.
	d1 := index.Standard(1, 6)
	f := mustNormalize(t, Spec{
		Alignee: "A", Axes: []Axis{DummyAxis("I")},
		Base: "B", Subs: []Subscript{ExprSub(expr.Max(expr.Affine(1, "I", -1), expr.Const(1)))},
	}, d1, d1)
	if got := one(t, f, 1); got[0] != 1 {
		t.Fatalf("MAX(0,1) = %v", got)
	}
	if got := one(t, f, 4); got[0] != 3 {
		t.Fatalf("MAX(3,1) = %v", got)
	}
}

func TestBoundIntrinsicsInAlignment(t *testing.T) {
	d1 := index.Standard(1, 6)
	base := index.Standard(1, 10)
	bounds := func(array string, dim int) (index.Triplet, error) {
		return index.Unit(1, 10), nil
	}
	f, err := Normalize(Spec{
		Alignee: "A", Axes: []Axis{DummyAxis("I")},
		Base: "B", Subs: []Subscript{ExprSub(expr.Min(expr.Dummy("I"), expr.UBound("B", 1)))},
	}, d1, base, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if got := one(t, f, 3); got[0] != 3 {
		t.Fatalf("MIN(I,UBOUND) = %v", got)
	}
}

func TestIdentity(t *testing.T) {
	d := index.Standard(1, 4, 1, 5)
	f := Identity("A", d)
	d.ForEach(func(tu index.Tuple) bool {
		got := one(t, f, tu...)
		if !got.Equal(tu) {
			t.Fatalf("Identity(%v) = %v", tu, got)
		}
		return true
	})
}

func TestRepresentativeAgreesWithImage(t *testing.T) {
	n, m := 4, 3
	a := index.Standard(1, n)
	d := index.Standard(1, n, 1, m)
	f := mustNormalize(t, Spec{
		Alignee: "A", Axes: []Axis{Colon()},
		Base: "D", Subs: []Subscript{TripletSub(index.Unit(1, n)), StarSub()},
	}, a, d)
	for j := 1; j <= n; j++ {
		rep, err := f.Representative(index.Tuple{j})
		if err != nil {
			t.Fatal(err)
		}
		img, _ := f.Image(index.Tuple{j})
		if !rep.Equal(img[0]) {
			t.Fatalf("Representative(%d) = %v, first image %v", j, rep, img[0])
		}
	}
}

// TestRepresentativeAllocs pins per-element evaluation to compiled
// subscripts: Representative allocates its result tuple and nothing
// else, for affine subscripts and for MAX/MIN ones alike.
func TestRepresentativeAllocs(t *testing.T) {
	f := mustNormalize(t, Spec{
		Alignee: "A", Axes: []Axis{DummyAxis("I"), DummyAxis("J")},
		Base: "B", Subs: []Subscript{
			ExprSub(expr.Max(expr.Affine(2, "J", -3), expr.Const(1))),
			ExprSub(expr.Affine(1, "I", 1)), StarSub(),
		},
	}, index.Standard(1, 6, 1, 5), index.Standard(1, 10, 1, 8, 1, 3))
	at := index.Tuple{4, 2}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := f.Representative(at); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Fatalf("Representative allocates %v times per call, want at most 1", got)
	}
	if rep, _ := f.Representative(at); !rep.Equal(index.Tuple{1, 5, 1}) {
		t.Fatalf("Representative(%v) = %v, want (1,5,1)", at, rep)
	}
}

func TestSpecString(t *testing.T) {
	s := Spec{
		Alignee: "A", Axes: []Axis{Colon(), Star(), DummyAxis("I")},
		Base: "B", Subs: []Subscript{TripletSub(index.Unit(1, 4)), StarSub(), ExprSub(expr.Affine(2, "I", -1))},
	}
	want := "A(:,*,I) WITH B(1:4,*,2*I-1)"
	if got := s.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

// Property: for random affine alignments within bounds, every image
// element lies in the base domain (totality into P(I^B) - {∅}).
func TestImageTotalityProperty(t *testing.T) {
	f := func(aa int8, bb int8, nn uint8) bool {
		n := int(nn%20) + 2
		a := int(aa%3) + 1 // coeff 1..3
		b := int(bb % 5)
		alignee := index.Standard(1, n)
		base := index.Standard(1, 3*n+5)
		fn, err := Normalize(Spec{
			Alignee: "A", Axes: []Axis{DummyAxis("I")},
			Base: "B", Subs: []Subscript{ExprSub(expr.Affine(a, "I", b))},
		}, alignee, base, nil)
		if err != nil {
			return false
		}
		for i := 1; i <= n; i++ {
			img, err := fn.Image(index.Tuple{i})
			if err != nil || len(img) == 0 {
				return false
			}
			for _, tu := range img {
				if !base.Contains(tu) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestReplicationConstructProperty: under replication (base "*"),
// every image element shares the non-replicated coordinates and
// enumerates the full replicated extent.
func TestReplicationImageProperty(t *testing.T) {
	f := func(nn, mm uint8) bool {
		n := int(nn%12) + 2
		m := int(mm%6) + 2
		a := index.Standard(1, n)
		d := index.Standard(1, n, 1, m)
		fn, err := Normalize(Spec{
			Alignee: "A", Axes: []Axis{Colon()},
			Base: "D", Subs: []Subscript{TripletSub(index.Unit(1, n)), StarSub()},
		}, a, d, nil)
		if err != nil {
			return false
		}
		for j := 1; j <= n; j++ {
			img, err := fn.Image(index.Tuple{j})
			if err != nil || len(img) != m {
				return false
			}
			cols := map[int]bool{}
			for _, tu := range img {
				if tu[0] != j {
					return false
				}
				cols[tu[1]] = true
			}
			if len(cols) != m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeStrideTriplet(t *testing.T) {
	// ALIGN A(:) WITH B(8:1:-1): reversal alignment.
	a := index.Standard(1, 8)
	b := index.Standard(1, 8)
	tr, err := index.NewTriplet(8, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	f := mustNormalize(t, Spec{
		Alignee: "A", Axes: []Axis{Colon()},
		Base: "B", Subs: []Subscript{TripletSub(tr)},
	}, a, b)
	// Position J maps to (J-1)*(-1) + 8 = 9 - J.
	for j := 1; j <= 8; j++ {
		got := one(t, f, j)
		if got[0] != 9-j {
			t.Fatalf("A(%d) -> %v, want %d", j, got, 9-j)
		}
	}
}

func TestCollapsedDimsWithUnusedDummy(t *testing.T) {
	// A declared dummy that occurs in no base subscript collapses its
	// dimension, "replacing the '*' with an align-dummy not used
	// anywhere else ... would have the same effect".
	d2 := index.Standard(1, 4, 1, 4)
	d1 := index.Standard(1, 4)
	f := mustNormalize(t, Spec{
		Alignee: "A", Axes: []Axis{DummyAxis("I"), DummyAxis("K")},
		Base: "B", Subs: []Subscript{ExprSub(expr.Dummy("I"))},
	}, d2, d1)
	got := f.CollapsedDims()
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("CollapsedDims = %v", got)
	}
	// Same image regardless of the collapsed coordinate.
	a := one(t, f, 2, 1)
	b := one(t, f, 2, 4)
	if !a.Equal(b) {
		t.Fatalf("collapse failed: %v vs %v", a, b)
	}
}
