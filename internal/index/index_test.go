package index

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTripletCount(t *testing.T) {
	cases := []struct {
		tr   Triplet
		want int
	}{
		{Unit(1, 10), 10},
		{Unit(0, 0), 1},
		{Unit(5, 4), 0},
		{Triplet{1, 10, 2}, 5},
		{Triplet{1, 9, 2}, 5},
		{Triplet{2, 996, 2}, 498},
		{Triplet{10, 1, -1}, 10},
		{Triplet{10, 1, -3}, 4},
		{Triplet{1, 10, -1}, 0},
		{Triplet{0, 0, 0}, 0},
	}
	for _, c := range cases {
		if got := c.tr.Count(); got != c.want {
			t.Errorf("%v.Count() = %d, want %d", c.tr, got, c.want)
		}
	}
}

func TestTripletContainsPosition(t *testing.T) {
	tr := Triplet{2, 996, 2}
	if !tr.Contains(2) || !tr.Contains(996) || !tr.Contains(500) {
		t.Errorf("expected 2, 500, 996 in %v", tr)
	}
	if tr.Contains(3) || tr.Contains(997) || tr.Contains(0) {
		t.Errorf("unexpected membership in %v", tr)
	}
	p, ok := tr.Position(6)
	if !ok || p != 2 {
		t.Errorf("Position(6) = %d,%v want 2,true", p, ok)
	}
	if _, ok := tr.Position(7); ok {
		t.Errorf("Position(7) should fail")
	}
	// Negative stride.
	dn := Triplet{10, 1, -3} // 10,7,4,1
	for k, v := range []int{10, 7, 4, 1} {
		p, ok := dn.Position(v)
		if !ok || p != k {
			t.Errorf("Position(%d) = %d,%v want %d,true", v, p, ok, k)
		}
	}
}

func TestTripletAtLast(t *testing.T) {
	tr := Triplet{3, 11, 4} // 3,7,11
	if tr.At(0) != 3 || tr.At(2) != 11 {
		t.Errorf("At wrong: %d %d", tr.At(0), tr.At(2))
	}
	if tr.Last() != 11 {
		t.Errorf("Last = %d, want 11", tr.Last())
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Last of empty triplet should panic")
		}
	}()
	Unit(5, 4).Last()
}

func TestNewTripletRejectsZeroStride(t *testing.T) {
	if _, err := NewTriplet(1, 10, 0); err == nil {
		t.Fatal("expected error for zero stride")
	}
	if _, err := NewTriplet(1, 10, 3); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestDomainBasics(t *testing.T) {
	d := Standard(0, 4, 1, 3)
	if d.Rank() != 2 {
		t.Fatalf("rank = %d", d.Rank())
	}
	if d.Size() != 15 {
		t.Fatalf("size = %d, want 15", d.Size())
	}
	if !d.IsStandard() {
		t.Fatalf("expected standard")
	}
	if d.Extent(0) != 5 || d.Extent(1) != 3 {
		t.Fatalf("extents wrong")
	}
	if d.Lower(0) != 0 || d.Dims[0].Last() != 4 {
		t.Fatalf("bounds wrong")
	}
	if !d.Contains(Tuple{0, 1}) || !d.Contains(Tuple{4, 3}) {
		t.Fatalf("containment wrong")
	}
	if d.Contains(Tuple{5, 1}) || d.Contains(Tuple{0}) {
		t.Fatalf("false containment")
	}
}

func TestScalarDomain(t *testing.T) {
	s := Scalar()
	if s.Rank() != 0 {
		t.Fatalf("rank = %d", s.Rank())
	}
	if s.Size() != 1 {
		t.Fatalf("scalar domain must have exactly one element (paper §2.2), got %d", s.Size())
	}
	count := 0
	s.ForEach(func(Tuple) bool { count++; return true })
	if count != 1 {
		t.Fatalf("scalar iteration visited %d indices", count)
	}
}

func TestOffsetTupleAtRoundTrip(t *testing.T) {
	d := New(Triplet{2, 10, 2}, Unit(0, 3), Triplet{5, 1, -2})
	size := d.Size()
	if size != 5*4*3 {
		t.Fatalf("size = %d", size)
	}
	for off := 0; off < size; off++ {
		tu := d.TupleAt(off)
		back, ok := d.Offset(tu)
		if !ok || back != off {
			t.Fatalf("round trip failed at %d: tuple %v -> %d,%v", off, tu, back, ok)
		}
	}
}

func TestForEachColumnMajor(t *testing.T) {
	d := Standard(1, 2, 1, 3)
	var got []Tuple
	d.ForEach(func(tu Tuple) bool {
		got = append(got, tu.Clone())
		return true
	})
	want := []Tuple{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {1, 3}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("got %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("tuple %d = %v, want %v (column-major order)", i, got[i], want[i])
		}
	}
}

func TestForEachEarlyStop(t *testing.T) {
	d := Standard(1, 10)
	count := 0
	d.ForEach(func(Tuple) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop failed: %d", count)
	}
}

func TestForEachEmptyDomain(t *testing.T) {
	d := Standard(5, 4)
	d.ForEach(func(Tuple) bool {
		t.Fatal("empty domain must not iterate")
		return false
	})
}

func TestNormalize(t *testing.T) {
	d := New(Triplet{2, 10, 2}, Unit(0, 3))
	n := d.Normalize()
	if !n.Equal(Standard(1, 5, 1, 4)) {
		t.Fatalf("normalize = %s", n)
	}
}

func TestSection(t *testing.T) {
	d := Standard(1, 1000)
	s, err := d.Section(Triplet{2, 996, 2})
	if err != nil {
		t.Fatalf("section: %v", err)
	}
	if s.Size() != 498 {
		t.Fatalf("section size = %d", s.Size())
	}
	if _, err := d.Section(Triplet{0, 10, 1}); err == nil {
		t.Fatalf("expected out-of-bounds section error")
	}
	if _, err := d.Section(Unit(1, 5), Unit(1, 5)); err == nil {
		t.Fatalf("expected rank mismatch error")
	}
}

func TestDomainString(t *testing.T) {
	d := New(Unit(0, 4), Triplet{1, 9, 2})
	if d.String() != "[0:4, 1:9:2]" {
		t.Fatalf("String = %q", d.String())
	}
}

func TestStandardPanicsOnOddBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Standard(1, 2, 3)
}

// Property: for any triplet with nonzero stride, every value listed
// by iteration is contained, positions are consistent, and Count
// matches the number of values.
func TestTripletProperties(t *testing.T) {
	f := func(lo int8, n uint8, st int8) bool {
		stride := int(st)
		if stride == 0 {
			stride = 1
		}
		count := int(n % 50)
		hi := int(lo) + (count-1)*stride
		tr := Triplet{Low: int(lo), High: hi, Stride: stride}
		if count <= 0 {
			return true
		}
		if tr.Count() != count {
			return false
		}
		for k := 0; k < count; k++ {
			v := tr.At(k)
			if !tr.Contains(v) {
				return false
			}
			p, ok := tr.Position(v)
			if !ok || p != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Offset is a bijection onto [0, Size).
func TestOffsetBijectionProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		d := Standard(1, int(a%6)+1, 1, int(b%6)+1, 1, int(c%6)+1)
		seen := make([]bool, d.Size())
		ok := true
		d.ForEach(func(tu Tuple) bool {
			off, in := d.Offset(tu)
			if !in || off < 0 || off >= d.Size() || seen[off] {
				ok = false
				return false
			}
			seen[off] = true
			return true
		})
		if !ok {
			return false
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAccess: an access reads one written dimension plus a constant per
// source dimension — a shift, a transposition, a dropped dimension —
// and Check refuses the wrong source rank, a dimension outside the
// statement and a dimension read twice.
func TestAccess(t *testing.T) {
	at := Tuple{4, 7}
	for _, c := range []struct {
		a    Access
		want Tuple
	}{
		{Shift(-1, 2), Tuple{3, 9}},
		{Access{{1, 0}, {0, 0}}, Tuple{7, 4}},
		{Access{{Dim: 0}}, Tuple{4}},
		{Access{{Dim: 1, Off: -2}}, Tuple{5}},
	} {
		if err := c.a.Check(2, len(c.want)); err != nil {
			t.Errorf("%v: %v", c.a, err)
		}
		if got := c.a.Apply(at, make(Tuple, 2)); !got.Equal(c.want) {
			t.Errorf("%v at %v reads %v, want %v", c.a, at, got, c.want)
		}
	}
	for _, c := range []struct {
		a       Access
		srcRank int
		want    string
	}{
		{Shift(0, 0), 1, "access of rank 2 reads a source of rank 1"},
		{Access{{Dim: 2}}, 1, "reads dimension 2 outside a rank-2 statement"},
		{Access{{Dim: -1}}, 1, "reads dimension -1 outside a rank-2 statement"},
		{Access{{0, 0}, {0, 1}}, 2, "reads dimension 0 twice"},
	} {
		if err := c.a.Check(2, c.srcRank); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v over a rank-%d source in a rank-2 statement: error %v, want %q", c.a, c.srcRank, err, c.want)
		}
	}
}
