// Package index implements the index domains underlying the paper's
// mapping model (§2.1): an index domain of rank n is an ordered set of
// subscript tuples representable by a subscript-triplet list of length
// n (Fortran 90 specification, R619). Every declared data array and
// processor array is associated with a standard index domain (all
// strides 1); array sections and processor sections are general
// (strided) domains. In the pipeline this is the foundation layer:
// every mapping, tile, schedule and storage layout above it is
// expressed over these domains, tuples and triplets.
package index

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Triplet is a Fortran 90 subscript triplet L:U:S. It denotes the
// ordered set {L, L+S, L+2S, ...} not exceeding U (for S > 0) or not
// preceding U (for S < 0). A stride of 0 is invalid.
type Triplet struct {
	Low    int // first value
	High   int // inclusive bound
	Stride int // step; must be nonzero
}

// NewTriplet returns the triplet L:U:S, validating the stride.
func NewTriplet(low, high, stride int) (Triplet, error) {
	if stride == 0 {
		return Triplet{}, errors.New("index: triplet stride must be nonzero")
	}
	return Triplet{Low: low, High: high, Stride: stride}, nil
}

// Unit returns the standard (stride-1) triplet low:high.
func Unit(low, high int) Triplet { return Triplet{Low: low, High: high, Stride: 1} }

// Count reports the number of values in the triplet, following the
// Fortran section-size formula MAX(INT((U-L+S)/S), 0).
func (t Triplet) Count() int {
	if t.Stride == 0 {
		return 0
	}
	n := (t.High - t.Low + t.Stride) / t.Stride
	if n < 0 {
		return 0
	}
	return n
}

// Empty reports whether the triplet denotes no values.
func (t Triplet) Empty() bool { return t.Count() == 0 }

// At returns the k-th value of the triplet (0-based position).
func (t Triplet) At(k int) int { return t.Low + k*t.Stride }

// Last returns the final value of the triplet. It panics on an empty
// triplet.
func (t Triplet) Last() int {
	n := t.Count()
	if n == 0 {
		panic("index: Last of empty triplet")
	}
	return t.At(n - 1)
}

// Contains reports whether v is one of the triplet's values.
func (t Triplet) Contains(v int) bool {
	if t.Stride == 0 {
		return false
	}
	d := v - t.Low
	if d%t.Stride != 0 {
		return false
	}
	k := d / t.Stride
	return k >= 0 && k < t.Count()
}

// Position returns the 0-based position of v within the triplet and
// whether v is contained in it.
func (t Triplet) Position(v int) (int, bool) {
	if !t.Contains(v) {
		return 0, false
	}
	return (v - t.Low) / t.Stride, true
}

// IsUnit reports whether the triplet has stride 1 (a "standard"
// dimension in the paper's terminology).
func (t Triplet) IsUnit() bool { return t.Stride == 1 }

// String renders the triplet in Fortran notation, omitting a unit
// stride.
func (t Triplet) String() string {
	if t.Stride == 1 {
		return fmt.Sprintf("%d:%d", t.Low, t.High)
	}
	return fmt.Sprintf("%d:%d:%d", t.Low, t.High, t.Stride)
}

// Tuple is an index: one subscript per dimension.
type Tuple []int

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Equal reports element-wise equality.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if t[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the tuple as "(i1,i2,...)".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = fmt.Sprint(v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Access is how a statement term reads its source at the written
// index t: source index d is t[a[d].Dim] + a[d].Off, one dummy plus a
// constant as in the paper's alignment functions (§5.1). A shift is
// the identity plus offsets, a transposition {{1,0},{0,0}}, and the
// A(i) of E(i,j) = D(i,j) + A(i) is {{Dim: 0}}.
type Access []Subscript

// Subscript is one source dimension of an Access.
type Subscript struct{ Dim, Off int }

// Shift returns the access reading the written index plus off.
func Shift(off ...int) Access {
	a := make(Access, len(off))
	for d, k := range off {
		a[d] = Subscript{d, k}
	}
	return a
}

// Check refuses an access that cannot read a source of rank srcRank in
// a statement of rank rank: one of another length, or one reading a
// dimension outside the statement or twice (no dummy twice, §5.1).
func (a Access) Check(rank, srcRank int) error {
	if len(a) != srcRank {
		return fmt.Errorf("access of rank %d reads a source of rank %d", len(a), srcRank)
	}
	for d, s := range a {
		if s.Dim < 0 || s.Dim >= rank {
			return fmt.Errorf("access %v reads dimension %d outside a rank-%d statement", a, s.Dim, rank)
		}
		if slices.ContainsFunc(a[:d], func(r Subscript) bool { return r.Dim == s.Dim }) {
			return fmt.Errorf("access %v reads dimension %d twice", a, s.Dim)
		}
	}
	return nil
}

// Apply returns the source index a reads at t, built in dst[:len(a)].
func (a Access) Apply(t, dst Tuple) Tuple {
	dst = dst[:len(a)]
	for d, s := range a {
		dst[d] = t[s.Dim] + s.Off
	}
	return dst
}

// Domain is an index domain of rank len(Dims): the cross product of
// its subscript triplets.
type Domain struct {
	Dims []Triplet
}

// New builds a domain from triplets.
func New(dims ...Triplet) Domain {
	d := Domain{Dims: make([]Triplet, len(dims))}
	copy(d.Dims, dims)
	return d
}

// Standard builds a standard (stride-1) domain from low/high pairs:
// Standard(l1, u1, l2, u2, ...).
func Standard(bounds ...int) Domain {
	if len(bounds)%2 != 0 {
		panic("index: Standard requires an even number of bounds")
	}
	dims := make([]Triplet, len(bounds)/2)
	for i := range dims {
		dims[i] = Unit(bounds[2*i], bounds[2*i+1])
	}
	return Domain{Dims: dims}
}

// Scalar returns the rank-0 domain used to model scalars: it has
// exactly one (empty) index, per §2.2 of the paper ("scalars can
// easily be accommodated ... by treating them as if they were
// associated with an index domain consisting of exactly one element").
func Scalar() Domain { return Domain{} }

// Rank reports the number of dimensions.
func (d Domain) Rank() int { return len(d.Dims) }

// Size reports the total number of indices in the domain. The rank-0
// (scalar) domain has size 1.
func (d Domain) Size() int {
	n := 1
	for _, t := range d.Dims {
		n *= t.Count()
	}
	return n
}

// Empty reports whether the domain contains no indices.
func (d Domain) Empty() bool { return d.Size() == 0 }

// IsStandard reports whether every dimension has stride 1 (§2.1).
func (d Domain) IsStandard() bool {
	for _, t := range d.Dims {
		if !t.IsUnit() {
			return false
		}
	}
	return true
}

// Extent reports the number of values along dimension dim (0-based).
func (d Domain) Extent(dim int) int { return d.Dims[dim].Count() }

// Lower returns the lower bound of dimension dim.
func (d Domain) Lower(dim int) int { return d.Dims[dim].Low }

// Contains reports whether the tuple lies in the domain.
func (d Domain) Contains(t Tuple) bool {
	if len(t) != len(d.Dims) {
		return false
	}
	for i, v := range t {
		if !d.Dims[i].Contains(v) {
			return false
		}
	}
	return true
}

// Offset returns the 0-based column-major linearization of tuple t
// (Fortran array element order), and whether t is in the domain.
func (d Domain) Offset(t Tuple) (int, bool) {
	if len(t) != len(d.Dims) {
		return 0, false
	}
	off, mult := 0, 1
	for i, v := range t {
		p, ok := d.Dims[i].Position(v)
		if !ok {
			return 0, false
		}
		off += p * mult
		mult *= d.Dims[i].Count()
	}
	return off, true
}

// TupleAt is the inverse of Offset: it returns the tuple at 0-based
// column-major position off. It panics if off is out of range.
func (d Domain) TupleAt(off int) Tuple {
	if off < 0 || off >= d.Size() {
		panic(fmt.Sprintf("index: offset %d out of range for domain %s", off, d))
	}
	t := make(Tuple, len(d.Dims))
	for i, tr := range d.Dims {
		n := tr.Count()
		t[i] = tr.At(off % n)
		off /= n
	}
	return t
}

// ForEach calls fn for every index of the domain in column-major
// order. Iteration stops early if fn returns false. The tuple passed
// to fn is reused between calls; clone it to retain it.
func (d Domain) ForEach(fn func(Tuple) bool) {
	if d.Empty() && d.Rank() > 0 {
		return
	}
	t := make(Tuple, len(d.Dims))
	for i, tr := range d.Dims {
		t[i] = tr.Low
	}
	for {
		if !fn(t) {
			return
		}
		i := 0
		for ; i < len(d.Dims); i++ {
			tr := d.Dims[i]
			t[i] += tr.Stride
			if tr.Contains(t[i]) {
				break
			}
			t[i] = tr.Low
		}
		if i == len(d.Dims) {
			return
		}
	}
}

// Equal reports whether two domains have identical triplets.
func (d Domain) Equal(o Domain) bool {
	if len(d.Dims) != len(o.Dims) {
		return false
	}
	for i := range d.Dims {
		if d.Dims[i] != o.Dims[i] {
			return false
		}
	}
	return true
}

// Normalize returns the standard domain with the same extents as d,
// rebased to lower bound 1 in every dimension. Positions are
// preserved: the k-th value of each dimension maps to k+1.
func (d Domain) Normalize() Domain {
	dims := make([]Triplet, len(d.Dims))
	for i, t := range d.Dims {
		dims[i] = Unit(1, t.Count())
	}
	return Domain{Dims: dims}
}

// Section returns the sub-domain selected by the given triplets, one
// per dimension; each must be contained in the corresponding
// dimension's value set.
func (d Domain) Section(sel ...Triplet) (Domain, error) {
	if len(sel) != len(d.Dims) {
		return Domain{}, fmt.Errorf("index: section rank %d does not match domain rank %d", len(sel), len(d.Dims))
	}
	for i, t := range sel {
		if t.Empty() {
			continue
		}
		if !d.Dims[i].Contains(t.Low) || !d.Dims[i].Contains(t.Last()) {
			return Domain{}, fmt.Errorf("index: section %s exceeds dimension %d (%s)", t, i+1, d.Dims[i])
		}
	}
	return New(sel...), nil
}

// String renders the domain as "[l1:u1:s1, l2:u2:s2, ...]".
func (d Domain) String() string {
	parts := make([]string, len(d.Dims))
	for i, t := range d.Dims {
		parts[i] = t.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
