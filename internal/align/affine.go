package align

import "hpfnt/internal/index"

// The affine interval form of an alignment function: when every base
// subscript is affine in its align-dummy (a*J + b, the stride/offset
// alignments of §5.1 without MAX/MIN truncation), the image of an
// interval of alignee indices is an interval of base indices and vice
// versa, so ownership runs of the base transport through α in closed
// form instead of element by element.

// affDim is one base dimension of the affine form.
type affDim struct {
	// aligneeDim is the 0-based alignee dimension whose dummy occurs
	// in the subscript, or -1 for a fixed (dummyless) subscript.
	aligneeDim int
	// a, b give the subscript a*J + b; for fixed subscripts the value
	// is b (already clamped into the base dimension).
	a, b int
}

// AffineMap is the interval-transport view of an alignment function.
type AffineMap struct {
	f    *Function
	dims []affDim
}

// Affine returns the affine interval form of α, or ok = false when α
// replicates, uses a non-affine subscript (MAX/MIN), or the alignee or
// base domain is not standard. Callers fall back to per-element
// evaluation in that case. The form is computed once at Normalize
// time; this accessor is a field read, safe on hot paths.
func (f *Function) Affine() (*AffineMap, bool) {
	return f.aff, f.aff != nil
}

// computeAffine derives the affine interval form, or nil when the
// function is outside the affine subset.
func computeAffine(f *Function) *AffineMap {
	if !f.Alignee.IsStandard() || !f.Base.IsStandard() {
		return nil
	}
	am := &AffineMap{f: f, dims: make([]affDim, len(f.maps))}
	for j, m := range f.maps {
		if m.replicated {
			return nil
		}
		if !m.k.Affine() {
			return nil
		}
		// At most one coefficient is nonzero: that of m.dummyDim.
		d := affDim{aligneeDim: -1, b: m.k.C}
		for dim, a := range m.k.Coef {
			if a != 0 {
				d.aligneeDim, d.a = dim, a
			}
		}
		if d.aligneeDim < 0 {
			// Dummyless (or zero-coefficient) subscripts evaluate to
			// one value; Image clamps it, so clamp here identically.
			d.b = clamp(d.b, f.Base.Dims[j])
		}
		am.dims[j] = d
	}
	return am
}

// ImageRegion maps a standard sub-rectangle of the alignee domain to
// the smallest base rectangle containing its image. ok = false when a
// computed subscript would leave the base dimension's bounds (the
// §5.1 clamp rule would then bend the affine map, so interval
// transport is unsound and the caller must fall back).
func (am *AffineMap) ImageRegion(region index.Domain) (index.Domain, bool) {
	dims := make([]index.Triplet, len(am.dims))
	for j, d := range am.dims {
		if d.aligneeDim < 0 {
			dims[j] = index.Unit(d.b, d.b)
			continue
		}
		tr := region.Dims[d.aligneeDim]
		y1, y2 := d.a*tr.Low+d.b, d.a*tr.High+d.b
		if y1 > y2 {
			y1, y2 = y2, y1
		}
		base := am.f.Base.Dims[j]
		if y1 < base.Low || y2 > base.High {
			return index.Domain{}, false
		}
		dims[j] = index.Unit(y1, y2)
	}
	return index.Domain{Dims: dims}, true
}

// Preimage maps a base rectangle back to the alignee indices of
// region whose image falls inside it: per dimension, the solutions of
// a*J + b ∈ [lo, hi] intersected with the region. Alignee dimensions
// occurring in no base subscript (collapsed axes) are unconstrained
// and keep their full region interval. ok = false when the preimage
// is empty (the rectangle misses a fixed subscript's value, or no
// alignee index lands in it).
func (am *AffineMap) Preimage(baseRect, region index.Domain) (index.Domain, bool) {
	dims := make([]index.Triplet, region.Rank())
	copy(dims, region.Dims)
	for j, d := range am.dims {
		tr := baseRect.Dims[j]
		if d.aligneeDim < 0 {
			if d.b < tr.Low || d.b > tr.High {
				return index.Domain{}, false
			}
			continue
		}
		lo, hi := ceilDiv(tr.Low-d.b, d.a), floorDiv(tr.High-d.b, d.a)
		if d.a < 0 {
			lo, hi = ceilDiv(tr.High-d.b, d.a), floorDiv(tr.Low-d.b, d.a)
		}
		cur := dims[d.aligneeDim]
		if lo < cur.Low {
			lo = cur.Low
		}
		if hi > cur.High {
			hi = cur.High
		}
		if lo > hi {
			return index.Domain{}, false
		}
		dims[d.aligneeDim] = index.Unit(lo, hi)
	}
	return index.Domain{Dims: dims}, true
}

// floorDiv is ⌊a/b⌋ for b ≠ 0 (Go's / truncates toward zero).
func floorDiv(a, b int) int {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// ceilDiv is ⌈a/b⌉ for b ≠ 0.
func ceilDiv(a, b int) int {
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}
