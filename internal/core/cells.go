package core

// Uniform cells: the closed-form ownership analysis of a shift
// statement lhs(region) = f(src_1(region+shift_1), …). Each mapping's
// owner tiles over its (shifted) region are rectangles, so every tile
// boundary, carried back into lhs coordinates, is a cut of one
// dimension; the product of the per-dimension cuts is a grid of cells
// inside each of which the lhs and every reference have exactly one
// owner. The engine's plan producer (package spmd) is built on it and
// locates a cell's corner in each layout's tile index, so the
// enumeration itself is O(tiles), independent of the region's volume.

import (
	"reflect"
	"slices"
	"sort"

	"hpfnt/internal/index"
)

// ShiftRef is one right-hand-side reference of a shift statement, as
// far as ownership is concerned: the source mapping and the constant
// index shift.
type ShiftRef struct {
	Map   ElementMapping
	Shift []int
}

// RunAnalyzable reports whether a shift statement lies in the
// closed-form subset: a non-empty unit-stride region inside the lhs
// domain, standard domains throughout, and every shifted reference in
// bounds. Statements outside it are analysed element by element, which
// is also where an out-of-bounds reference is reported with the
// element that makes it.
func RunAnalyzable(region, lhsDom index.Domain, refs []ShiftRef) bool {
	if !region.IsStandard() || !lhsDom.IsStandard() {
		return false
	}
	if region.Empty() && region.Rank() > 0 {
		return false
	}
	for d, tr := range region.Dims {
		if tr.Low < lhsDom.Dims[d].Low || tr.High > lhsDom.Dims[d].High {
			return false
		}
	}
	for _, r := range refs {
		dom := r.Map.Domain()
		if !dom.IsStandard() {
			return false
		}
		for d, tr := range region.Dims {
			if tr.Low+r.Shift[d] < dom.Dims[d].Low || tr.High+r.Shift[d] > dom.Dims[d].High {
				return false
			}
		}
	}
	return true
}

// UniformCuts returns, for a statement RunAnalyzable accepts, the
// ascending cut points of each region dimension: cuts[d][0] is the
// region's low bound, the last entry its high bound plus one, and every
// cell [cuts[d][i], cuts[d][i+1]-1] (one interval per dimension) is
// owned by a single processor under lhs and, shifted, under every
// reference. It fails with ErrNoBulk or dist.ErrMultiOwner when some
// mapping has no closed-form single-owner tiling.
//
// Each distinct mapping is tiled once, over the hull of the regions its
// references read: a boundary of that tiling is a cut at every shift
// the mapping is read at, so a stencil of T terms over one array costs
// one tiling, not T.
//
// The lists of dst, a result of an earlier call, are reused: a caller
// that compiles statement after statement keeps them.
func UniformCuts(dst [][]int, region index.Domain, lhs ElementMapping, refs []ShiftRef) ([][]int, error) {
	rank := region.Rank()
	cuts := dst[:0]
	for d, tr := range region.Dims {
		var c []int
		if d < len(dst) {
			c = dst[d][:0]
		}
		cuts = append(cuts, append(c, tr.Low))
	}
	all := append([]ShiftRef{{Map: lhs, Shift: make([]int, rank)}}, refs...)
	done := make([]bool, len(all))
	var tiles []Tile
	hint := make([]int, rank)
	hull := make([]index.Triplet, rank)
	for i, r := range all {
		if done[i] {
			continue
		}
		// group: the references (from i on) that read r's mapping.
		group := []int{i}
		for j := i + 1; j < len(all); j++ {
			if !done[j] && sameMapping(r.Map, all[j].Map) {
				group = append(group, j)
				done[j] = true
			}
		}
		for d, tr := range region.Dims {
			lo, hi := r.Shift[d], r.Shift[d]
			for _, j := range group {
				lo, hi = min(lo, all[j].Shift[d]), max(hi, all[j].Shift[d])
			}
			hull[d] = index.Unit(tr.Low+lo, tr.High+hi)
		}
		// A direct distribution tiles by the product of its
		// per-dimension runs: one pencil along each dimension carries
		// every boundary, Σ runs tiles instead of Π runs. A composed
		// mapping is asked for all its tiles.
		pencils := 1
		if _, direct := r.Map.(DistMapping); direct {
			pencils = rank
		}
		for p := 0; p < pencils; p++ {
			over := hull
			if pencils > 1 {
				over = slices.Clone(hull)
				for o := range over {
					if o != p {
						over[o].High = over[o].Low
					}
				}
			}
			var err error
			if tiles, err = AppendBulkOwnerTiles(tiles[:0], r.Map, index.Domain{Dims: over}); err != nil {
				return nil, err
			}
			for _, tl := range tiles {
				for d, tr := range tl.Region.Dims {
					if pencils > 1 && d != p {
						continue
					}
					for _, j := range group {
						if v := tr.Low - all[j].Shift[d]; v > region.Dims[d].Low && v <= region.Dims[d].High {
							cuts[d], hint[d] = insertCut(cuts[d], hint[d], v)
						}
					}
				}
			}
		}
	}
	for d, tr := range region.Dims {
		cuts[d] = append(cuts[d], tr.High+1)
	}
	return cuts, nil
}

// sameMapping reports whether two references are known to read one
// mapping: the same distribution object or the same composed mapping.
// (Interface equality alone would panic on a mapping type that is not
// comparable.)
func sameMapping(a, b ElementMapping) bool {
	t := reflect.TypeOf(a)
	return t == reflect.TypeOf(b) && t.Comparable() && a == b
}

// insertCut adds v to the ascending duplicate-free list c. at is where
// the previous value of this dimension was found: tiles arrive in
// ascending order, first dimension fastest, so the next value is
// almost always the same entry or its successor; anything else is
// searched for. Returns the list and v's position.
func insertCut(c []int, at, v int) ([]int, int) {
	switch {
	case c[at] == v:
		return c, at
	case at+1 < len(c) && c[at+1] == v:
		return c, at + 1
	case v > c[len(c)-1]:
		return append(c, v), len(c)
	}
	i := sort.SearchInts(c, v)
	if c[i] != v {
		c = append(c, 0)
		copy(c[i+1:], c[i:])
		c[i] = v
	}
	return c, i
}

// ForEachCell calls fn with the inclusive bounds of every cell of the
// grid UniformCuts returned, first dimension fastest. The slices are
// reused between calls. A rank-0 grid has the one (empty) cell.
func ForEachCell(cuts [][]int, fn func(lo, hi []int)) {
	rank := len(cuts)
	idx := make([]int, rank)
	lo, hi := make([]int, rank), make([]int, rank)
	for {
		for d, i := range idx {
			lo[d], hi[d] = cuts[d][i], cuts[d][i+1]-1
		}
		fn(lo, hi)
		d := 0
		for ; d < rank; d++ {
			idx[d]++
			if idx[d] < len(cuts[d])-1 {
				break
			}
			idx[d] = 0
		}
		if d == rank {
			return
		}
	}
}
