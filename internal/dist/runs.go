package dist

import (
	"errors"
	"fmt"
	"slices"

	"hpfnt/internal/index"
)

// This file is the run-length ownership kernel. Ownership of any
// interval of global indices under the §4.1 formats is
// piecewise-constant with few pieces — at most np runs for BLOCK, one
// run per CYCLIC(k) segment, at most b runs for GENERAL_BLOCK — so
// local index sets and communication sets can be computed over O(runs)
// closed-form intervals instead of O(n) per-element owner lookups.
// This is the compile-time analyzability the paper claims for its
// distribution formats, made executable. Runs are a format's only
// ownership vocabulary beyond δ and the local index: a position's
// owned indices, per-processor counts and weights (package partition),
// and the rank-N owner tiles below are all read off AppendRuns, and
// per-element Map remains the differential-testing oracle.

// Run is a maximal interval [Lo, Hi] of 1-based normalized global
// indices owned by a single target-dimension position Proc.
type Run struct {
	Lo, Hi int
	Proc   int
}

// Count reports the number of indices in the run.
func (r Run) Count() int { return r.Hi - r.Lo + 1 }

// blockRuns is the shared closed form for the two BLOCK variants:
// owner positions are nondecreasing over the interval, and each
// position's block is a single interval delimited by start(p); p0 is
// the owner of lo.
func blockRuns(dst []Run, lo, hi, np, p0 int, start func(int) int) []Run {
	if lo > hi {
		return dst
	}
	for p := p0; ; p++ {
		rhi := hi
		if p < np {
			if next := start(p+1) - 1; next < rhi {
				rhi = next
			}
		}
		dst = append(dst, Run{Lo: lo, Hi: rhi, Proc: p})
		if rhi >= hi {
			return dst
		}
		lo = rhi + 1
	}
}

// AppendRuns appends the ≤np runs of [lo, hi]: position p owns the
// single interval [(p-1)q+1, pq] with q = ⌈n/np⌉.
func (b Block) AppendRuns(dst []Run, lo, hi, n, np int) []Run {
	if lo > hi {
		return dst
	}
	q := (n + np - 1) / np
	return blockRuns(dst, lo, hi, np, b.Map(lo, n, np),
		func(p int) int { return (p-1)*q + 1 })
}

// AppendRuns appends the ≤np balanced-block runs of [lo, hi].
func (v BlockVienna) AppendRuns(dst []Run, lo, hi, n, np int) []Run {
	if lo > hi {
		return dst
	}
	return blockRuns(dst, lo, hi, np, v.Map(lo, n, np),
		func(p int) int { return v.start(p, n, np) })
}

// AppendRuns appends the single run of the undistributed dimension.
func (Collapsed) AppendRuns(dst []Run, lo, hi, n, np int) []Run {
	if lo > hi {
		return dst
	}
	return append(dst, Run{Lo: lo, Hi: hi, Proc: 1})
}

// AppendRuns appends one run per CYCLIC(k) segment overlapping
// [lo, hi]: segment s covers [sk+1, sk+k] and belongs to position
// (s mod np)+1, so the interval holds ⌈(hi-lo+1)/k⌉+1 runs at most.
func (c Cyclic) AppendRuns(dst []Run, lo, hi, n, np int) []Run {
	if np == 1 && lo <= hi {
		// All segments land on the one position: a single maximal run.
		return append(dst, Run{Lo: lo, Hi: hi, Proc: 1})
	}
	for s := (lo - 1) / c.K; lo <= hi; s++ {
		rhi := s*c.K + c.K
		if rhi > hi {
			rhi = hi
		}
		dst = append(dst, Run{Lo: lo, Hi: rhi, Proc: s%np + 1})
		lo = rhi + 1
	}
	return dst
}

// AppendRuns appends the ≤b runs of [lo, hi]: block p owns the single
// interval (G(p-1), G(p)], empty blocks (repeated bounds) skipped.
func (g GeneralBlock) AppendRuns(dst []Run, lo, hi, n, np int) []Run {
	if lo > hi {
		return dst
	}
	for p := g.Map(lo, n, np); ; p++ {
		rhi := n
		if p-1 < len(g.Bounds) && p < np {
			rhi = g.Bounds[p-1]
		}
		if rhi < lo {
			continue // empty block
		}
		if rhi > hi {
			rhi = hi
		}
		dst = append(dst, Run{Lo: lo, Hi: rhi, Proc: p})
		if rhi >= hi {
			return dst
		}
		lo = rhi + 1
	}
}

// AppendRuns walks the owner vector over [lo, hi], one run per owner
// change: a user-defined owner vector has no closed form.
func (f *indirect) AppendRuns(dst []Run, lo, hi, n, np int) []Run {
	for i := lo; i <= hi; i++ {
		if p := int(f.owner[i-1]); i > lo && p == dst[len(dst)-1].Proc {
			dst[len(dst)-1].Hi = i
		} else {
			dst = append(dst, Run{Lo: i, Hi: i, Proc: p})
		}
	}
	return dst
}

// RunCountEstimate counts the blocks intersecting the interval.
func (b Block) RunCountEstimate(lo, hi, n, np int) int {
	if lo > hi {
		return 0
	}
	return b.Map(hi, n, np) - b.Map(lo, n, np) + 1
}

// RunCountEstimate counts the balanced blocks intersecting the
// interval.
func (v BlockVienna) RunCountEstimate(lo, hi, n, np int) int {
	if lo > hi {
		return 0
	}
	return v.Map(hi, n, np) - v.Map(lo, n, np) + 1
}

// RunCountEstimate reports the undistributed dimension's single run.
func (Collapsed) RunCountEstimate(lo, hi, n, np int) int {
	if lo > hi {
		return 0
	}
	return 1
}

// RunCountEstimate counts the CYCLIC(k) segments intersecting the
// interval (one on a single-position target).
func (c Cyclic) RunCountEstimate(lo, hi, n, np int) int {
	if lo > hi {
		return 0
	}
	if np == 1 {
		return 1
	}
	return (hi-1)/c.K - (lo-1)/c.K + 1
}

// RunCountEstimate counts the blocks intersecting the interval
// (empty blocks over-count; this is a bound, not an exact count).
func (g GeneralBlock) RunCountEstimate(lo, hi, n, np int) int {
	if lo > hi {
		return 0
	}
	return g.Map(hi, n, np) - g.Map(lo, n, np) + 1
}

// RunCountEstimate counts the owner changes over [lo, hi]: exact,
// so AppendRuns' destination is sized to what it holds.
func (f *indirect) RunCountEstimate(lo, hi, n, np int) int {
	if lo > hi {
		return 0
	}
	runs, own := 1, f.owner[lo-1:hi]
	for i := 1; i < len(own); i++ {
		if own[i] != own[i-1] {
			runs++
		}
	}
	return runs
}

// Tile is a rectangular sub-domain all of whose elements are owned by
// the single abstract processor Proc: the rank-N composition of one
// ownership run per dimension.
type Tile struct {
	Region index.Domain
	Proc   int
}

// ErrMultiOwner reports that a mapping assigns several owners to some
// element, so a single-owner tile decomposition does not exist
// (replicated scalar-target distributions, replicating alignments).
var ErrMultiOwner = errors.New("dist: element has multiple owners")

// OwnerRuns returns the rectangular owner tiles partitioning region:
// the cross product of the per-dimension ownership runs, each tile
// owned by one abstract processor. It is AppendOwnerTiles into a
// fresh slice.
func (d *Distribution) OwnerRuns(region index.Domain) ([]Tile, error) {
	return d.AppendOwnerTiles(nil, region)
}

// AppendOwnerTiles appends the owner tiles partitioning region, a
// standard (stride-1) sub-rectangle of the distributee's domain. The
// tile count is the product of the per-dimension run counts —
// independent of the region's size for the closed-form formats. It
// returns ErrMultiOwner for replicated scalar-target distributions.
func (d *Distribution) AppendOwnerTiles(dst []Tile, region index.Domain) ([]Tile, error) {
	if region.Rank() != len(d.dims) {
		return nil, fmt.Errorf("dist: rank-%d region %s for rank-%d distribution", region.Rank(), region, len(d.dims))
	}
	empty := false
	for i, tr := range region.Dims {
		if tr.Empty() {
			empty = true
			continue
		}
		if !tr.IsUnit() {
			return nil, fmt.Errorf("dist: region %s must be standard (stride 1)", region)
		}
		if tr.Low < d.dims[i].low || tr.High > d.dims[i].high {
			return nil, fmt.Errorf("dist: region %s outside domain %s", region, d.Array)
		}
	}
	if empty {
		return dst, nil
	}
	if d.repl != nil {
		if len(d.repl) != 1 {
			return nil, ErrMultiOwner
		}
		return append(dst, Tile{Region: region, Proc: d.repl[0]}), nil
	}
	rank := len(d.dims)
	perDim := make([][]Run, rank)
	for i := range d.dims {
		dt := &d.dims[i]
		lo := region.Dims[i].Low - dt.low + 1
		hi := region.Dims[i].High - dt.low + 1
		perDim[i] = dt.f.AppendRuns(make([]Run, 0, dt.f.RunCountEstimate(lo, hi, dt.n, dt.np)), lo, hi, dt.n, dt.np)
	}
	// One backing array holds every tile's triplets: the tile count is
	// known, and fine-grain interleavings have a tile per element.
	count := 1
	for _, runs := range perDim {
		count *= len(runs)
	}
	backing := make([]index.Triplet, count*rank)
	dst = slices.Grow(dst, count)
	idx := make([]int, rank)
	for {
		k := 0
		dims := backing[:rank:rank]
		backing = backing[rank:]
		for i, dt := range d.dims {
			r := perDim[i][idx[i]]
			dims[i] = index.Unit(r.Lo+dt.low-1, r.Hi+dt.low-1)
			k += (r.Proc - 1) * dt.mult
		}
		dst = append(dst, Tile{Region: index.Domain{Dims: dims}, Proc: d.aps[k]})
		i := 0
		for ; i < rank; i++ {
			idx[i]++
			if idx[i] < len(perDim[i]) {
				break
			}
			idx[i] = 0
		}
		if i == rank {
			return dst, nil
		}
	}
}
