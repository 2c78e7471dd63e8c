// Run-based bulk ownership: the rank-N analogue of the per-dimension
// run kernel in package dist. A single-owner mapping partitions any
// rectangular region into owner tiles (dist.Tile); direct
// distributions compose per-dimension format runs, alignments
// transport base tiles through the affine interval form of α, and
// inherited section mappings translate through their (stride-1)
// triplets. Mappings outside those closed forms (an INDIRECT
// dimension among them) — replicating alignments aside, which have no
// single-owner decomposition at all — fall back to per-element
// enumeration with run coalescing, so OwnerTiles is total on
// single-owner mappings; AppendOwners, one element at a time, is the
// oracle its tests compare against.
package core

import (
	"errors"
	"fmt"
	"slices"

	"hpfnt/internal/dist"
	"hpfnt/internal/index"
)

// Tile is a rectangular single-owner sub-domain (see dist.Tile).
type Tile = dist.Tile

// ErrNoBulk reports that a mapping lies outside the closed-form run
// subset (a MAX/MIN-clamped alignment, a strided section or region),
// so no bulk tile decomposition exists and OwnerTiles enumerates
// elements instead.
var ErrNoBulk = errors.New("core: mapping has no bulk tile decomposition")

// OwnerTiles returns single-owner tiles exactly partitioning region:
// the mapping's bulk decomposition when it has one, a per-element
// coalescing walk on ErrNoBulk. The only failure mode besides an
// invalid region is dist.ErrMultiOwner (replicated elements have no
// single-owner tiling; use ReplicatedGrid).
func OwnerTiles(m ElementMapping, region index.Domain) ([]Tile, error) {
	tiles, err := m.AppendOwnerTiles(nil, region)
	if errors.Is(err, ErrNoBulk) {
		return enumTiles(m, region)
	}
	return tiles, err
}

// enumTiles is the generic fallback: enumerate region in column-major
// order and coalesce maximal same-owner runs along the first
// dimension. O(elements), but allocation-free per element.
func enumTiles(m ElementMapping, region index.Domain) ([]Tile, error) {
	if region.Rank() == 0 {
		os, err := m.AppendOwners(nil, index.Tuple{})
		if err != nil {
			return nil, err
		}
		if len(os) != 1 {
			return nil, dist.ErrMultiOwner
		}
		return []Tile{{Region: region, Proc: os[0]}}, nil
	}
	var tiles []Tile
	var scratch []int
	var cur Tile
	have := false
	var ferr error
	stride0 := region.Dims[0].Stride
	region.ForEach(func(t index.Tuple) bool {
		s, err := m.AppendOwners(scratch[:0], t)
		if err != nil {
			ferr = err
			return false
		}
		scratch = s
		if len(scratch) != 1 {
			ferr = fmt.Errorf("core: element %s has %d owners: %w", t, len(scratch), dist.ErrMultiOwner)
			return false
		}
		p := scratch[0]
		if have && p == cur.Proc && cur.Region.Dims[0].High+stride0 == t[0] && tailMatches(cur.Region, t) {
			cur.Region.Dims[0].High = t[0]
			return true
		}
		if have {
			tiles = append(tiles, cur)
		}
		dims := make([]index.Triplet, len(t))
		dims[0] = index.Triplet{Low: t[0], High: t[0], Stride: stride0}
		for d := 1; d < len(t); d++ {
			dims[d] = index.Unit(t[d], t[d])
		}
		cur = Tile{Region: index.Domain{Dims: dims}, Proc: p}
		have = true
		return true
	})
	if ferr != nil {
		return nil, ferr
	}
	if have {
		tiles = append(tiles, cur)
	}
	return tiles, nil
}

// tailMatches reports whether t agrees with the tile's single-point
// trailing dimensions (1..rank-1).
func tailMatches(region index.Domain, t index.Tuple) bool {
	for d := 1; d < len(t); d++ {
		if region.Dims[d].Low != t[d] {
			return false
		}
	}
	return true
}

// AppendOwnerTiles delegates to the distribution's run composition.
// A distribution with an INDIRECT dimension declines: an owner vector
// has no closed form, and its runs are as many as its owner changes.
func (m DistMapping) AppendOwnerTiles(dst []Tile, region index.Domain) ([]Tile, error) {
	if !region.IsStandard() || slices.ContainsFunc(m.D.Formats, func(f dist.Format) bool { return f.Kind() == dist.KindIndirect }) {
		return nil, ErrNoBulk
	}
	return m.D.AppendOwnerTiles(dst, region)
}

// AppendOwners delegates to the distribution's allocation-free path.
func (m DistMapping) AppendOwners(dst []int, i index.Tuple) ([]int, error) {
	return m.D.AppendOwners(dst, i)
}

// AppendOwnerTiles transports base tiles through the affine interval
// form of α: the region's image is one base rectangle, the base
// mapping tiles it, and each base tile pulls back to the alignee
// indices landing in it. Non-affine or clamped alignments decline
// with ErrNoBulk; replicating alignments have no single-owner tiling
// and return dist.ErrMultiOwner.
func (c *Constructed) AppendOwnerTiles(dst []Tile, region index.Domain) ([]Tile, error) {
	if c.Alpha.Replicates() {
		return nil, dist.ErrMultiOwner
	}
	am, ok := c.Alpha.Affine()
	if !ok || !region.IsStandard() {
		return nil, ErrNoBulk
	}
	if region.Empty() && region.Rank() > 0 {
		return dst, nil
	}
	baseRegion, ok := am.ImageRegion(region)
	if !ok {
		// The §5.1 clamp rule would bend the map; stay exact.
		return nil, ErrNoBulk
	}
	baseTiles, err := c.BaseMap.AppendOwnerTiles(nil, baseRegion)
	if err != nil {
		return nil, err
	}
	for _, bt := range baseTiles {
		if sub, ok := am.Preimage(bt.Region, region); ok {
			dst = append(dst, Tile{Region: sub, Proc: bt.Proc})
		}
	}
	return dst, nil
}

// AppendOwners appends the owner union over α(i) (Definition 4),
// deduplicated in place, to dst.
func (c *Constructed) AppendOwners(dst []int, i index.Tuple) ([]int, error) {
	img, err := c.Alpha.Image(i)
	if err != nil {
		return nil, err
	}
	start := len(dst)
	for _, j := range img {
		pre := len(dst)
		dst, err = c.BaseMap.AppendOwners(dst, j)
		if err != nil {
			return nil, fmt.Errorf("core: CONSTRUCT: base owners of %s: %w", j, err)
		}
		out := pre
		for k := pre; k < len(dst); k++ {
			v := dst[k]
			dup := false
			for x := start; x < out; x++ {
				if dst[x] == v {
					dup = true
					break
				}
			}
			if !dup {
				dst[out] = v
				out++
			}
		}
		dst = dst[:out]
	}
	if len(dst) == start {
		return nil, fmt.Errorf("core: CONSTRUCT produced empty owner set for %s", i)
	}
	return dst, nil
}

// AppendOwnerTiles translates the dummy region through the section
// triplets — affine per dimension — tiles the actual array's
// sub-rectangle, and maps each tile back to dummy coordinates.
// Sections with non-unit strides decline with ErrNoBulk.
func (s *SectionMapping) AppendOwnerTiles(dst []Tile, region index.Domain) ([]Tile, error) {
	if !region.IsStandard() || !s.Section.IsStandard() {
		return nil, ErrNoBulk
	}
	if region.Empty() && region.Rank() > 0 {
		return dst, nil
	}
	dims := make([]index.Triplet, region.Rank())
	for d, tr := range region.Dims {
		base := s.Section.Dims[d]
		dims[d] = index.Unit(base.At(tr.Low-1), base.At(tr.High-1))
	}
	actTiles, err := s.Actual.AppendOwnerTiles(nil, index.Domain{Dims: dims})
	if err != nil {
		return nil, err
	}
	for _, at := range actTiles {
		sub := make([]index.Triplet, region.Rank())
		for d, tr := range at.Region.Dims {
			base := s.Section.Dims[d]
			sub[d] = index.Unit(tr.Low-base.Low+1, tr.High-base.Low+1)
		}
		dst = append(dst, Tile{Region: index.Domain{Dims: sub}, Proc: at.Proc})
	}
	return dst, nil
}

// AppendOwners translates the dummy index through the section
// triplets and delegates to the actual's mapping.
func (s *SectionMapping) AppendOwners(dst []int, i index.Tuple) ([]int, error) {
	if !s.Dummy.Contains(i) {
		return nil, fmt.Errorf("core: %s not in dummy domain %s", i, s.Dummy)
	}
	at := make(index.Tuple, len(i))
	for d, v := range i {
		at[d] = s.Section.Dims[d].At(v - 1)
	}
	return s.Actual.AppendOwners(dst, at)
}
