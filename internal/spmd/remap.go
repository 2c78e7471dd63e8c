package spmd

import (
	"fmt"
	"slices"

	"hpfnt/internal/core"
	"hpfnt/internal/index"
	"hpfnt/internal/obs"
	"hpfnt/internal/runtime"
)

// Remap moves an array to a new element mapping. It is the plan of the
// identity statement new(:) = old(:) from the old layout to the new:
// every worker builds its new local segment, keeps the elements it
// still owns by local copy, and receives the rest from the old owners
// as one aggregated message per processor pair, shipped through the
// schedules' exchange. The sender for each (replica set, destination)
// pair follows runtime.RemapSender, so the engine and the element-wise
// oracle charge identical traffic. Returns the number of
// elements whose owner set gained a member. Compiled schedules over
// the array are invalidated.
func (e *Engine) Remap(a *Array, newMap core.ElementMapping) (int, error) {
	if a.eng != e {
		return 0, fmt.Errorf("spmd: array %s belongs to a different engine", a.name)
	}
	if !newMap.Domain().Equal(a.dom) {
		return 0, fmt.Errorf("spmd: remap of %s to mapping over %s (have %s)", a.name, newMap.Domain(), a.dom)
	}
	// A failed engine stays failed, with or without a dispatch.
	if err := e.tr.Err(); err != nil {
		return 0, err
	}
	var built func()
	if obs.TraceEnabled() {
		label := "remap " + a.name
		if end := obs.BeginSpan("remap", label, 0); end != nil {
			defer end()
		}
		built = obs.BeginSpan("build", label, 0)
	}
	pl, err := planRemap(e, a, newMap)
	if built != nil {
		built()
	}
	if err != nil {
		return 0, fmt.Errorf("spmd: remap of %s: %w", a.name, err)
	}
	return e.applyRemap(a, newMap, pl)
}

// applyRemap executes a compiled remap of a — one epoch, unless the
// plan keeps the layout a already has — and commits the array to it.
func (e *Engine) applyRemap(a *Array, newMap core.ElementMapping, pl *remapPlan) (int, error) {
	if pl.to != a.lay {
		// Phase 0 copies and sends, phase 1 receives. The shipment is
		// the schedules' exchange with the new segment as its
		// destination.
		err := e.run(2, func(p, k int) {
			oldData, newData, ship := a.lay.stores[p].data, pl.to.stores[p].data, &pl.ships[p]
			if k == 0 {
				for _, c := range pl.copies[p] {
					c.run(newData, oldData)
				}
				ship.send(e, p)
				return
			}
			ship.recv(e, p, newData)
			if len(ship.sends) > 0 {
				e.flush(p, &counters{sends: ship.sends, msgs: 1, frames: 1})
			}
		})
		if err != nil {
			return 0, err
		}
		a.lay = pl.to
	}
	a.mapping = newMap
	a.gen++
	return pl.moved, nil
}

// remapPlan is a remap from one layout to another: per worker, the
// local copies from its old segment into its new one and its side of
// the shipment of everything else. It is also the emitter (line) that
// both of its enumerators feed.
type remapPlan struct {
	from, to *layout
	copies   [][]copyRun // index 1..np
	ships    []exchange  // index 1..np, emitted from pairs by finish
	pairs    pairBuilder
	// seg is the segment of the pair (segFrom, segTo) that shipped
	// last: consecutive lines mostly move between the same pair.
	seg            *segBuild
	segFrom, segTo int
	// moved counts the elements whose owner set gains a member.
	moved int
}

// copyRun copies the values of one store at src to another at dst; the
// two intervals have the same count.
type copyRun struct {
	src, dst span
}

func (c copyRun) run(dst, src []float64) {
	if c.src.stride == 1 {
		storeRun(dst, int(c.dst.base), int(c.dst.stride), src[c.src.base:c.src.base+c.src.count])
		return
	}
	j, k := int(c.src.base), int(c.dst.base)
	for i := int32(0); i < c.src.count; i++ {
		dst[k] = src[j]
		j += int(c.src.stride)
		k += int(c.dst.stride)
	}
}

// remapMinTileElems is the average owner-tile volume below which a
// remap is walked by element even though it has uniform cells. A cell
// costs its share of two more tilings, a cut insertion and a callback;
// an element of the walk costs four grid reads. Measured on BLOCK ↔
// CYCLIC(k) of a 65536-element vector (np = 2): the cells win from
// k = 8 up and lose 2× at k = 1.
const remapMinTileElems = 8

// planRemap compiles the move of a to newMap. When the new mapping has
// the tiles of the old one, owner for owner, the layouts are equal slot
// for slot: the plan is empty and its target is the layout a already
// has — no grid is built and applyRemap dispatches nothing. Otherwise
// the plan is filled, like a regular statement's, from lines: those of
// the uniform cells of the two tilings (O(tiles + lines), however many
// elements move) or, where analyzable finds none worth taking, the
// element walk feeding the same emitter one element at a time.
func planRemap(e *Engine, a *Array, newMap core.ElementMapping) (*remapPlan, error) {
	tiles, single, err := ownerTiles(newMap)
	if err != nil {
		return nil, err
	}
	// Equal tilings have equal tile counts: the old mapping is tiled
	// again only when that much already agrees.
	if single && a.lay.owners != nil && a.lay.tiles == len(tiles) {
		old, _, err := ownerTiles(a.mapping)
		if err == nil && slices.EqualFunc(old, tiles, func(x, y core.Tile) bool {
			return x.Proc == y.Proc && x.Region.Equal(y.Region)
		}) {
			return &remapPlan{to: a.lay}, nil
		}
	}
	to, err := layoutOf(e, newMap, tiles, single)
	if err != nil {
		return nil, err
	}
	pl := newRemapPlan(e.np, a.lay, to)
	if cuts := pl.analyzable(a, newMap); cuts != nil {
		pl.tileLines(a.dom, cuts)
	} else {
		pl.elementLines(a.dom.Size())
	}
	return pl.finish(), nil
}

func newRemapPlan(np int, from, to *layout) *remapPlan {
	return &remapPlan{from: from, to: to, copies: make([][]copyRun, np+1), ships: make([]exchange, np+1), pairs: pairBuilder{}}
}

// finish emits the pair intervals collected so far as the shipment.
func (pl *remapPlan) finish() *remapPlan {
	pl.pairs.emit(func(p int) *exchange { return &pl.ships[p] })
	return pl
}

// analyzable returns the uniform cuts to enumerate the remap of a to
// newMap by, nil when it is to be walked by element: a replicated
// side, tiles nearly as many as the elements, or no closed form
// (core.RemapCuts).
func (pl *remapPlan) analyzable(a *Array, newMap core.ElementMapping) [][]int {
	if pl.from.owners == nil || pl.to.owners == nil ||
		max(pl.from.tiles, pl.to.tiles)*remapMinTileElems > a.dom.Size() {
		return nil
	}
	return core.RemapCuts(a.dom, a.mapping, newMap)
}

// tileLines enumerates the lines of the uniform cells. A cell has one
// old and one new owner, read at its corner, and lies inside one tile
// of each layout, so each of its lines is one interval on both sides.
// It is cut along its longest dimension (the first among equals, in
// which every layout tile is contiguous): (BLOCK,:) → (CYCLIC(8),:)
// moves an 8-row band as 8 strided rows, not as 8 values per column.
func (pl *remapPlan) tileLines(dom index.Domain, cuts [][]int) {
	rank := dom.Rank()
	mul := strides(dom)
	at := make([]int, rank)
	core.ForEachCell(cuts, func(lo, hi []int) {
		off, vol, along := 0, 1, 0
		for d := range lo {
			off += (lo[d] - dom.Dims[d].Low) * mul[d]
			vol *= hi[d] - lo[d] + 1
			if hi[d]-lo[d] > hi[along]-lo[along] {
				along = d
			}
		}
		from, to := int(pl.from.owners[off]), int(pl.to.owners[off])
		if from != to {
			pl.moved += vol
		}
		copy(at, lo)
		for {
			pl.line(from, to, lineRef{off: off, step: mul[along]}, hi[along]-lo[along]+1)
			d := 0
			for ; d < rank; d++ {
				if d == along {
					continue
				}
				off += mul[d]
				if at[d]++; at[d] <= hi[d] {
					break
				}
				off -= (hi[d] - lo[d] + 1) * mul[d]
				at[d] = lo[d]
			}
			if d == rank {
				return
			}
		}
	})
}

// elementLines walks the domain by offset and emits, for every new
// owner of every element, a line of one: kept in place when that
// worker held the element before, shipped from the replica
// runtime.RemapSender picks otherwise.
func (pl *remapPlan) elementLines(size int) {
	var olds, news []int
	for off := 0; off < size; off++ {
		olds = pl.from.appendOwners(olds[:0], off)
		news = pl.to.appendOwners(news[:0], off)
		gained := false
		for _, p := range news {
			s := p
			if !slices.Contains(olds, p) {
				gained = true
				s = runtime.RemapSender(olds, p)
			}
			pl.line(s, p, lineRef{off: off}, 1)
		}
		if gained {
			pl.moved++
		}
	}
}

// line emits n elements that worker from holds under the old layout
// and worker to under the new one, in as many pieces as it takes for
// both sides of each to be evenly spaced in slot space. Adjacent
// pieces are joined wherever both sides continue evenly, so what the
// element walk feeds one at a time still comes out as intervals.
func (pl *remapPlan) line(from, to int, r lineRef, n int) {
	for n > 0 {
		sb, ss, m := slotRun(pl.from, from, r, n)
		db, ds, m := slotRun(pl.to, to, r, m)
		if from == to {
			pl.copies[to] = appendCopy(pl.copies[to], copyRun{span{sb, ss, int32(m)}, span{db, ds, int32(m)}})
		} else {
			if pl.seg == nil || from != pl.segFrom || to != pl.segTo {
				pl.seg, pl.segFrom, pl.segTo = pl.pairs.seg(from, to, pl.from.stores[from]), from, to
			}
			pl.seg.add(sb, ss, db, ds, int32(m))
		}
		n -= m
		r.off += m * r.step
	}
}

// appendCopy appends a copy to a worker's list, joining it to the last
// one when it continues it on both sides.
func appendCopy(cs []copyRun, c copyRun) []copyRun {
	if k := len(cs); k > 0 {
		last := &cs[k-1]
		ss, sok := follows(last.src.base, last.src.stride, last.src.count, c.src.base, c.src.stride, c.src.count)
		ds, dok := follows(last.dst.base, last.dst.stride, last.dst.count, c.dst.base, c.dst.stride, c.dst.count)
		if sok && dok {
			last.src.stride, last.src.count = ss, last.src.count+c.src.count
			last.dst.stride, last.dst.count = ds, last.dst.count+c.dst.count
			return cs
		}
	}
	return append(cs, c)
}
