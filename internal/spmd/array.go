package spmd

import (
	"errors"
	"fmt"
	"math"

	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/index"
)

// store is one worker's local segment of an array: the global offsets
// it holds (in slot order) and the values. The layout comes from the
// owner-tile kernel: tiles in enumeration order, column-major within
// each tile, so block-like mappings get contiguous runs.
type store struct {
	offsets []int32
	data    []float64
}

// layout is the compiled ownership/storage metadata of one mapping:
// who owns each element and where each copy lives. It is compile-time
// metadata only — the values themselves exist solely in the per-worker
// stores.
type layout struct {
	// owners[off] is the single owner, or nil when replicated.
	owners []int32
	// repOwns[off] is the full owner set when replicated.
	repOwns [][]int
	// slotGrid[off] is the owner's slot of a single-owner element.
	slotGrid []int32
	// repSlot[p][off] is worker p's slot of a replicated element.
	repSlot []map[int]int32
	// stores[p] is worker p's segment (index 1..np).
	stores []*store
	// tiles is how many owner tiles a single-owner layout was filled
	// from.
	tiles int
}

// ownerTiles returns m's single-owner tile decomposition over its
// domain; single is false (and tiles nil) when m replicates.
func ownerTiles(m core.ElementMapping) (tiles []core.Tile, single bool, err error) {
	tiles, err = core.AppendOwnerTilesOf(nil, m, m.Domain())
	if errors.Is(err, dist.ErrMultiOwner) {
		return nil, false, nil
	}
	return tiles, err == nil, err
}

// buildLayout derives the local storage layout of a mapping on e: the
// single-owner tile decomposition when one exists, the replicated
// grid otherwise.
func buildLayout(e *Engine, m core.ElementMapping) (*layout, error) {
	tiles, single, err := ownerTiles(m)
	if err != nil {
		return nil, err
	}
	return layoutOf(e, m, tiles, single)
}

// layoutOf builds m's layout from its owner tiles (ownerTiles). The
// slot metadata (offsets, owner grids) is built for every rank — all
// processes of a job derive the identical layout — but value storage
// is allocated only for the ranks this process hosts.
func layoutOf(e *Engine, m core.ElementMapping, tiles []core.Tile, single bool) (*layout, error) {
	np := e.np
	dom := m.Domain()
	size := dom.Size()
	// Slots, offsets and run bases are int32 throughout the plans.
	if size > math.MaxInt32 {
		return nil, fmt.Errorf("domain %s has %d elements, above the %d a layout can index", dom, size, math.MaxInt32)
	}
	l := &layout{stores: make([]*store, np+1)}
	for p := 1; p <= np; p++ {
		l.stores[p] = &store{}
	}
	if single {
		l.owners = make([]int32, size)
		l.slotGrid = make([]int32, size)
		l.tiles = len(tiles)
		if err := l.fillTiles(np, dom, tiles); err != nil {
			return nil, err
		}
	} else {
		rg, rerr := core.ReplicatedGrid(m)
		if rerr != nil {
			return nil, rerr
		}
		l.repOwns = rg
		l.repSlot = make([]map[int]int32, np+1)
		for off, ps := range rg {
			for _, p := range ps {
				if p < 1 || p > np {
					return nil, fmt.Errorf("spmd: mapping owner %d out of range 1..%d", p, np)
				}
				if l.repSlot[p] == nil {
					l.repSlot[p] = map[int]int32{}
				}
				st := l.stores[p]
				l.repSlot[p][off] = int32(len(st.offsets))
				st.offsets = append(st.offsets, int32(off))
			}
		}
	}
	for p := 1; p <= np; p++ {
		if !e.hosted(p) {
			continue
		}
		st := l.stores[p]
		st.data = make([]float64, len(st.offsets))
	}
	return l, nil
}

// fillTiles lays the single-owner tiles out over the owner grids: a
// worker's slots are its tiles in enumeration order, column-major
// within each tile. That order is contract — compiled plans, the
// inspector lowering and checkpoint shards all address values by slot
// — so the fill may change how it walks, never what it numbers. One
// pass over the tiles sizes every segment exactly; a second writes each
// tile's first-dimension lines with counted loops over offset strides,
// so the cost per element is three stores and nothing is allocated per
// tile.
func (l *layout) fillTiles(np int, dom index.Domain, tiles []core.Tile) error {
	next := make([]int32, np+1) // volume per worker, then its next free slot
	for _, tl := range tiles {
		if tl.Proc < 1 || tl.Proc > np {
			return fmt.Errorf("spmd: mapping owner %d out of range 1..%d", tl.Proc, np)
		}
		next[tl.Proc] += int32(tl.Region.Size())
	}
	for p := 1; p <= np; p++ {
		l.stores[p].offsets = make([]int32, next[p])
		next[p] = 0
	}
	rank := dom.Rank()
	mul := strides(dom)
	// Per tile and dimension: extent, offset step between consecutive
	// tile indices, and the odometer position.
	ext, step, at := make([]int, rank), make([]int, rank), make([]int, rank)
	for _, tl := range tiles {
		off, vol := 0, 1
		for d, tr := range tl.Region.Dims {
			// The tile's indices must be the domain's at positions first,
			// first+by, …, last of dimension d.
			dd := dom.Dims[d]
			n := tr.Count()
			first, by := (tr.Low-dd.Low)/dd.Stride, tr.Stride/dd.Stride
			last := first + (n-1)*by
			if n > 0 && (dd.At(first) != tr.Low || dd.At(last) != tr.At(n-1) ||
				min(first, last) < 0 || max(first, last) >= dd.Count()) {
				return fmt.Errorf("spmd: tile %s outside domain %s", tl.Region, dom)
			}
			ext[d], step[d], at[d] = n, by*mul[d], 0
			off += first * mul[d]
			vol *= n
		}
		if vol == 0 {
			continue
		}
		n0, s0 := 1, 0 // a rank-0 tile is its one element
		if rank > 0 {
			n0, s0 = ext[0], step[0]
		}
		p := int32(tl.Proc)
		offsets, slot := l.stores[p].offsets, next[p]
		for {
			o := off
			for i := 0; i < n0; i++ {
				l.owners[o], l.slotGrid[o], offsets[slot] = p, slot, int32(o)
				o += s0
				slot++
			}
			d := 1
			for ; d < rank; d++ {
				off += step[d]
				if at[d]++; at[d] < ext[d] {
					break
				}
				off -= ext[d] * step[d]
				at[d] = 0
			}
			if d >= rank {
				break
			}
		}
		next[p] = slot
	}
	return nil
}

// Array is a distributed array on the spmd engine: per-worker local
// segments only, plus the compiled ownership metadata used by the
// schedule compiler and the element accessors.
type Array struct {
	name    string
	dom     index.Domain
	mapping core.ElementMapping
	eng     *Engine
	lay     *layout
	// gen counts remaps; schedules capture it at build time and
	// refuse to replay against a remapped array (their compiled plans
	// point into the pre-remap stores).
	gen int
}

// NewArray materializes a zero-initialized distributed array with
// local-only storage laid out from the mapping's owner tiles.
func (e *Engine) NewArray(name string, m core.ElementMapping) (*Array, error) {
	l, err := buildLayout(e, m)
	if err != nil {
		return nil, fmt.Errorf("spmd: materializing %s: %w", name, err)
	}
	return &Array{name: name, dom: m.Domain(), mapping: m, eng: e, lay: l}, nil
}

// Name returns the array name.
func (a *Array) Name() string { return a.name }

// Domain returns the array's index domain.
func (a *Array) Domain() index.Domain { return a.dom }

// Mapping returns the array's element mapping.
func (a *Array) Mapping() core.ElementMapping { return a.mapping }

// Replicated reports whether any element has more than one owner.
func (a *Array) Replicated() bool { return a.lay.owners == nil }

// appendOwners appends the owner set of the element at offset off.
func (l *layout) appendOwners(dst []int, off int) []int {
	if l.owners != nil {
		return append(dst, int(l.owners[off]))
	}
	return append(dst, l.repOwns[off]...)
}

// firstOwner returns the first owner of the element at offset off.
func (l *layout) firstOwner(off int) int {
	if l.owners != nil {
		return int(l.owners[off])
	}
	return l.repOwns[off][0]
}

// ownedBy reports whether worker p holds the element at offset off.
func (l *layout) ownedBy(off, p int) bool {
	if l.owners != nil {
		return int(l.owners[off]) == p
	}
	for _, o := range l.repOwns[off] {
		if o == p {
			return true
		}
	}
	return false
}

// slotOf returns worker p's slot of the element at offset off; p must
// own the element.
func (l *layout) slotOf(p, off int) int32 {
	if l.owners != nil {
		return l.slotGrid[off]
	}
	return l.repSlot[p][off]
}

// At reads the element at tuple t (from its first owner's segment).
// Only valid between engine operations. On a multi-process transport
// this is a collective — every process calls it at the same point and
// the owner's host broadcasts the value.
func (a *Array) At(t index.Tuple) float64 {
	off, ok := a.dom.Offset(t)
	if !ok {
		panic(fmt.Sprintf("spmd: %s: index %s out of domain %s", a.name, t, a.dom))
	}
	p := a.lay.firstOwner(off)
	tr := a.eng.tr
	if tr.Procs() == 1 {
		return a.lay.stores[p].data[a.lay.slotOf(p, off)]
	}
	var vals []float64
	if a.eng.hosted(p) {
		vals = []float64{a.lay.stores[p].data[a.lay.slotOf(p, off)]}
	}
	out := tr.Bcast(tr.HostOf(p), vals)
	if len(out) == 0 {
		return 0 // failed job
	}
	return out[0]
}

// Set writes the element at tuple t into every owner's copy (each
// process writes the copies it hosts; no communication is needed when
// every process executes the same Set).
func (a *Array) Set(t index.Tuple, v float64) {
	off, ok := a.dom.Offset(t)
	if !ok {
		panic(fmt.Sprintf("spmd: %s: index %s out of domain %s", a.name, t, a.dom))
	}
	var scratch [1]int
	for _, p := range a.lay.appendOwners(scratch[:0], off) {
		if !a.eng.hosted(p) {
			continue
		}
		a.lay.stores[p].data[a.lay.slotOf(p, off)] = v
	}
}

// Fill initializes every element from fn, each worker filling its own
// segment (concurrently, under the parallel dispatcher). fn must be
// pure: replicated elements are computed once per copy, and in a
// multi-process job every process fills only the segments it hosts.
// The tuple fn receives is reused from element to element; fn must not
// modify it, and must clone it to retain it. A panic in fn fails the
// engine; the error surfaces from the next dispatched operation.
func (a *Array) Fill(fn func(t index.Tuple) float64) {
	lay, dom, rank := a.lay, a.dom, a.dom.Rank()
	step0, last0 := 0, 0
	if rank > 0 {
		step0, last0 = dom.Dims[0].Stride, dom.Dims[0].Last()
	}
	// The error is sticky on the engine; Fill itself has no error
	// return in the backend interface.
	_ = a.eng.run(1, func(p, _ int) {
		st := lay.stores[p]
		t := make(index.Tuple, rank)
		bump := -1 // the offset reached by advancing t[0] one step
		for k, o := range st.offsets {
			if off := int(o); off == bump {
				t[0] += step0
			} else {
				for d, tr := range dom.Dims {
					n := tr.Count()
					t[d] = tr.At(off % n)
					off /= n
				}
			}
			if bump = -1; rank > 0 && t[0] != last0 {
				bump = int(o) + 1
			}
			st.data[k] = fn(t)
		}
	})
}

// Data materializes the dense column-major global value vector (from
// each element's lowest-ranked owner), for verification against the
// element-wise oracle; the interpreter reads every array through it at
// the end of each Run. On a multi-process transport this is a
// collective: each rank's segment is broadcast from its host, and
// every process returns the identical vector.
func (a *Array) Data() []float64 {
	out := make([]float64, a.dom.Size())
	tr := a.eng.tr
	// Scatter segments in descending rank order so the lowest-ranked
	// owner's copy of a replicated element lands last.
	for p := a.eng.np; p >= 1; p-- {
		st := a.lay.stores[p]
		seg := st.data
		if tr.Procs() > 1 {
			var vals []float64
			if a.eng.hosted(p) {
				vals = st.data
			}
			seg = tr.Bcast(tr.HostOf(p), vals)
		}
		for k, off := range st.offsets {
			if k < len(seg) {
				out[off] = seg[k]
			}
		}
	}
	return out
}
