package spmd

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/index"
)

// store is one worker's local segment of an array: its values, in slot
// order. Which element a slot holds is the layout's to say.
type store struct {
	data []float64
}

// layout is the compiled ownership/storage metadata of one mapping:
// who owns each element and where each copy lives. It is compile-time
// metadata only — the values themselves exist solely in the per-worker
// stores.
type layout struct {
	// idx places every element of a single-owner mapping; nil when
	// replicated.
	idx *tileIndex
	// repOwns[off] is the full owner set when replicated.
	repOwns [][]int
	// repSlot[p][off] is worker p's slot of a replicated element.
	repSlot []map[int]int32
	// stores[p] is worker p's segment (index 1..np).
	stores []*store
}

// tileIndex places the elements of a single-owner layout. A worker's
// slots are its owner tiles in enumeration order, column-major within
// each tile. That order is contract — compiled plans, the inspector
// lowering and checkpoint shards all address values by slot — so the
// index may change how it finds a slot, never which one it finds.
// Each dimension is cut at every tile boundary; a cell of the cut
// grid lies in one tile and holds its elements column-major from a
// slot base. The index is O(cells): a cell per tile for the product
// tilings of distributions, alignments and sections, never more than a
// cell per element.
type tileIndex struct {
	// cuts[d] are the ascending positions (0-based along dimension d)
	// where a cell starts, closed by the dimension's extent.
	cuts [][]int32
	// width[d] is the extent of all but the last cell interval of
	// dimension d, or 0 when they differ: the cuts of BLOCK, CYCLIC(k)
	// and collapsed dimensions, where a division finds a position's
	// interval instead of a search.
	width []int32
	// owner[c] and base[c] of cell c, cells numbered column-major.
	owner, base []int32
	// vol[p] is worker p's slot count.
	vol []int32
	// owners and slots are the translation table, once table made it.
	owners, slots []int32
}

// indexOf returns the tile index of m's layout on e, or nil when m
// replicates.
func indexOf(e *Engine, m core.ElementMapping) (*tileIndex, error) {
	dom := m.Domain()
	// Slots, offsets and run bases are int32 throughout the plans.
	if size := dom.Size(); size > math.MaxInt32 {
		return nil, fmt.Errorf("domain %s has %d elements, above the %d a layout can index", dom, size, math.MaxInt32)
	}
	tiles, err := core.AppendOwnerTilesOf(nil, m, dom)
	if errors.Is(err, dist.ErrMultiOwner) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	// span[k·rank+d] is the first position and extent along d of tile
	// k, all zero for an empty tile. at[d][v] marks a cut at position v
	// of dimension d, and then numbers it.
	rank := dom.Rank()
	span, at := make([][2]int32, len(tiles)*rank), make([][]int32, rank)
	for d, dd := range dom.Dims {
		at[d] = make([]int32, dd.Count()+1)
		at[d][0], at[d][dd.Count()] = 1, 1
	}
	for k, tl := range tiles {
		if tl.Proc < 1 || tl.Proc > e.np {
			return nil, fmt.Errorf("spmd: mapping owner %d out of range 1..%d", tl.Proc, e.np)
		}
		sp, vol := span[k*rank:k*rank+rank], 1
		for d, tr := range tl.Region.Dims {
			dd, first, n := dom.Dims[d], tr.Low-dom.Dims[d].Low, max(tr.High-tr.Low+1, 0)
			if dd.Stride != 1 || tr.Stride != 1 {
				first, n = first/dd.Stride, tr.Count()
			}
			if n > 0 && (n > 1 && tr.Stride != dd.Stride || dd.At(first) != tr.Low || first < 0 || first+n >= len(at[d])) {
				return nil, fmt.Errorf("spmd: tile %s outside domain %s", tl.Region, dom)
			}
			sp[d], vol = [2]int32{int32(first), int32(n)}, vol*n
		}
		if vol == 0 {
			clear(sp)
		}
		for d, s := range sp {
			at[d][s[0]], at[d][s[0]+s[1]] = 1, 1
		}
	}
	// Cut each dimension at the tile boundaries or, when that leaves a
	// tile in several cells, everywhere: a cell per element.
	x := &tileIndex{cuts: make([][]int32, rank), width: make([]int32, rank)}
	for fine := false; ; fine = true {
		cells := 1
		for d, c := range at {
			n := int32(0)
			for v := range c {
				if fine {
					c[v] = 1
				}
				n += c[v]
			}
			// Without a branch: position v gets the number of cuts before
			// it, and is the cut of that number if it is one (the last
			// position is, so a later cut overwrites it if it is not).
			cd, k := make([]int32, n), int32(0)
			for v, cut := range c {
				c[v], cd[k] = k, int32(v)
				k += cut
			}
			x.cuts[d], x.width[d] = cd, cd[min(1, n-1)]
			for i := 2; i+1 < len(cd); i++ {
				if cd[i]-cd[i-1] != cd[1] {
					x.width[d] = 0
				}
			}
			cells *= int(n) - 1
		}
		x.owner, x.base = make([]int32, cells), make([]int32, cells)
		if x.place(dom, tiles, span, at, e.np, fine) {
			return x, nil
		}
	}
}

// place gives each cell the owner and slot base of its tile. Each
// tile must be one cell, or else — fine — each element is one: its
// base is then its tile's base plus its column-major position in the
// tile, and its cell number its offset.
func (x *tileIndex) place(dom index.Domain, tiles []core.Tile, span [][2]int32, cutAt [][]int32, np int, fine bool) bool {
	rank := len(x.cuts)
	x.vol = make([]int32, np+1)
	for k := range tiles {
		sp, p, vol, cell, cm := span[k*rank:k*rank+rank], int32(tiles[k].Proc), int32(1), 0, 1
		for d, c := range cutAt {
			if !fine && c[sp[d][0]+sp[d][1]]-c[sp[d][0]] > 1 {
				return false
			}
			cell += int(c[sp[d][0]]) * cm
			cm *= len(x.cuts[d]) - 1
			vol *= sp[d][1]
		}
		switch slot := x.vol[p]; {
		case vol == 0:
		case !fine:
			x.owner[cell], x.base[cell] = p, slot
		default:
			tiles[k].Region.ForEach(func(t index.Tuple) bool {
				off, _ := dom.Offset(t)
				x.owner[off], x.base[off] = p, slot
				slot++
				return true
			})
		}
		x.vol[p] += vol
	}
	return true
}

// locate returns the owner and slot of the element at offset off.
func (x *tileIndex) locate(off int) (p, slot int32) {
	var buf [8]int32
	pos, rest := buf[:0], uint32(off) // offsets fit in 32 bits
	for _, c := range x.cuts {
		n := uint32(c[len(c)-1])
		pos = append(pos, int32(rest%n))
		rest /= n
	}
	return x.at(pos, nil)
}

// at returns the owner and slot of the element at positions pos
// (0-based along each dimension): one step per dimension finds its
// cell, then the cell's base plus the element's column-major position
// in the cell. If step is not nil, step[d] is the slot's advance to
// the next position along d when that is in the same cell, and 0 when
// it is not.
func (x *tileIndex) at(pos, step []int32) (p, slot int32) {
	cell, cm, m := 0, 1, int32(1)
	for d, c := range x.cuts {
		// The interval i: c[i] ≤ pos[d] < c[hi].
		i, hi := 0, len(c)-1
		if w := x.width[d]; w == 0 {
			for hi-i > 1 {
				if mid := (i + hi) / 2; c[mid] <= pos[d] {
					i = mid
				} else {
					hi = mid
				}
			}
		} else if w == 1 {
			i = min(int(pos[d]), hi-1)
		} else if hi > 1 {
			i = min(int(pos[d]/w), hi-1)
		}
		cell += i * cm
		cm *= len(c) - 1
		slot += (pos[d] - c[i]) * m
		if step != nil {
			step[d] = 0
			if pos[d]+1 < c[i+1] {
				step[d] = m
			}
		}
		m *= c[i+1] - c[i]
	}
	return x.owner[cell], x.base[cell] + slot
}

// line is a run of n elements of worker p: offsets off, off+1, …
// held at slots slot, slot+1, ….
type line struct{ p, off, slot, n int32 }

// lineBatch is how many lines a walk hands over at once: a
// fine-grained mapping has a line per element or two, too many to
// make a call each.
const lineBatch = 256

// walk hands fn, in batches, the lines of worker w (of every worker
// if w is 0): the runs along dimension 0 of the cells. In order, they
// ascend by offset: the fold order of Reduce. Out of order — all Data,
// Fill and the translation table need — the walk goes a cell at a time
// along dimension 1: a batch is a strip of cells up to their next cut
// there, handed over once per row, each line a position further.
func (x *tileIndex) walk(w int, ordered bool, fn func([]line)) {
	rank, buf, rows := len(x.cuts), make([]line, 0, lineBatch), int32(1)
	if len(x.owner) == 0 {
		return
	}
	// at[d] is the row's position along d ≥ 1, in cell interval c[d].
	c0, at, c := []int32{0, 1}, make([]int32, rank), make([]int, rank)
	if rank > 0 {
		c0 = x.cuts[0]
	}
	for {
		// The row's cells are row+i; a position along d ≥ 1 adds in·(the
		// cell's extent along dimension 0) to a cell's base.
		row, cm, in, m, off, mul := 0, len(c0)-1, int32(0), int32(1), int32(0), c0[len(c0)-1]
		for d := 1; d < rank; d++ {
			cd := x.cuts[d]
			row += c[d] * cm
			cm *= len(cd) - 1
			in += (at[d] - cd[c[d]]) * m
			m *= cd[c[d]+1] - cd[c[d]]
			off += at[d] * mul
			mul *= cd[len(cd)-1]
		}
		step := int32(1)
		if !ordered && rank > 1 {
			step = x.cuts[1][c[1]+1] - at[1]
		}
		if step != rows && len(buf) > 0 {
			strip(fn, buf, rows, c0[len(c0)-1])
			buf = buf[:0]
		}
		rows = step
		for i := 0; i+1 < len(c0); i++ {
			if p := x.owner[row+i]; w == 0 || int(p) == w {
				n := c0[i+1] - c0[i]
				if buf = append(buf, line{p, off + c0[i], x.base[row+i] + n*in, n}); len(buf) == lineBatch {
					strip(fn, buf, rows, c0[len(c0)-1])
					buf = buf[:0]
				}
			}
		}
		d := 1
		for ; d < rank; d++ {
			cd := x.cuts[d]
			if at[d] += step; at[d] < cd[len(cd)-1] {
				if at[d] == cd[c[d]+1] {
					c[d]++
				}
				break
			}
			at[d], c[d], step = 0, 0, 1
		}
		if d >= rank {
			break
		}
	}
	if len(buf) > 0 {
		strip(fn, buf, rows, c0[len(c0)-1])
	}
}

// strip hands fn the lines of buf rows times, moving each by pitch
// offsets and its length in slots in between: the next row of its
// cell.
func strip(fn func([]line), buf []line, rows, pitch int32) {
	for fn(buf); rows > 1; rows-- {
		for i := range buf {
			buf[i].off, buf[i].slot = buf[i].off+pitch, buf[i].slot+buf[i].n
		}
		fn(buf)
	}
}

// table returns the owner and slot of every element by offset: the
// translation table of the inspector and its lowering. A
// cell-per-element index lends its owner and base arrays; any other
// fills one from the cell walk on first use and keeps it.
func (x *tileIndex) table() (owners, slots []int32) {
	n := int32(0)
	for _, v := range x.vol {
		n += v
	}
	if x.owners == nil && len(x.owner) == int(n) {
		x.owners, x.slots = x.owner, x.base
	} else if x.owners == nil {
		x.owners, x.slots = make([]int32, n), make([]int32, n)
		x.walk(0, false, func(ls []line) {
			for _, ln := range ls {
				for i := range ln.n {
					x.owners[ln.off+i], x.slots[ln.off+i] = ln.p, ln.slot+i
				}
			}
		})
	}
	return x.owners, x.slots
}

// equal reports whether two indexes place every element alike.
func (x *tileIndex) equal(y *tileIndex) bool {
	return x != nil && y != nil && slices.EqualFunc(x.cuts, y.cuts, slices.Equal[[]int32]) &&
		slices.Equal(x.owner, y.owner) && slices.Equal(x.base, y.base)
}

// buildLayout derives the local storage layout of a mapping on e: the
// single-owner tile index when one exists, the replicated grid
// otherwise.
func buildLayout(e *Engine, m core.ElementMapping) (*layout, error) {
	x, err := indexOf(e, m)
	if err != nil {
		return nil, err
	}
	return layoutOf(e, m, x)
}

// layoutOf builds m's layout around its tile index x (nil when m
// replicates). The slot metadata is built for every rank — all
// processes of a job derive the identical layout — but value storage
// is allocated only for the ranks this process hosts.
func layoutOf(e *Engine, m core.ElementMapping, x *tileIndex) (*layout, error) {
	np := e.np
	l := &layout{idx: x, stores: make([]*store, np+1)}
	var vol []int32
	if x != nil {
		vol = x.vol
	} else {
		vol = make([]int32, np+1)
		rg, err := core.ReplicatedGrid(m)
		if err != nil {
			return nil, err
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
				l.repSlot[p][off] = vol[p]
				vol[p]++
			}
		}
	}
	for p := 1; p <= np; p++ {
		l.stores[p] = &store{}
		if e.hosted(p) {
			l.stores[p].data = make([]float64, vol[p])
		}
	}
	return l, nil
}

// walk is the index's walk or, for a replicated layout, a line per
// copy of each element in ascending offset order either way.
func (l *layout) walk(w int, ordered bool, fn func([]line)) {
	if l.idx != nil {
		l.idx.walk(w, ordered, fn)
		return
	}
	buf := make([]line, 0, lineBatch)
	for off, ps := range l.repOwns {
		for _, p := range ps {
			if w != 0 && p != w {
				continue
			}
			if buf = append(buf, line{int32(p), int32(off), l.repSlot[p][off], 1}); len(buf) == lineBatch {
				fn(buf)
				buf = buf[:0]
			}
		}
	}
	if len(buf) > 0 {
		fn(buf)
	}
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
func (a *Array) Replicated() bool { return a.lay.idx == nil }

// appendOwners appends the owner set of the element at offset off.
func (l *layout) appendOwners(dst []int, off int) []int {
	if l.idx != nil {
		p, _ := l.idx.locate(off)
		return append(dst, int(p))
	}
	return append(dst, l.repOwns[off]...)
}

// firstOwner returns the first owner of the element at offset off and
// its slot there.
func (l *layout) firstOwner(off int) (int, int32) {
	if l.idx != nil {
		p, slot := l.idx.locate(off)
		return int(p), slot
	}
	p := l.repOwns[off][0]
	return p, l.repSlot[p][off]
}

// slotIn returns worker p's slot of the element at offset off and
// whether p holds it.
func (l *layout) slotIn(p, off int) (int32, bool) {
	if l.idx != nil {
		q, slot := l.idx.locate(off)
		return slot, int(q) == p
	}
	slot, ok := l.repSlot[p][off]
	return slot, ok
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
	p, slot := a.lay.firstOwner(off)
	tr := a.eng.tr
	if tr.Procs() == 1 {
		return a.lay.stores[p].data[slot]
	}
	var vals []float64
	if a.eng.hosted(p) {
		vals = []float64{a.lay.stores[p].data[slot]}
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
		slot, _ := a.lay.slotIn(p, off)
		a.lay.stores[p].data[slot] = v
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
	count, n0 := make([]int, rank), 1 // n0: the elements of a row along dimension 0
	for d, tr := range dom.Dims {
		count[d] = tr.Count()
	}
	if rank > 0 {
		n0 = count[0]
	}
	// The error is sticky on the engine; Fill itself has no error
	// return in the backend interface.
	_ = a.eng.run(fill(func(p int) {
		data := lay.stores[p].data
		// t is in the row [start, end). It fills whole cache lines of
		// its own: a worker writes it per element, and a line shared
		// with what another worker's fn reads (the coefficients of a
		// compiled FORALL expression) would bounce between their cores.
		t, start, end := make(index.Tuple, rank, (rank+7)/8*8), 0, 0
		lay.walk(p, false, func(ls []line) {
			for _, ln := range ls {
				off, slot := int(ln.off), int(ln.slot)
				if off < start || off >= end { // a division per row left, not per line
					rest := off
					for d, tr := range dom.Dims {
						t[d] = tr.At(rest % count[d])
						rest /= count[d]
					}
					start = off - off%n0
					end = start + n0
				}
				if rank > 0 {
					t[0] = dom.Dims[0].At(off - start)
				}
				data[slot] = fn(t)
				for i := 1; i < int(ln.n); i++ { // only a rank > 0 line is longer
					t[0] += dom.Dims[0].Stride
					data[slot+i] = fn(t)
				}
			}
		})
	}))
}

// Data materializes the dense column-major global value vector (from
// each element's lowest-ranked owner), for verification against the
// element-wise oracle; the interpreter reads every array through it at
// the end of each Run. On a multi-process transport this is a
// collective: each rank's segment is broadcast from its host, and
// every process returns the identical vector.
func (a *Array) Data() []float64 {
	out := make([]float64, a.dom.Size())
	tr, lay := a.eng.tr, a.lay
	segs := make([][]float64, a.eng.np+1)
	for p := a.eng.np; p >= 1; p-- {
		segs[p] = lay.stores[p].data
		if tr.Procs() > 1 {
			var vals []float64
			if a.eng.hosted(p) {
				vals = segs[p]
			}
			segs[p] = tr.Bcast(tr.HostOf(p), vals)
		}
	}
	lay.walk(0, false, func(ls []line) {
		for _, ln := range ls {
			seg := segs[ln.p]
			if int(ln.slot+ln.n) > len(seg) || lay.idx == nil && int(ln.p) != slices.Min(lay.repOwns[ln.off]) {
				continue
			}
			// A loop, not copy: most lines of a fine-grained mapping are
			// a few elements long.
			dst, src := out[ln.off:ln.off+ln.n], seg[ln.slot:ln.slot+ln.n]
			for i := range dst {
				dst[i] = src[i]
			}
		}
	})
	return out
}
