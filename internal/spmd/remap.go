package spmd

import (
	"fmt"
	"slices"

	"hpfnt/internal/core"
	"hpfnt/internal/index"
	"hpfnt/internal/machine"
	"hpfnt/internal/obs"
	"hpfnt/internal/runtime"
)

// Remap moves an array to a new element mapping as a move of blocks, a
// block being a cell of the two tilings or, where a side replicates, an
// element. A worker copies the blocks it keeps from its old segment to
// its new one; a moved block is gathered from the sender's old segment
// and scattered by the receiver straight into its new segment, one
// message per pair. Every copy runs along dimension 0, contiguous in
// every layout tile. The sender of an element is runtime.RemapSender's,
// so the engine and the oracle charge identical traffic; values move
// bit for bit; nothing counts as load or a reference; and a mapping
// that tiles the array as before moves nothing (planRemap). Returns the
// number of elements whose owner set gained a member. Compiled
// schedules over the array are invalidated.
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
	b, err := planRemap(e, a, newMap)
	if b != nil {
		if cuts := b.cells(); cuts != nil {
			b.byCells(cuts)
		} else {
			b.byElements()
		}
	}
	if built != nil {
		built()
	}
	if err != nil {
		return 0, fmt.Errorf("spmd: remap of %s: %w", a.name, err)
	}
	return remapTo(a, newMap, b)
}

// planRemap returns the emitter of the move of a to newMap, or nil when
// the new mapping's tile index is the one a's layout holds: equal
// layouts slot for slot, with nothing to build or dispatch.
func planRemap(e *Engine, a *Array, newMap core.ElementMapping) (*remap, error) {
	x, err := indexOf(e, newMap)
	if err != nil || x.equal(a.lay.idx) {
		return nil, err
	}
	to, err := layoutOf(e, newMap, x)
	if err != nil {
		return nil, err
	}
	return newRemap(e, a, to), nil
}

// remap is the move of a onto the layout to: the plan both enumerators
// feed a block at a time — each worker's kept blocks as pairs of spans
// (old slots, new slots) of one shape, each pair's moved ones, the
// count of elements that gained an owner — and the epoch that runs it.
// The plan is O(blocks).
type remap struct {
	e     *Engine
	a     *Array
	to    *layout
	kept  [][][2]span
	pairs pairBuilder
	ex    []exchange
	moved int
}

func newRemap(e *Engine, a *Array, to *layout) *remap {
	return &remap{e: e, a: a, to: to, kept: make([][][2]span, e.np+1), pairs: pairBuilder{}, ex: make([]exchange, e.np+1)}
}

// cells returns the uniform cells of the two tilings, or nil when a
// side replicates or the domain is not unit-stride: the remap is then
// walked by element.
func (b *remap) cells() [][]int {
	id := index.Shift(make([]int, b.a.dom.Rank())...)
	return cellCuts(b.e, b.a.dom, []Term{{Src: b.a, Access: id}, {Src: &Array{dom: b.a.dom, lay: b.to}, Access: id}})
}

// byCells emits every cell as one block, located with its slot steps
// on each side by the layout indexes.
func (b *remap) byCells(cuts [][]int) {
	rank := len(cuts)
	buf := make([]int32, 4*rank)
	pos, ext, fs, ts := buf[:rank], buf[rank:2*rank], buf[2*rank:3*rank], buf[3*rank:]
	forEachCell(cuts, func(lo, hi []int) {
		n := 1
		for d, tr := range b.a.dom.Dims {
			pos[d], ext[d] = int32(lo[d]-tr.Low), int32(hi[d]-lo[d]+1)
			n *= hi[d] - lo[d] + 1
		}
		s, from := b.a.lay.idx.at(pos, fs)
		w, to := b.to.idx.at(pos, ts)
		if s != w {
			b.moved += n
		}
		b.block(int(s), int(w), from, to, ext, fs, ts)
	})
}

// byElements walks the domain by offset and emits each new copy of an
// element as a block of its own: kept where its new owner held it,
// else shipped from runtime.RemapSender's holder.
func (b *remap) byElements() {
	var olds, news []int
	for off := range b.a.dom.Size() {
		olds, news = b.a.lay.appendOwners(olds[:0], off), b.to.appendOwners(news[:0], off)
		gained := false
		for _, w := range news {
			s := w
			if !slices.Contains(olds, w) {
				s, gained = runtime.RemapSender(olds, w), true
			}
			from, _ := b.a.lay.slotIn(s, off)
			to, _ := b.to.slotIn(w, off)
			b.block(s, w, from, to, nil, nil, nil)
		}
		if gained {
			b.moved++
		}
	}
}

// block emits the block of worker s's old segment at slot from, moving
// to worker w's new segment at slot to: ext[d] positions along
// dimension d at slot steps fs[d] and ts[d], 1 along dimension 0 (no
// dimensions: one element). Each plane, dimensions 0 and 1, is a span
// per side; a kept plane takes a shape both sides share.
func (b *remap) block(s, w int, from, to int32, ext, fs, ts []int32) {
	n0, n1, fp, tp, planes := int32(1), int32(1), int32(0), int32(0), 1
	if len(ext) > 0 {
		n0 = ext[0]
	}
	if len(ext) > 1 {
		n1, fp, tp = ext[1], fs[1], ts[1]
	}
	for _, n := range ext[min(2, len(ext)):] {
		planes *= int(n)
	}
	for q := range planes {
		fb, tb := from, to
		for d, r := 2, q; d < len(ext); d++ {
			i := int32(r % int(ext[d]))
			fb, tb, r = fb+i*fs[d], tb+i*ts[d], r/int(ext[d])
		}
		f, t := plane(fb, n0, n1, fp), plane(tb, n0, n1, tp)
		if s != w {
			sg := b.pairs[[2]int{s, w}]
			if sg == nil {
				sg = []*segBuild{{st: b.a.lay.stores[s]}}
				b.pairs[[2]int{s, w}] = sg
			}
			sg[0].add(f, t)
			continue
		}
		if f.reps != t.reps {
			f, t = span{fb, 1, n0, n1, fp}, span{tb, 1, n0, n1, tp}
		}
		// A kept row joins the last when both sides continue it.
		k := b.kept[w]
		if n := len(k); n > 0 && f.reps == 1 && k[n-1][0].reps == 1 {
			a, c := &k[n-1][0], &k[n-1][1]
			fst, okf := follows(a.base, a.stride, a.count, f.base, f.stride, f.count)
			if tst, okt := follows(c.base, c.stride, c.count, t.base, t.stride, t.count); okf && okt {
				a.stride, a.count, c.stride, c.count = fst, a.count+f.count, tst, c.count+t.count
				continue
			}
		}
		b.kept[w] = append(k, [2]span{f, t})
	}
}

// plane is the span of n1 lines of n0 slots from base, pitch apart:
// one row when the lines follow each other.
func plane(base, n0, n1, pitch int32) span {
	switch {
	case n1 == 1 || pitch == n0:
		return strided(base, 1, n0*n1)
	case n0 == 1:
		return strided(base, pitch, n1)
	}
	return span{base, 1, n0, n1, pitch}
}

// copyBlocks copies each block's old slots to its new ones, row by row:
// copy() along a unit-stride row, an element loop along any other.
// Values move bit for bit, -0 and NaN payloads included.
func copyBlocks(dst, src []float64, blocks [][2]span) {
	for _, bl := range blocks {
		f, t := bl[0], bl[1]
		for r := range int(f.reps) {
			i, j, n := int(f.base)+r*int(f.pitch), int(t.base)+r*int(t.pitch), int(f.count)
			if f.stride == 1 && t.stride == 1 {
				copy(dst[j:j+n], src[i:i+n])
				continue
			}
			for range n {
				dst[j] = src[i]
				i += int(f.stride)
				j += int(t.stride)
			}
		}
	}
}

// remapTo runs the move b has enumerated, if any, and puts a on b's
// layout.
func remapTo(a *Array, newMap core.ElementMapping, b *remap) (int, error) {
	moved := 0
	if b != nil {
		b.pairs.emit(func(p int) *exchange { return &b.ex[p] })
		if err := b.e.run(b); err != nil {
			return 0, err
		}
		a.lay, moved = b.to, b.moved
	}
	a.mapping = newMap
	a.gen++
	return moved, nil
}

// A remap's epoch: in phase 0 each hosted worker allocates its new
// segment, zeroing it in parallel with its peers, and gathers and sends
// its moved blocks; in phase 1 it receives its gained blocks straight
// into the new segment; in phase 2 it copies the blocks it keeps.
func (*remap) phases() (int, []machine.Phase) { return 3, iteration }

func (b *remap) do(p, k int) {
	switch k {
	case 0:
		b.to.alloc(p)
		b.ex[p].send(b.e, p)
	case 1:
		b.ex[p].recv(b.e, p, b.to.stores[p].data)
	default:
		obs.AdvanceIteration() // progress for the elastic watchdog
		copyBlocks(b.to.stores[p].data, b.a.lay.stores[p].data, b.kept[p])
	}
}

func (*remap) span(p int) (string, string) {
	if p == 0 {
		return "epoch", "remap x1"
	}
	return "worker", fmt.Sprintf("rank %d x1", p)
}

func (b *remap) cost(p int) counters { return counters{sends: b.ex[p].sends, msgs: 1, frames: 1} }
