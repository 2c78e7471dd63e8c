package spmd

import (
	"cmp"
	"fmt"
	"slices"

	"hpfnt/internal/core"
	"hpfnt/internal/index"
	"hpfnt/internal/obs"
)

// compile is the regular producer. A statement reaches the emitter
// (planBuilder.line) as lines — n consecutive elements along one
// dimension, written by one worker, each term read from one owner —
// from one of two enumerators: tileLines, the lines of the uniform
// cells of the owner-tile intersection, O(tiles + runs + ghost runs) in
// all; or elementLines, the region walked element by element, for
// everything without that closed form. Which one follows from the
// statement alone (analyzable), and the plans agree: the emitter joins
// adjacent lines whose slots advance evenly, so what the element walk
// feeds one at a time comes out as the runs the tile enumerator emits
// whole. Classification, deduplication, sender choice (first owner)
// and load charging follow the element-wise oracle's rules (package
// runtime), so the aggregated statistics agree with it.
func (e *Engine) compile(lhs *Array, region index.Domain, terms []cterm) (*Schedule, error) {
	b, err := newPlanBuilder(e, lhs, region, terms)
	if err != nil {
		return nil, err
	}
	if obs.TraceEnabled() {
		if end := obs.BeginSpan("build", fmt.Sprintf("compile %s%s", lhs.name, region), 0); end != nil {
			defer end()
		}
	}
	if cuts := b.analyzable(region); cuts != nil {
		b.tileLines(region, cuts)
	} else if err := b.elementLines(region); err != nil {
		return nil, err
	}
	return b.finish(), nil
}

// planBuilder is the emitter both enumerators feed: it lowers lines to
// slot runs per worker and collects the ghost lines each worker needs;
// finish unions those per (source array, reader), numbers the ghost
// buffers, ships each new interval through the pairBuilder and joins
// the runs.
type planBuilder struct {
	e     *Engine
	lhs   *Array
	terms []cterm
	// srcs are the distinct source arrays in order of first use and
	// srcOf[t] is term t's entry: ghosts are deduplicated per array,
	// however many terms read it.
	srcs  []*Array
	srcOf []int
	// A ghost line of srcs[i] is the offsets key + x·gstep[i] for x in
	// [lo, lo+n), 0 ≤ x < gext[i]: lines with one key lie along one
	// grid line of the source, so their union is interval arithmetic
	// on x. The enumerator fixes the direction before its first line.
	gstep, gext []int
	work        []*workBuild // index 1..np, nil until a worker gets a line
	pairs       pairBuilder
}

// workBuild is one worker's plan under construction; localRefs and
// remoteRefs count every read, before deduplication.
type workBuild struct {
	runs                        []krun
	terms                       []kterm
	reqs                        []ghostReq
	load, localRefs, remoteRefs int
}

// ghostReq is one remote read line: n elements of srcs[src] from x =
// lo on the grid line key, read by the run term at terms[term].
type ghostReq struct {
	src, key, lo, n, term int32
}

// lineRef locates one side of a line: the column-major offset of its
// first element in the array's domain, and the offset step between
// consecutive elements.
type lineRef struct {
	off, step int
}

func newPlanBuilder(e *Engine, lhs *Array, region index.Domain, terms []cterm) (*planBuilder, error) {
	if lhs.eng != e {
		return nil, fmt.Errorf("spmd: array %s belongs to a different engine", lhs.name)
	}
	if region.Rank() != lhs.dom.Rank() {
		return nil, fmt.Errorf("spmd: region rank %d does not match %s rank %d", region.Rank(), lhs.name, lhs.dom.Rank())
	}
	b := &planBuilder{e: e, lhs: lhs, terms: terms, srcOf: make([]int, len(terms)),
		work: make([]*workBuild, e.np+1), pairs: pairBuilder{}}
	for t, tm := range terms {
		if tm.src.eng != e {
			return nil, fmt.Errorf("spmd: term source %s belongs to a different engine", tm.src.name)
		}
		if b.srcOf[t] = slices.Index(b.srcs, tm.src); b.srcOf[t] < 0 {
			b.srcOf[t] = len(b.srcs)
			b.srcs = append(b.srcs, tm.src)
		}
	}
	b.gstep, b.gext = make([]int, len(b.srcs)), make([]int, len(b.srcs))
	return b, nil
}

// analyzable returns the uniform cuts of the statement when it has a
// closed form, nil when it must be walked element by element:
// core.RunAnalyzable over single-owner arrays and shift terms only,
// plus the existence of the bulk tilings.
func (b *planBuilder) analyzable(region index.Domain) [][]int {
	if b.lhs.lay.owners == nil || region.Rank() == 0 {
		return nil
	}
	refs := make([]core.ShiftRef, len(b.terms))
	for t, tm := range b.terms {
		if tm.mapf != nil || tm.src.lay.owners == nil {
			return nil
		}
		refs[t] = core.ShiftRef{Map: tm.src.mapping, Shift: tm.shift}
	}
	if !core.RunAnalyzable(region, b.lhs.dom, refs) {
		return nil
	}
	cuts, _ := core.UniformCuts(region, b.lhs.mapping, refs) // nil on error
	return cuts
}

// strides returns the column-major offset multiplier of each dimension
// of a standard domain.
func strides(dom index.Domain) []int {
	m := make([]int, dom.Rank())
	mult := 1
	for d, tr := range dom.Dims {
		m[d] = mult
		mult *= tr.Count()
	}
	return m
}

// tileLines enumerates the lines of the uniform cells. A cell with a
// remote read is cut along one dimension fixed for the whole statement
// — ghost lines must share a direction to be unioned — chosen as the
// one in which cells are longest on average: the collapsed dimension of
// (BLOCK,:) and (CYCLIC,:), where a boundary row is one line. An
// all-local cell is cut along the first dimension, in which every
// layout tile is contiguous, unless it is one element thick there.
func (b *planBuilder) tileLines(region index.Domain, cuts [][]int) {
	rank, T := region.Rank(), len(b.terms)
	gdim, longest, cells := 0, 0.0, 1
	for d, c := range cuts {
		if mean := float64(region.Dims[d].Count()) / float64(len(c)-1); mean > longest {
			gdim, longest = d, mean
		}
		cells *= len(c) - 1
	}
	for i, a := range b.srcs {
		b.gstep[i], b.gext[i] = strides(a.dom)[gdim], a.dom.Dims[gdim].Count()
	}
	// Fine-grain interleavings have a line per element: size each
	// worker's lists for an even share of the cells up front.
	share := cells/b.e.np + 1
	for p := 1; p <= b.e.np; p++ {
		b.work[p] = &workBuild{runs: make([]krun, 0, share), terms: make([]kterm, 0, share*T), reqs: make([]ghostReq, 0, share)}
	}
	lmul := strides(b.lhs.dom)
	smul := make([][]int, T)
	for t, tm := range b.terms {
		smul[t] = strides(tm.src.dom)
	}
	// locate sets lhs/refs to the offsets of the element at.
	var lhs lineRef
	refs := make([]lineRef, T)
	locate := func(at []int) {
		lhs.off = 0
		for d, v := range at {
			lhs.off += (v - b.lhs.dom.Dims[d].Low) * lmul[d]
		}
		for t, tm := range b.terms {
			refs[t].off = 0
			for d, v := range at {
				refs[t].off += (v + tm.shift[d] - tm.src.dom.Dims[d].Low) * smul[t][d]
			}
		}
	}
	at := make([]int, rank)
	core.ForEachCell(cuts, func(lo, hi []int) {
		copy(at, lo)
		locate(at)
		w := int(b.lhs.lay.owners[lhs.off])
		along := 0
		if hi[0] == lo[0] {
			along = gdim
		}
		for t, tm := range b.terms {
			if int(tm.src.lay.owners[refs[t].off]) != w {
				along = gdim
			}
		}
		lhs.step = lmul[along]
		for t := range refs {
			refs[t].step = smul[t][along]
		}
		for {
			b.line(w, hi[along]-lo[along]+1, lhs, refs)
			d := 0
			for ; d < rank; d++ {
				if d == along {
					continue
				}
				if at[d]++; at[d] <= hi[d] {
					break
				}
				at[d] = lo[d]
			}
			if d == rank {
				return
			}
			locate(at)
		}
	})
}

// elementLines walks the region once, column-major like the element-wise
// oracle, and emits every element as a line of its own to each of
// its writers. Sources are treated as flat (one grid line, x the
// offset), so a ghost is one element.
func (b *planBuilder) elementLines(region index.Domain) error {
	for i, a := range b.srcs {
		b.gstep[i], b.gext[i] = 1, a.dom.Size()
	}
	lhs := b.lhs
	ref := make(index.Tuple, lhs.dom.Rank())
	refs := make([]lineRef, len(b.terms))
	var writers []int
	var ferr error
	region.ForEach(func(t index.Tuple) bool {
		loff, ok := lhs.dom.Offset(t)
		if !ok {
			ferr = fmt.Errorf("spmd: region index %s outside %s domain %s", t, lhs.name, lhs.dom)
			return false
		}
		for ti := range b.terms {
			tm := &b.terms[ti]
			rt := ref
			if tm.mapf != nil {
				rt = tm.mapf(t.Clone())
			} else {
				for d := range t {
					ref[d] = t[d] + tm.shift[d]
				}
			}
			if refs[ti].off, ok = tm.src.dom.Offset(rt); !ok {
				ferr = fmt.Errorf("spmd: reference %s(%s) out of bounds in assignment to %s(%s)", tm.src.name, rt, lhs.name, t)
				return false
			}
		}
		writers = lhs.lay.appendOwners(writers[:0], loff)
		for _, w := range writers {
			b.line(w, 1, lineRef{off: loff}, refs)
		}
		return true
	})
	return ferr
}

// slotRun lowers a line to worker p's slots of l: base, stride and the
// length m ≤ n of the prefix that is evenly spaced. Base and stride
// are read at the near end and checked at the far end, halving until
// they agree, so a line is never assumed to stay inside one tile of
// the layout. (Slots along a line that leaves a tile jump by the rest
// of the tile and can only move one way, so the far end cannot land
// back on the even position.)
func slotRun(l *layout, p int, r lineRef, n int) (base, stride int32, m int) {
	base = l.slotOf(p, r.off)
	for m = n; m > 1; m = (m + 1) / 2 {
		stride = l.slotGrid[r.off+r.step] - base
		if int(l.slotGrid[r.off+(m-1)*r.step]) == int(base)+(m-1)*int(stride) {
			break
		}
	}
	return base, stride, m
}

// line emits n elements written by worker w: the lhs elements at lhs
// and, for each term, the elements read at refs[t] — from one owner
// throughout (the enumerators see to that). A read w does not own
// becomes a ghost line, resolved by finish. The line is emitted in as
// many runs as it takes for every local side of each to be evenly
// spaced in slot space.
func (b *planBuilder) line(w, n int, lhs lineRef, refs []lineRef) {
	wb := b.work[w]
	if wb == nil {
		wb = &workBuild{}
		b.work[w] = wb
	}
	wb.load += n * len(b.terms)
	for n > 0 {
		base, stride, m := slotRun(b.lhs.lay, w, lhs, n)
		at := len(wb.terms)
		for t, tm := range b.terms {
			kt := kterm{ghost: !tm.src.lay.ownedBy(refs[t].off, w)}
			if !kt.ghost {
				kt.base, kt.stride, m = slotRun(tm.src.lay, w, refs[t], m)
			}
			wb.terms = append(wb.terms, kt)
		}
		wb.runs = append(wb.runs, krun{base, stride, int32(m)})
		for t, kt := range wb.terms[at:] {
			if !kt.ghost {
				wb.localRefs += m
				continue
			}
			wb.remoteRefs += m
			i := b.srcOf[t]
			x := refs[t].off / b.gstep[i] % b.gext[i]
			wb.reqs = append(wb.reqs, ghostReq{int32(i), int32(refs[t].off - x*b.gstep[i]), int32(x), int32(m), int32(at + t)})
		}
		n -= m
		lhs.off += m * lhs.step
		for t := range refs {
			refs[t].off += m * refs[t].step
		}
	}
}

// finish turns the collected runs and ghost lines into the schedule.
func (b *planBuilder) finish() *Schedule {
	e, lhs, T := b.e, b.lhs, len(b.terms)
	s := &Schedule{eng: e, label: "execute", plans: make([]*wplan, e.np+1), constGhost: true,
		arrays: []*Array{lhs}, gens: []int{lhs.gen}}
	coeffs := make([]float64, T)
	// Evaluate-all-then-store is needed only when some read of the
	// written array is not at the element being written.
	direct := true
	for t, tm := range b.terms {
		coeffs[t] = tm.coeff
		s.arrays = append(s.arrays, tm.src)
		s.gens = append(s.gens, tm.src.gen)
		if tm.src == lhs {
			s.constGhost = false // statement overwrites its own input
			direct = direct && tm.mapf == nil && !slices.ContainsFunc(tm.shift, func(v int) bool { return v != 0 })
		}
	}
	planOf := func(p int) *wplan {
		if s.plans[p] != nil {
			return s.plans[p]
		}
		wb := b.work[p]
		if wb == nil {
			wb = &workBuild{} // ships ghosts, computes nothing
		}
		k := &runKernel{lhs: lhs.lay.stores[p].data, coeffs: coeffs, srcs: make([][]float64, T)}
		for t, tm := range b.terms {
			k.srcs[t] = tm.src.lay.stores[p].data
		}
		nghost := b.resolveGhosts(p, wb)
		s.ghostTotal += nghost
		k.runs, k.terms = joinRuns(wb.runs, wb.terms, T)
		if !direct {
			k.tmp = make([]float64, wb.load/T) // direct is true without terms
		}
		s.plans[p] = &wplan{kernel: k, ghost: make([]float64, nghost),
			load: wb.load, localRefs: wb.localRefs, remoteRefs: wb.remoteRefs}
		return s.plans[p]
	}
	for p := 1; p <= e.np; p++ {
		if wb := b.work[p]; wb != nil && len(wb.runs) > 0 {
			planOf(p)
		}
	}
	s.messages = len(b.pairs)
	b.pairs.emit(func(p int) *exchange { return &planOf(p).ex })
	return s
}

// resolveGhosts unions worker w's ghost lines per (source, grid line):
// sorted by position, each line either falls inside the interval
// already covered or extends it, and only the extension is new — it
// gets the next ghost slots and is shipped from its (first) owner.
// Consecutive positions of a covered interval hold consecutive ghost
// slots, so every requesting run reads its ghosts at stride 1 from
// the slot of its first element. Returns the ghost buffer's length:
// the worker's deduplicated remote elements.
func (b *planBuilder) resolveGhosts(w int, wb *workBuild) int {
	slices.SortFunc(wb.reqs, func(x, y ghostReq) int {
		return cmp.Or(cmp.Compare(x.src, y.src), cmp.Compare(x.key, y.key), cmp.Compare(x.lo, y.lo), cmp.Compare(y.n, x.n))
	})
	// [from, to) is the covered interval of the current grid line (of
	// cur's source and key); position from holds ghost slot first, next
	// is the first free one. segs[p] is the segment of the current
	// source that p sends w.
	var cur ghostReq
	var from, to, first, next int32
	segs := make([]*segBuild, b.e.np+1)
	for i, rq := range wb.reqs {
		if i == 0 || rq.src != cur.src {
			clear(segs)
		}
		if i == 0 || rq.src != cur.src || rq.key != cur.key || rq.lo > to {
			cur, from, to, first = rq, rq.lo, rq.lo, next
		}
		a, step := b.srcs[rq.src], b.gstep[rq.src]
		for end := rq.lo + rq.n; to < end; {
			r := lineRef{off: int(rq.key) + int(to)*step, step: step}
			sender := a.lay.firstOwner(r.off)
			if segs[sender] == nil {
				segs[sender] = b.pairs.seg(sender, w, a.lay.stores[sender])
			}
			base, stride, m := slotRun(a.lay, sender, r, int(end-to))
			segs[sender].add(base, stride, next, 1, int32(m))
			next, to = next+int32(m), to+int32(m)
		}
		wb.terms[rq.term].base, wb.terms[rq.term].stride = first+rq.lo-from, 1
	}
	return int(next)
}

// joinRuns joins, in place, every run to its predecessor when the lhs
// and each term continue evenly from the last element of one to the
// first of the next, and returns right-sized copies. This is what
// turns the length-1 lines of a CYCLIC(1) mapping (consecutive in slot
// space, never in index space) or of the element walk into long runs.
func joinRuns(runs []krun, terms []kterm, T int) ([]krun, []kterm) {
	out := 0
	for r, run := range runs {
		rt := terms[r*T : r*T+T]
		if out > 0 && joinRun(&runs[out-1], terms[(out-1)*T:out*T], run, rt) {
			continue
		}
		runs[out] = run
		copy(terms[out*T:], rt)
		out++
	}
	return slices.Clone(runs[:out]), slices.Clone(terms[:out*T])
}

func joinRun(a *krun, at []kterm, b krun, bt []kterm) bool {
	stride, ok := follows(a.base, a.stride, a.n, b.base, b.stride, b.n)
	for t := 0; ok && t < len(at); t++ {
		_, ok = follows(at[t].base, at[t].stride, a.n, bt[t].base, bt[t].stride, b.n)
		ok = ok && at[t].ghost == bt[t].ghost
	}
	if !ok {
		return false
	}
	for t := range at {
		at[t].stride, _ = follows(at[t].base, at[t].stride, a.n, bt[t].base, bt[t].stride, b.n)
	}
	a.stride, a.n = stride, a.n+b.n
	return true
}
