package spmd

import (
	"cmp"
	"fmt"
	"slices"

	"hpfnt/internal/index"
	"hpfnt/internal/obs"
)

// BuildSchedule compiles the statement lhs(region) = Σ terms: the
// regular producer, and the only way to build a regular statement (a
// one-shot statement is a schedule executed once). A statement reaches
// the emitter
// (planBuilder) as runs — n consecutive elements along one dimension,
// written by one worker, each term read from one owner, every local
// side evenly spaced in slot space — from one of two enumerators:
// tileLines, a run per line of the uniform cells, the grid the sides'
// layout indexes cut the region into, O(cuts + cells + runs + ghost
// runs) in all; or elementLines, the region walked element by element,
// for a replicated side, a read out of bounds, a non-standard domain or
// one source read along the ghost direction through two of its
// dimensions. Which one follows from the statement alone (analyzable),
// and the plans agree: finish joins adjacent runs whose slots advance
// evenly, so what the element walk feeds one at a time comes out as the
// runs the tile enumerator emits whole. Classification, deduplication,
// sender choice (the first owner) and load charging follow the
// element-wise oracle's rules (package runtime), so the aggregated
// statistics agree with it.
func (e *Engine) BuildSchedule(lhs *Array, region index.Domain, terms []Term) (*Schedule, error) {
	b, err := newPlanBuilder(e, lhs, region, terms)
	if err != nil {
		return nil, err
	}
	if obs.TraceEnabled() {
		if end := obs.BeginSpan("build", fmt.Sprintf("compile %s%s", lhs.name, region), 0); end != nil {
			defer end()
		}
	}
	return b.build(region)
}

// build feeds the emitter from the enumerator analyzable picks and
// returns the schedule.
func (b *planBuilder) build(region index.Domain) (*Schedule, error) {
	if cuts := b.analyzable(region); cuts != nil {
		b.tileLines(region, cuts)
	} else if err := b.elementLines(region); err != nil {
		return nil, err
	}
	return b.finish(), nil
}

// planBuilder is the emitter both enumerators feed: it collects each
// worker's runs, their charges and the ghost lines they read; finish
// unions those per (source array, reader), numbers the ghost buffers,
// ships each new interval through the pairBuilder and joins the runs.
type planBuilder struct {
	e   *Engine
	lhs *Array
	// sides are the lhs, read through the identity, then the terms.
	sides, terms []Term
	// srcs are the distinct source arrays in order of first use and
	// srcOf[t] is term t's entry: ghosts are deduplicated per array,
	// however many terms read it.
	srcs  []*Array
	srcOf []int
	// A ghost line of srcs[i] is the offsets key + x·gstep[i] for x in
	// [lo, lo+n), 0 ≤ x < gext[i]: lines with one key lie along one
	// grid line of the source, so their union is interval arithmetic
	// on x. The enumerator fixes the direction before its first line:
	// the source dimension that reads statement dimension gdim.
	gstep, gext []int
	gdim        int
	work        []workBuild // index 1..np: the engine's lists, reset
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

// newPlanBuilder returns the builder of lhs(region) = Σ terms over the
// engine's worker lists, emptied: one build at a time uses them.
func newPlanBuilder(e *Engine, lhs *Array, region index.Domain, terms []Term) (*planBuilder, error) {
	if lhs.eng != e {
		return nil, fmt.Errorf("spmd: array %s belongs to a different engine", lhs.name)
	}
	if region.Rank() != lhs.dom.Rank() {
		return nil, fmt.Errorf("spmd: region rank %d does not match %s rank %d", region.Rank(), lhs.name, lhs.dom.Rank())
	}
	sides := append([]Term{{Src: lhs, Access: index.Shift(make([]int, region.Rank())...)}}, terms...)
	b := &planBuilder{e: e, lhs: lhs, sides: sides, terms: sides[1:], srcOf: make([]int, len(terms)), work: e.work, pairs: pairBuilder{}}
	for t, tm := range terms {
		if tm.Src.eng != e {
			return nil, fmt.Errorf("spmd: term source %s belongs to a different engine", tm.Src.name)
		}
		if err := tm.Access.Check(region.Rank(), tm.Src.dom.Rank()); err != nil {
			return nil, fmt.Errorf("spmd: term over %s: %w", tm.Src.name, err)
		}
		if b.srcOf[t] = slices.Index(b.srcs, tm.Src); b.srcOf[t] < 0 {
			b.srcOf[t] = len(b.srcs)
			b.srcs = append(b.srcs, tm.Src)
		}
	}
	for p := range b.work {
		wb := &b.work[p]
		*wb = workBuild{runs: wb.runs[:0], terms: wb.terms[:0], reqs: wb.reqs[:0]}
	}
	b.gstep, b.gext = make([]int, len(b.srcs)), make([]int, len(b.srcs))
	return b, nil
}

// analyzable returns the uniform cells of the statement (cellCuts of
// its sides, the lhs at the identity and every term), or nil when it
// must be walked element by element. The ghost direction gdim is the
// dimension in which cells are longest on average (the collapsed one of
// (BLOCK,:), where a boundary row is one line); two terms that read one
// source along it through different dimensions of it, whose ghost
// lines share no grid line, refuse cells.
func (b *planBuilder) analyzable(region index.Domain) [][]int {
	cuts := cellCuts(b.e, region, b.sides)
	if cuts == nil {
		return nil
	}
	longest := 0.0
	for d, tr := range region.Dims {
		if mean := float64(tr.Count()) / float64(len(cuts[d])-1); mean > longest {
			b.gdim, longest = d, mean
		}
	}
	clear(b.gstep)
	for t, tm := range b.terms {
		i, step := b.srcOf[t], 1
		for d, x := range tm.Access {
			if ext := tm.Src.dom.Dims[d].Count(); x.Dim != b.gdim {
				step *= ext
			} else if b.gstep[i] != 0 && (b.gstep[i] != step || b.gext[i] != ext) {
				return nil
			} else {
				b.gstep[i], b.gext[i] = step, ext
			}
		}
	}
	// A source no term reads along gdim is flat, as in the element walk:
	// its ghost lines are one element long.
	for i, a := range b.srcs {
		if b.gstep[i] == 0 {
			b.gstep[i], b.gext[i] = 1, a.dom.Size()
		}
	}
	return cuts
}

// cellCuts returns the uniform cells of region read through sides, or
// nil when there are none. It admits a non-empty unit-stride region
// whose sides are single-owner, over unit-stride domains, read in
// bounds. Each side's index cuts, carried into region coordinates
// (position v of a source dimension read as dimension Dim plus Off is
// index Low+v-Off along Dim), cut the region: a cell of the product
// lies inside one index cell, and so one owner tile, of every side.
// cuts[d][0] is the region's low bound and the last entry its high
// bound plus one; the lists are the engine's.
func cellCuts(e *Engine, region index.Domain, sides []Term) [][]int {
	rank := region.Rank()
	if rank == 0 || region.Empty() || !region.IsStandard() {
		return nil
	}
	cuts := slices.Grow(e.cuts[:0], rank)[:rank]
	for d, tr := range region.Dims {
		cuts[d] = append(cuts[d][:0], tr.Low)
	}
	e.cuts = cuts
	for _, sd := range sides {
		a := sd.Src
		if a.lay.idx == nil || !a.dom.IsStandard() {
			return nil
		}
		for d, x := range sd.Access {
			tr, lo := region.Dims[x.Dim], a.dom.Dims[d].Low
			if tr.Low+x.Off < lo || tr.High+x.Off > a.dom.Dims[d].High {
				return nil
			}
			for _, v := range a.lay.idx.cuts[d] {
				if i := lo + int(v) - x.Off; i > tr.High {
					break
				} else if i > tr.Low {
					cuts[x.Dim] = append(cuts[x.Dim], i)
				}
			}
		}
	}
	for d, tr := range region.Dims {
		slices.Sort(cuts[d])
		cuts[d] = append(slices.Compact(cuts[d]), tr.High+1)
	}
	return cuts
}

// tileLines enumerates the lines of the uniform cells. A cell with a
// remote read is cut along the ghost direction analyzable fixed for the
// whole statement — ghost lines must share a direction to be unioned.
// An all-local cell is cut along the first dimension, in which every
// layout tile is contiguous, unless it is one element thick there.
//
// A cell lies inside one index cell of every layout (the cuts include
// each side's), so on every side its slots advance by a constant along
// each dimension: the layout's index locates the cell's corner once per
// cell, with the steps, and each line's run is stepped from the last.
// One pass over the cells locates and emits.
func (b *planBuilder) tileLines(region index.Domain, cuts [][]int) {
	rank, gdim := region.Rank(), b.gdim
	// The sides' rank-long scratch, packed in two allocations.
	sides := make([]cellSide, len(b.sides))
	ints, i32 := make([]int, (2*len(sides)+1)*rank), make([]int32, (2*len(sides)+1)*rank)
	at, sstep := ints[:rank], i32[:rank]
	for s, st := range b.sides {
		sd, a, m := &sides[s], st.Src, 1
		sd.lay, sd.acc = a.lay, st.Access
		sd.mul, sd.rel = ints[(2*s+1)*rank:][:rank], ints[(2*s+2)*rank:][:rank]
		sd.step, sd.pos = i32[(2*s+1)*rank:][:rank], i32[(2*s+2)*rank:][:len(sd.acc)]
		for d, x := range sd.acc {
			sd.rel[d] = x.Off - a.dom.Dims[d].Low
			sd.mul[x.Dim] = m
			sd.org += sd.rel[d] * m
			m *= a.dom.Dims[d].Count()
		}
	}
	ghost := make([]bool, len(b.terms))
	forEachCell(cuts, func(lo, hi []int) {
		// Every side's corner: its owner, slot and steps, and so the
		// cell's writer and the dimension it is cut along.
		along, w := 0, int32(0)
		for s := range sides {
			sd := &sides[s]
			for d, x := range sd.acc {
				sd.pos[d] = int32(lo[x.Dim] + sd.rel[d])
			}
			p, slot := sd.lay.idx.at(sd.pos, sstep)
			sd.slot = slot
			clear(sd.step)
			for d, x := range sd.acc {
				sd.step[x.Dim] = sstep[d]
			}
			if s == 0 {
				w = p
			} else if ghost[s-1] = p != w; ghost[s-1] {
				along = gdim // a remote read
			}
			sd.off = sd.org
			for d, v := range lo {
				if hi[d] == lo[d] {
					sd.step[d] = 0
				}
				sd.off += v * sd.mul[d]
			}
		}
		if hi[0] == lo[0] {
			along = gdim
		}
		lines := 1
		for d := range lo {
			if d != along {
				lines *= hi[d] - lo[d] + 1
			}
		}
		wb, n := &b.work[w], hi[along]-lo[along]+1
		wb.charge(lines*n, ghost)
		copy(at, lo)
		for {
			wb.runs = append(wb.runs, krun{sides[0].slot, sides[0].step[along], int32(n)})
			for t, g := range ghost {
				sd := &sides[1+t]
				kt := kterm{sd.slot, sd.step[along], g}
				if g {
					// Ghost slots are consecutive along the line; a term
					// that does not read along it reads one element.
					m := n
					if kt.stride = 1; sd.mul[along] == 0 {
						m, kt.stride = 1, 0
					}
					b.ghostLine(wb, len(wb.terms), m, sd.off)
				}
				wb.terms = append(wb.terms, kt)
			}
			// Odometer over the dimensions other than along: k is how far
			// dimension d moves, one forward or back to lo on a carry.
			d := 0
			for ; d < rank; d++ {
				if d == along {
					continue
				}
				k := 1
				if at[d]++; at[d] > hi[d] {
					k, at[d] = lo[d]-hi[d], lo[d]
				}
				for s := range sides {
					sides[s].off += k * sides[s].mul[d]
					sides[s].slot += int32(k) * sides[s].step[d]
				}
				if k == 1 {
					break
				}
			}
			if d == rank {
				return
			}
		}
	})
}

// cellSide is a side of tileLines' statement, read through acc. Its line starts at offset off = org + Σ_d
// at[d]·mul[d] and at slot slot; mul[d] and step[d] advance them per
// index of statement dimension d, 0 along one it does not read. A
// cell's corner is at positions pos: per source dimension, the
// subscript plus rel.
type cellSide struct {
	lay       *layout
	acc       index.Access
	org, off  int
	slot      int32
	mul, rel  []int
	step, pos []int32
}

// forEachCell calls fn with the inclusive bounds of every cell of the
// grid analyzable returned, first dimension fastest. The slices are
// reused between calls.
func forEachCell(cuts [][]int, fn func(lo, hi []int)) {
	lo, hi := make([]int, len(cuts)), make([]int, len(cuts))
	var walk func(d int)
	walk = func(d int) {
		for i := 0; d >= 0 && i+1 < len(cuts[d]); i++ {
			lo[d], hi[d] = cuts[d][i], cuts[d][i+1]-1
			walk(d - 1)
		}
		if d < 0 {
			fn(lo, hi)
		}
	}
	walk(len(cuts) - 1)
}

// elementLines walks the region once, column-major like the element-wise
// oracle, and emits every element as a run of its own to each of its
// writers. It takes the statements analyzable refuses: a replicated
// side, a read out of bounds, a non-standard domain, or one source read
// along the ghost direction through two of its dimensions. Sources are
// treated as flat (one grid line, x the offset), so a ghost is one
// element.
func (b *planBuilder) elementLines(region index.Domain) error {
	for i, a := range b.srcs {
		b.gstep[i], b.gext[i] = 1, a.dom.Size()
	}
	lhs := b.lhs
	ref := make(index.Tuple, lhs.dom.Rank())
	roff, ghost := make([]int, len(b.terms)), make([]bool, len(b.terms))
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
			rt := tm.Access.Apply(t, ref)
			if roff[ti], ok = tm.Src.dom.Offset(rt); !ok {
				ferr = fmt.Errorf("spmd: reference %s(%s) out of bounds in assignment to %s(%s)", tm.Src.name, rt, lhs.name, t)
				return false
			}
		}
		writers = lhs.lay.appendOwners(writers[:0], loff)
		for _, w := range writers {
			wb := &b.work[w]
			slot, _ := lhs.lay.slotIn(w, loff)
			wb.runs = append(wb.runs, krun{slot, 0, 1})
			for t, tm := range b.terms {
				base, local := tm.Src.lay.slotIn(w, roff[t])
				kt := kterm{base: base}
				if ghost[t] = !local; ghost[t] {
					kt = kterm{ghost: true}
					b.ghostLine(wb, len(wb.terms), 1, roff[t])
				}
				wb.terms = append(wb.terms, kt)
			}
			wb.charge(1, ghost)
		}
		return true
	})
	return ferr
}

// charge counts n elements of wb's runs: as load, once per term, and as
// a read of each term, remote where ghost[t].
func (wb *workBuild) charge(n int, ghost []bool) {
	wb.load += n * len(ghost)
	for _, g := range ghost {
		if g {
			wb.remoteRefs += n
		} else {
			wb.localRefs += n
		}
	}
}

// ghostLine records that the run term at wb.terms[term] reads n
// elements of its source remotely, from offset off on, for finish to
// resolve.
func (b *planBuilder) ghostLine(wb *workBuild, term, n, off int) {
	i := b.srcOf[term%len(b.terms)]
	x := off / b.gstep[i] % b.gext[i]
	wb.reqs = append(wb.reqs, ghostReq{int32(i), int32(off - x*b.gstep[i]), int32(x), int32(n), int32(term)})
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
		coeffs[t] = tm.Coeff
		s.arrays = append(s.arrays, tm.Src)
		s.gens = append(s.gens, tm.Src.gen)
		if tm.Src == lhs {
			s.constGhost = false                                          // statement overwrites its own input
			direct = direct && slices.Equal(tm.Access, b.sides[0].Access) // the identity
		}
	}
	planOf := func(p int) *wplan {
		if s.plans[p] != nil {
			return s.plans[p]
		}
		wb := &b.work[p] // without runs, it ships ghosts and computes nothing
		k := &runKernel{lhs: lhs.lay.stores[p].data, coeffs: coeffs, srcs: make([][]float64, T)}
		for t, tm := range b.terms {
			k.srcs[t] = tm.Src.lay.stores[p].data
		}
		wp := &wplan{kernel: k, ghost: b.resolveGhosts(p, wb),
			load: wb.load, localRefs: wb.localRefs, remoteRefs: wb.remoteRefs}
		s.ghostTotal += wp.ghost
		k.runs, k.terms = joinRuns(wb.runs, wb.terms, T)
		if !direct {
			wp.tmp = wb.load / T // direct is true without terms
		}
		e.reserve(p, wp.ghost+wp.tmp)
		s.plans[p] = wp
		return wp
	}
	for p := 1; p <= e.np; p++ {
		if len(b.work[p].runs) > 0 {
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
// slots, so every requesting run reads its ghosts from the slot of its
// first element, at the stride its enumerator gave it: 1, or 0 for a
// term that reads one element per line. Returns the ghost buffer's
// length: the worker's deduplicated remote elements.
func (b *planBuilder) resolveGhosts(w int, wb *workBuild) int {
	slices.SortFunc(wb.reqs, func(x, y ghostReq) int {
		return cmp.Or(cmp.Compare(x.src, y.src), cmp.Compare(x.key, y.key), cmp.Compare(x.lo, y.lo), cmp.Compare(y.n, x.n))
	})
	// [from, to) is the covered interval of the current grid line (of
	// cur's source and key); position from holds ghost slot first, next
	// is the first free one. segs[p] collects, in lists the engine
	// keeps, the segment of the current source that p sends w; put
	// hands the pairs a right-sized copy of each.
	var cur ghostReq
	var from, to, first, next int32
	segs := b.e.segs
	put := func() {
		for p, sg := range segs {
			if sg != nil && sg.elems > 0 {
				b.pairs.put(p, w, sg)
			}
		}
	}
	for i, rq := range wb.reqs {
		if i > 0 && rq.src != cur.src {
			put()
		}
		if i == 0 || rq.src != cur.src || rq.key != cur.key || rq.lo > to {
			cur, from, to, first = rq, rq.lo, rq.lo, next
		}
		// The new part of the line, [to, end), lies in one cell and so in
		// one tile of the source: its slots advance evenly.
		if end := rq.lo + rq.n; to < end {
			a, step := b.srcs[rq.src], int(b.gstep[rq.src])
			off, m := int(rq.key)+int(to)*step, end-to
			sender, base := a.lay.firstOwner(off)
			if segs[sender] == nil {
				segs[sender] = &segBuild{}
			}
			segs[sender].st = a.lay.stores[sender]
			stride := int32(0)
			if m > 1 { // only a single-owner source has lines
				_, next := a.lay.idx.locate(off + step)
				stride = next - base
			}
			segs[sender].add(strided(base, stride, m), strided(next, 1, m))
			next += m
			to = end
		}
		wb.terms[rq.term].base = first + rq.lo - from
	}
	put()
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
