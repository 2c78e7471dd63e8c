package spmd

import (
	"fmt"

	"hpfnt/internal/inspector"
	"hpfnt/internal/obs"
)

// accumKernel is the arithmetic of an irregular gather/scatter
// statement in local slot space: access j adds coeffs[j]·v(reads[j])
// into acc[writeIx[j]], where reads[j] >= 0 is a slot of srcData and
// reads[j] < 0 is ghost slot -(reads[j]+1); then acc[i] stores to
// lhsData[outSlots[i]]. acc is the worker's tmp, one value per output.
type accumKernel struct {
	lhsData  []float64
	srcData  []float64
	outSlots []int32
	writeIx  []int32
	reads    []int32
	coeffs   []float64
}

// gatherKernel serves a worker of a statement whose source is not its
// lhs (constGhost) and whose every output has one access: nothing sums
// and no store reaches a read, so each access stores straight to its
// lhs slot, local reads first, then ghost reads, each list in a loop
// with no branch. The values are the accumulator's, bit for bit.
type gatherKernel struct {
	lhsData, srcData []float64
	local, ghost     []gatherRef
}

// gatherRef is one gatherKernel access: lhs slot out takes 0 + c·v,
// v the value at slot in of the local source (or the ghost buffer).
type gatherRef struct {
	out, in int32
	c       float64
}

// BuildIrregular is the inspector producer, the executor side of the
// inspector–executor technique (package inspector): it runs the
// inspector over the pattern and lowers the resulting engine-neutral
// schedule — per-worker access plans over element offsets plus
// per-pair deduplicated gather lists — once to local store slots, as
// the same per-worker plans the regular compiler emits (the gather
// lists become slot intervals wherever consecutive reads are evenly
// spaced). No ownership
// analysis happens at execution time, which is where schedule reuse
// across ExecuteN iterations pays. Replicated arrays are refused (no
// single-owner partition exists).
func (e *Engine) BuildIrregular(lhs, src *Array, pat inspector.Pattern) (*Schedule, error) {
	if lhs.eng != e || src.eng != e {
		return nil, fmt.Errorf("spmd: irregular statement arrays belong to a different engine")
	}
	if lhs.lay.idx == nil || src.lay.idx == nil {
		return nil, fmt.Errorf("spmd: %s", inspector.ErrReplicated)
	}
	if obs.TraceEnabled() {
		if end := obs.BeginSpan("build", fmt.Sprintf("inspect %s<-%s x%d", lhs.name, src.name, len(pat.Writes)), 0); end != nil {
			defer end()
		}
	}
	// The inspector reads owners by offset, and the lowering slots.
	wOwners, wSlots := lhs.lay.idx.table()
	rOwners, rSlots := src.lay.idx.table()
	sched, err := inspector.Build(e.np, wOwners, rOwners, pat)
	if err != nil {
		return nil, err
	}
	s := &Schedule{
		eng:        e,
		label:      "irregular",
		plans:      make([]*wplan, e.np+1),
		ghostTotal: sched.GhostElements(),
		messages:   sched.Messages(),
		// A source that is a different array from the lhs makes halo
		// data invariant across an ExecuteN epoch.
		constGhost: lhs != src,
		arrays:     []*Array{lhs, src},
		gens:       []int{lhs.gen, src.gen},
	}
	planOf := func(p int) *wplan {
		if s.plans[p] == nil {
			s.plans[p] = &wplan{kernel: &gatherKernel{}} // a sender's: no accesses
		}
		return s.plans[p]
	}
	for p := 1; p <= e.np; p++ {
		pl := sched.Plans[p]
		if pl == nil {
			continue
		}
		wp := planOf(p)
		lhsData, srcData := lhs.lay.stores[p].data, src.lay.stores[p].data
		if s.constGhost && len(pl.Outs) == len(pl.Reads) {
			// Every access has an output of its own: access j writes Outs[j].
			k := &gatherKernel{lhsData: lhsData, srcData: srcData,
				local: make([]gatherRef, 0, pl.LocalRefs), ghost: make([]gatherRef, 0, pl.RemoteRefs)}
			for j, r := range pl.Reads {
				if a := (gatherRef{out: wSlots[pl.Outs[j]], c: pl.Coeffs[j]}); r >= 0 {
					a.in = rSlots[r]
					k.local = append(k.local, a)
				} else {
					a.in = -r - 1
					k.ghost = append(k.ghost, a)
				}
			}
			wp.kernel = k
		} else {
			k := &accumKernel{lhsData: lhsData, srcData: srcData,
				outSlots: make([]int32, len(pl.Outs)), writeIx: pl.WriteIx,
				reads: make([]int32, len(pl.Reads)), coeffs: pl.Coeffs}
			for i, off := range pl.Outs {
				k.outSlots[i] = wSlots[off]
			}
			for j, r := range pl.Reads {
				if k.reads[j] = r; r >= 0 {
					k.reads[j] = rSlots[r]
				}
			}
			wp.kernel, wp.tmp = k, len(pl.Outs)
		}
		wp.ghost = pl.NGhost
		e.reserve(p, wp.ghost+wp.tmp)
		wp.load = pl.Load
		wp.localRefs = pl.LocalRefs
		wp.remoteRefs = pl.RemoteRefs
	}
	pairs, sg := pairBuilder{}, &segBuild{}
	for _, pr := range sched.Pairs {
		sg.st = src.lay.stores[pr.Src]
		for i, off := range pr.Offsets {
			sg.add(rSlots[off], 0, pr.Targets[i], 0, 1)
		}
		pairs.put(pr.Src, pr.Dst, sg)
	}
	pairs.emit(func(p int) *exchange { return &planOf(p).ex })
	return s, nil
}

func (k *accumKernel) compute(ghost, acc []float64) {
	clear(acc)
	for j, r := range k.reads {
		var v float64
		if r >= 0 {
			v = k.srcData[r]
		} else {
			v = ghost[-r-1]
		}
		acc[k.writeIx[j]] += k.coeffs[j] * v
	}
	for i, sl := range k.outSlots {
		k.lhsData[sl] = acc[i]
	}
}

// compute stores 0 + c·v, as the accumulator would: the 0 + turns a
// -0 product into the +0 of the element-wise oracle.
func (k *gatherKernel) compute(ghost, _ []float64) {
	lhs, src := k.lhsData, k.srcData
	for _, a := range k.local {
		lhs[a.out] = 0 + a.c*src[a.in]
	}
	for _, a := range k.ghost {
		lhs[a.out] = 0 + a.c*ghost[a.in]
	}
}
