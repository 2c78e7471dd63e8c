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
		// The gather source is a different array from the accumulator,
		// so halo data is invariant across an ExecuteN epoch.
		constGhost: lhs != src,
		arrays:     []*Array{lhs, src},
		gens:       []int{lhs.gen, src.gen},
	}
	kerns := make([]*accumKernel, e.np+1)
	planOf := func(p int) *wplan {
		if s.plans[p] == nil {
			kerns[p] = &accumKernel{
				lhsData: lhs.lay.stores[p].data,
				srcData: src.lay.stores[p].data,
			}
			s.plans[p] = &wplan{kernel: kerns[p]}
		}
		return s.plans[p]
	}
	for p := 1; p <= e.np; p++ {
		pl := sched.Plans[p]
		if pl == nil {
			continue
		}
		wp := planOf(p)
		k := kerns[p]
		k.outSlots = make([]int32, len(pl.Outs))
		for i, off := range pl.Outs {
			k.outSlots[i] = wSlots[off]
		}
		k.writeIx = pl.WriteIx
		k.coeffs = pl.Coeffs
		k.reads = make([]int32, len(pl.Reads))
		for j, r := range pl.Reads {
			if k.reads[j] = r; r >= 0 {
				k.reads[j] = rSlots[r]
			}
		}
		wp.ghost, wp.tmp = pl.NGhost, len(pl.Outs)
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
