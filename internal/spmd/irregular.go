package spmd

import (
	"fmt"
	"slices"

	"hpfnt/internal/inspector"
	"hpfnt/internal/obs"
)

// accumKernel is the arithmetic of an irregular gather/scatter
// statement in local slot space: access j adds coeffs[j]·v(reads[j])
// into acc[writeIx[j]], where reads[j] >= 0 is a slot of srcData and
// reads[j] < 0 is ghost slot -(reads[j]+1); then acc[i] stores to
// lhsData[outSlots[i]].
type accumKernel struct {
	lhsData  []float64
	srcData  []float64
	outSlots []int32
	writeIx  []int32
	reads    []int32
	coeffs   []float64
	acc      []float64
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
	// The inspector and the lowering read owners and slots by offset:
	// grids that live as long as this build.
	wOwners, wSlots := lhs.lay.idx.grids()
	rOwners, rSlots := wOwners, wSlots
	if src != lhs {
		rOwners, rSlots = src.lay.idx.grids()
	}
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
			if r >= 0 {
				k.reads[j] = rSlots[r]
			} else {
				k.reads[j] = r
			}
		}
		k.acc = make([]float64, len(pl.Outs))
		wp.ghost = make([]float64, pl.NGhost)
		wp.load = pl.Load
		wp.localRefs = pl.LocalRefs
		wp.remoteRefs = pl.RemoteRefs
	}
	pairs := pairBuilder{}
	for _, pr := range sched.Pairs {
		sg := pairs.seg(pr.Src, pr.Dst, src.lay.stores[pr.Src])
		sg.slots = slices.Grow(sg.slots, len(pr.Offsets)) // a gather list rarely joins
		for i, off := range pr.Offsets {
			sg.add(rSlots[off], 0, pr.Targets[i], 0, 1)
		}
	}
	pairs.emit(func(p int) *exchange { return &planOf(p).ex })
	return s, nil
}

func (k *accumKernel) compute(ghost []float64) {
	for i := range k.acc {
		k.acc[i] = 0
	}
	for j, r := range k.reads {
		var v float64
		if r >= 0 {
			v = k.srcData[r]
		} else {
			v = ghost[-r-1]
		}
		k.acc[k.writeIx[j]] += k.coeffs[j] * v
	}
	for i, sl := range k.outSlots {
		k.lhsData[sl] = k.acc[i]
	}
}
