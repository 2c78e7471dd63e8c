package spmd

import (
	"fmt"
	"maps"

	"hpfnt/internal/inspector"
	"hpfnt/internal/obs"
)

// accumKernel is the arithmetic of an irregular gather/scatter
// statement over its plan's accumulating lists in local slot space:
// access j adds Coeffs[j]·v(Reads[j]) into acc[WriteIx[j]], where
// Reads[j] >= 0 is a slot of srcData and Reads[j] < 0 is ghost slot
// -(Reads[j]+1); then acc[i] stores to lhsData[Outs[i]]. acc is the
// worker's tmp, one value per output.
type accumKernel struct {
	lhsData, srcData []float64
	inspector.Plan
}

// gatherKernel serves a worker of a statement whose source is not its
// lhs (constGhost) and whose every output has one access, over its
// plan's gather form: nothing sums and no store reaches a read, so
// each access stores straight to its lhs slot, Local reads first, then
// Ghost reads, each list in a loop with no branch. The values are the
// accumulator's, bit for bit.
type gatherKernel struct {
	lhsData, srcData []float64
	inspector.Plan
}

// BuildIrregular is the inspector producer, the executor side of the
// inspector–executor technique (package inspector). Pass 1 partitions
// the accesses by writer on the caller's goroutine. Pass 2 is one
// inspect epoch: each hosted worker inspects its own writer straight
// into the lists of its plan, in local store slots — the per-worker
// plan the regular compiler emits — and into the gather lists of the
// pairs it reads from, which become slot intervals wherever
// consecutive reads are evenly spaced. Plans are replicated metadata,
// so the writers this process does not host are dealt to its workers
// too; the epoch sends nothing and charges nothing. No ownership
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
	// The inspector reads owners by offset, and writes slots.
	wOwners, wSlots := lhs.lay.idx.table()
	rOwners, rSlots := src.lay.idx.table()
	b, err := inspector.Partition(e.np, wOwners, rOwners, pat)
	if err != nil {
		return nil, err
	}
	s := &Schedule{
		eng:   e,
		label: "irregular",
		plans: make([]*wplan, e.np+1),
		// A source that is a different array from the lhs makes halo
		// data invariant across an ExecuteN epoch.
		constGhost: lhs != src,
		arrays:     []*Array{lhs, src},
		gens:       []int{lhs.gen, src.gen},
	}
	// pairs[w] holds writer w's gather lists; only its inspector writes it.
	pairs := make([]pairBuilder, e.np+1)
	err = e.run(fill{"inspect", func(p int) {
		sc := &inspector.Scratch{}
		for w := 1; w <= e.np; w++ {
			if w != p && (e.hosted(w) || e.local[(w-1)%len(e.local)] != p) {
				continue
			}
			pl, lists := b.Inspect(w, s.constGhost, wSlots, rSlots, sc)
			if pl == nil {
				continue
			}
			lhsData, srcData := lhs.lay.stores[w].data, src.lay.stores[w].data
			var k kernel = &gatherKernel{lhsData, srcData, *pl}
			if pl.Outs != nil {
				k = &accumKernel{lhsData, srcData, *pl}
			}
			s.plans[w] = &wplan{kernel: k, ghost: pl.NGhost, tmp: len(pl.Outs), load: pl.Load, localRefs: pl.LocalRefs, remoteRefs: pl.RemoteRefs}
			pairs[w] = pairBuilder{}
			for _, gl := range lists {
				pairs[w][[2]int{gl.Src, w}] = []*segBuild{{src.lay.stores[gl.Src], len(gl.Offsets), spansOf(gl.Offsets), spansOf(gl.Targets)}}
			}
		}
	}})
	if err != nil {
		return nil, err
	}
	all := pairBuilder{}
	for _, pb := range pairs {
		maps.Copy(all, pb)
	}
	all.emit(func(p int) *exchange {
		if s.plans[p] == nil {
			s.plans[p] = &wplan{kernel: &gatherKernel{}} // a sender's: no accesses
		}
		return &s.plans[p].ex
	})
	for p, wp := range s.plans {
		if wp != nil {
			e.reserve(p, wp.ghost+wp.tmp)
			s.ghostTotal, s.messages = s.ghostTotal+wp.ghost, s.messages+len(wp.ex.sends)
		}
	}
	return s, nil
}

// spansOf returns slots as spans, consecutive evenly spaced slots
// joined, in a list of exactly their number.
func spansOf(slots []int32) []span {
	n, base, stride, count := 0, int32(0), int32(0), int32(0)
	for i, sl := range slots {
		if st, ok := follows(base, stride, count, sl, 0, 1); i > 0 && ok {
			stride, count = st, count+1
		} else {
			n, base, stride, count = n+1, sl, 0, 1
		}
	}
	out := make([]span, 0, n)
	for _, sl := range slots {
		out = appendSpan(out, strided(sl, 0, 1))
	}
	return out
}

func (k *accumKernel) compute(ghost, acc []float64) {
	clear(acc)
	for j, r := range k.Reads {
		var v float64
		if r >= 0 {
			v = k.srcData[r]
		} else {
			v = ghost[-r-1]
		}
		acc[k.WriteIx[j]] += k.Coeffs[j] * v
	}
	for i, sl := range k.Outs {
		k.lhsData[sl] = acc[i]
	}
}

// compute stores 0 + c·v, as the accumulator would: the 0 + turns a
// -0 product into the +0 of the element-wise oracle.
func (k *gatherKernel) compute(ghost, _ []float64) {
	lhs, src := k.lhsData, k.srcData
	for _, a := range k.Local {
		lhs[a.Out] = 0 + a.C*src[a.In]
	}
	for _, a := range k.Ghost {
		lhs[a.Out] = 0 + a.C*ghost[a.In]
	}
}
