package runtime

import (
	"fmt"

	"hpfnt/internal/core"
	"hpfnt/internal/index"
	"hpfnt/internal/machine"
)

// analysis is the communication/load summary of one shift-assignment
// statement under the owner-computes rule: the aggregated ghost
// traffic per processor pair, the per-processor compute load, and the
// local/remote reference counts. BuildSchedule stores it for replay;
// ShiftAssign derives and charges it per statement.
type analysis struct {
	pairElems  map[[2]int]int
	loads      map[int]int
	localRefs  int
	remoteRefs int
}

func newAnalysis() *analysis {
	return &analysis{pairElems: map[[2]int]int{}, loads: map[int]int{}}
}

// minTileElems is the average tile volume below which the cell-based
// analysis loses to the grid-backed element-wise path (measured on
// the Jacobi/staggered benches: a cell costs interval arithmetic per
// term and its share of a tiling, a grid lookup a few tens of
// nanoseconds).
const minTileElems = 16

// charge applies the analysis to the machine's counters.
func (an *analysis) charge(m *machine.Machine) {
	for pr, n := range an.pairElems {
		m.Send(pr[0], pr[1], n)
	}
	m.RecordLocal(an.localRefs)
	m.RecordRemote(an.remoteRefs)
	for p, l := range an.loads {
		m.AddLoad(p, l)
	}
}

// checkStatement validates the statement's ranks.
func checkStatement(lhs *Array, region index.Domain, terms []Term) error {
	if region.Rank() != lhs.Dom.Rank() {
		return fmt.Errorf("runtime: region rank %d does not match %s rank %d", region.Rank(), lhs.Name, lhs.Dom.Rank())
	}
	for _, tm := range terms {
		if len(tm.Shift) != lhs.Dom.Rank() {
			return fmt.Errorf("runtime: term over %s has shift rank %d, want %d", tm.Src.Name, len(tm.Shift), lhs.Dom.Rank())
		}
	}
	return nil
}

// analyzeStatement derives the ownership analysis of
// lhs(region) = Σ terms. When every array is single-owner over
// standard domains and all shifted references stay in bounds, the
// analysis runs over the uniform cells of the owner tiles
// (core.UniformCuts, the enumeration the spmd plan producer shares):
// O(tiles) interval arithmetic for the local interior plus a
// per-element walk of only the remote boundary (for exact cross-term
// deduplication of repeated ghost elements). Everything else —
// replicated arrays, strided regions, out-of-bounds references, a
// mapping without a closed-form tiling — takes the per-element path,
// which is also the differential-testing oracle.
func analyzeStatement(lhs *Array, region index.Domain, terms []Term) (*analysis, error) {
	if err := checkStatement(lhs, region, terms); err != nil {
		return nil, err
	}
	if runAnalyzable(lhs, region, terms) {
		if an, ok := analyzeRuns(lhs, region, terms, minTileElems); ok {
			return an, nil
		}
	}
	return analyzeElementwise(lhs, region, terms)
}

// shiftRefs is the ownership view of the terms: mapping and shift.
func shiftRefs(terms []Term) []core.ShiftRef {
	refs := make([]core.ShiftRef, len(terms))
	for i, tm := range terms {
		refs[i] = core.ShiftRef{Map: tm.Src.mapping, Shift: tm.Shift}
	}
	return refs
}

// runAnalyzable reports whether the cell-based analysis applies and
// is guaranteed to agree with the element-wise oracle.
func runAnalyzable(lhs *Array, region index.Domain, terms []Term) bool {
	if lhs.owners == nil {
		return false
	}
	for _, tm := range terms {
		if tm.Src.owners == nil {
			return false
		}
	}
	return core.RunAnalyzable(region, lhs.Dom, shiftRefs(terms))
}

// analyzeRuns is the cell-based fast path over a statement
// runAnalyzable accepts. ok = false when a mapping declines bulk
// decomposition or the decomposition is finer-grained than minElems
// elements per tile on average, in which case the caller falls back to
// the grid-backed element-wise path.
func analyzeRuns(lhs *Array, region index.Domain, terms []Term, minElems int) (*analysis, bool) {
	// Granularity cutoff, decided from O(1) run-count estimates before
	// anything is materialized: fine-grain interleavings (CYCLIC(1) in
	// several dimensions) are cheaper on the grids.
	if minElems > 0 && !worthRunAnalysis(lhs, region, terms, minElems) {
		return nil, false
	}
	cuts, err := core.UniformCuts(region, lhs.mapping, shiftRefs(terms))
	if err != nil {
		return nil, false
	}
	an := newAnalysis()
	seen := map[commKey]bool{}
	corner := make(index.Tuple, region.Rank())
	cell := make([]index.Triplet, region.Rank())
	core.ForEachCell(cuts, func(lo, hi []int) {
		size := 1
		for d := range lo {
			size *= hi[d] - lo[d] + 1
		}
		loff, _ := lhs.Dom.Offset(lo)
		w := int(lhs.owners[loff])
		an.loads[w] += size * len(terms)
		for _, tm := range terms {
			for d := range lo {
				corner[d] = lo[d] + tm.Shift[d]
				cell[d] = index.Unit(corner[d], hi[d]+tm.Shift[d])
			}
			roff, _ := tm.Src.Dom.Offset(corner)
			sender := int(tm.Src.owners[roff])
			if sender == w {
				an.localRefs += size
				continue
			}
			an.remoteRefs += size
			src := tm.Src
			index.Domain{Dims: cell}.ForEach(func(t index.Tuple) bool {
				off, _ := src.Dom.Offset(t)
				key := commKey{src: src, off: off, dst: w}
				if !seen[key] {
					seen[key] = true
					an.pairElems[[2]int{sender, w}]++
				}
				return true
			})
		}
	})
	return an, true
}

// worthRunAnalysis estimates, in O(rank) per array, whether every
// mapping in the statement decomposes into tiles of at least minElems
// elements on average over the region.
func worthRunAnalysis(lhs *Array, region index.Domain, terms []Term, minElems int) bool {
	size := region.Size()
	est, ok := core.EstimateBulkTiles(lhs.mapping, region)
	if !ok || est*minElems > size {
		return false
	}
	shifted := make([]index.Triplet, region.Rank())
	for _, tm := range terms {
		for d, tr := range region.Dims {
			shifted[d] = index.Unit(tr.Low+tm.Shift[d], tr.High+tm.Shift[d])
		}
		est, ok := core.EstimateBulkTiles(tm.Src.mapping, index.Domain{Dims: shifted})
		if !ok || est*minElems > size {
			return false
		}
	}
	return true
}

// analyzeElementwise is the original per-element analysis, retained
// as the oracle for differential testing and as the fallback for
// replicated arrays, strided regions and error reporting.
func analyzeElementwise(lhs *Array, region index.Domain, terms []Term) (*analysis, error) {
	an := newAnalysis()
	ref := make(index.Tuple, lhs.Dom.Rank())
	seen := map[commKey]bool{}
	var ferr error
	region.ForEach(func(t index.Tuple) bool {
		loff, ok := lhs.Dom.Offset(t)
		if !ok {
			ferr = fmt.Errorf("runtime: region index %s outside %s domain %s", t, lhs.Name, lhs.Dom)
			return false
		}
		writers := lhs.ownerSet(loff)
		for _, tm := range terms {
			for d := range t {
				ref[d] = t[d] + tm.Shift[d]
			}
			roff, ok := tm.Src.Dom.Offset(ref)
			if !ok {
				ferr = fmt.Errorf("runtime: reference %s(%s) out of bounds in statement over %s(%s)", tm.Src.Name, ref, lhs.Name, t)
				return false
			}
			for _, w := range writers {
				if tm.Src.ownedBy(roff, w) {
					an.localRefs++
					continue
				}
				an.remoteRefs++
				key := commKey{src: tm.Src, off: roff, dst: w}
				if seen[key] {
					continue
				}
				seen[key] = true
				sender := tm.Src.ownerSet(roff)[0]
				an.pairElems[[2]int{sender, w}]++
			}
		}
		for _, w := range writers {
			an.loads[w] += len(terms)
		}
		return true
	})
	if ferr != nil {
		return nil, ferr
	}
	return an, nil
}
