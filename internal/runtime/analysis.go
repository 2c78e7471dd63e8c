package runtime

import (
	"fmt"

	"hpfnt/internal/index"
	"hpfnt/internal/machine"
)

// analysis is the communication/load summary of one statement under
// the owner-computes rule: the aggregated ghost traffic per processor
// pair, the per-processor compute load, and the local/remote reference
// counts. BuildSchedule derives it once and Execute charges it.
type analysis struct {
	pairElems  map[[2]int]int
	loads      map[int]int
	localRefs  int
	remoteRefs int
}

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

// checkStatement validates the statement's ranks and accesses.
func checkStatement(lhs *Array, region index.Domain, terms []Term) error {
	if region.Rank() != lhs.Dom.Rank() {
		return fmt.Errorf("runtime: region rank %d does not match %s rank %d", region.Rank(), lhs.Name, lhs.Dom.Rank())
	}
	for _, tm := range terms {
		if err := tm.Access.Check(lhs.Dom.Rank(), tm.Src.Dom.Rank()); err != nil {
			return fmt.Errorf("runtime: term over %s: %w", tm.Src.Name, err)
		}
	}
	return nil
}

// analyzeElementwise derives the ownership analysis of
// lhs(region) = Σ terms element by element, from the owner grids: every
// writer of every element, every reference classified local or remote,
// remote elements deduplicated per (source element, writer) and shipped
// from their first owner.
func analyzeElementwise(lhs *Array, region index.Domain, terms []Term) (*analysis, error) {
	an := &analysis{pairElems: map[[2]int]int{}, loads: map[int]int{}}
	buf := make(index.Tuple, lhs.Dom.Rank())
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
			roff, ref, ok := tm.at(t, buf)
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
