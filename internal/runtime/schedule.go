package runtime

import (
	"fmt"

	"hpfnt/internal/index"
	"hpfnt/internal/machine"
)

// Schedule is a precomputed communication schedule for a repeated
// stencil statement: the overlap ("ghost region") exchange of
// compilers for distributed-memory systems (the SUPERB / Vienna
// Fortran Compilation System technique the paper's reference [13]
// surveys). Building the schedule performs the per-element ownership
// analysis once; each subsequent Execute replays the aggregated
// messages and computes values without re-deriving communication
// sets. For mappings that do not change between iterations this is
// semantically identical to building the statement afresh each time —
// verified by tests — but performs no per-iteration analysis. It is
// the only form a statement takes: a one-shot statement is a schedule
// executed once.
type Schedule struct {
	lhs    *Array
	region index.Domain
	terms  []Term
	// an is the statement's ownership analysis: the aggregated ghost
	// traffic per processor pair, per-processor loads and reference
	// counts, charged on every Execute.
	an *analysis
	// arrays/gens capture the involved arrays' remap generations at
	// build time; Execute refuses a stale schedule.
	arrays []*Array
	gens   []int
}

// BuildSchedule analyzes the statement lhs(region) = Σ terms once,
// element by element, and returns its reusable communication schedule.
// The arrays' mappings must not be remapped between executions
// (remapping invalidates the schedule; rebuild after
// REDISTRIBUTE/REALIGN).
func BuildSchedule(lhs *Array, region index.Domain, terms []Term) (*Schedule, error) {
	if err := checkStatement(lhs, region, terms); err != nil {
		return nil, err
	}
	an, err := analyzeElementwise(lhs, region, terms)
	if err != nil {
		return nil, err
	}
	s := &Schedule{lhs: lhs, region: region, terms: terms, an: an, arrays: []*Array{lhs}}
	for _, tm := range terms {
		s.arrays = append(s.arrays, tm.Src)
	}
	for _, a := range s.arrays {
		s.gens = append(s.gens, a.gen)
	}
	return s, nil
}

// checkFresh refuses replay after any involved array was remapped.
func (s *Schedule) checkFresh() error {
	for i, a := range s.arrays {
		if a.gen != s.gens[i] {
			return fmt.Errorf("runtime: schedule over %s invalidated by remap; rebuild it", a.Name)
		}
	}
	return nil
}

// GhostElements reports the total number of elements exchanged per
// execution (the overlap-area size).
func (s *Schedule) GhostElements() int {
	total := 0
	for _, n := range s.an.pairElems {
		total += n
	}
	return total
}

// Messages reports the number of aggregated messages per execution.
func (s *Schedule) Messages() int { return len(s.an.pairElems) }

// Execute replays the exchange on the machine and computes the
// statement's values (simultaneous-assignment semantics). A nil
// machine computes values only.
func (s *Schedule) Execute(m *machine.Machine) error {
	if err := s.checkFresh(); err != nil {
		return err
	}
	if m != nil {
		s.an.charge(m)
	}
	return evaluate(s.lhs, s.region, s.terms)
}

// ReduceOp selects a reduction operator.
type ReduceOp int

// The supported reduction operators.
const (
	ReduceSum ReduceOp = iota
	ReduceMax
	ReduceMin
)

// Reduce computes a global reduction of the array under the
// owner-computes rule: each owning processor reduces its local
// elements (replicated elements are reduced by their first owner
// only, so the result counts each element once), then the partial
// results are combined along a binary tree — ⌈log2 NP⌉ rounds of one
// single-element message per participating processor, the standard
// distributed-memory reduction cost the machine records.
func Reduce(m *machine.Machine, a *Array, op ReduceOp) (float64, error) {
	np := 1
	if m != nil {
		np = m.NP
	}
	partial := make([]float64, np+1)
	has := make([]bool, np+1)
	size := a.Dom.Size()
	acc := func(cur float64, ok bool, v float64) float64 {
		if !ok {
			return v
		}
		switch op {
		case ReduceSum:
			return cur + v
		case ReduceMax:
			if v > cur {
				return v
			}
			return cur
		case ReduceMin:
			if v < cur {
				return v
			}
			return cur
		}
		return cur
	}
	for off := 0; off < size; off++ {
		p := a.ownerSet(off)[0]
		if m == nil {
			p = 1
		}
		partial[p] = acc(partial[p], has[p], a.data[off])
		has[p] = true
		if m != nil {
			m.AddLoad(p, 1)
		}
	}
	// Tree combine over processors holding partials.
	var procs []int
	for p := 1; p <= np; p++ {
		if has[p] {
			procs = append(procs, p)
		}
	}
	if len(procs) == 0 {
		return 0, fmt.Errorf("runtime: reduction over empty array %s", a.Name)
	}
	for len(procs) > 1 {
		var next []int
		for i := 0; i+1 < len(procs); i += 2 {
			src, dst := procs[i+1], procs[i]
			if m != nil {
				m.Send(src, dst, 1)
			}
			partial[dst] = acc(partial[dst], true, partial[src])
			next = append(next, dst)
		}
		if len(procs)%2 == 1 {
			next = append(next, procs[len(procs)-1])
		}
		procs = next
	}
	return partial[procs[0]], nil
}
