package runtime

import (
	"fmt"

	"hpfnt/internal/inspector"
	"hpfnt/internal/machine"
)

// IrregularSchedule is the element-wise executor's side of the
// inspector–executor technique (package inspector): the reusable
// schedule of one irregular gather/scatter statement
//
//	lhs(Writes[k]) = Σ_k Coeffs[k]·src(Reads[k])
//
// whose subscripts come from indirection arrays and therefore admit
// no closed-form communication analysis. BuildIrregular runs the
// inspector once; each Execute replays the aggregated halo exchange
// on the machine and computes the values — structurally the same
// ghost-fill / accumulate / store sequence the spmd engine performs
// over its distributed stores, executed here over the dense backing.
// This executor is the differential oracle for the spmd engine: both
// charge the counters recorded in the shared inspector schedule, so
// their statistics agree by construction and their values are
// asserted equal by FuzzIrregularEquivalence (package engine).
type IrregularSchedule struct {
	lhs, src *Array
	s        *inspector.Schedule
	// ghost[p]/acc[p] are worker p's ghost buffer and accumulator,
	// reused across executions.
	ghost [][]float64
	acc   [][]float64
	// gens capture the arrays' remap generations at build time;
	// Execute refuses a stale schedule.
	arrays []*Array
	gens   []int
}

// BuildIrregular runs the inspector over the pattern's accesses and
// returns the reusable schedule. np is the abstract processor count
// of the machine the schedule will charge. Replicated arrays have no
// single-owner partition and are refused; remapping either array
// invalidates the schedule (rebuild after REDISTRIBUTE/REALIGN).
func BuildIrregular(np int, lhs, src *Array, pat inspector.Pattern) (*IrregularSchedule, error) {
	if lhs.owners == nil || src.owners == nil {
		return nil, fmt.Errorf("runtime: %s", inspector.ErrReplicated)
	}
	sched, err := inspector.Build(np, lhs.owners, src.owners, pat)
	if err != nil {
		return nil, err
	}
	s := &IrregularSchedule{
		lhs:    lhs,
		src:    src,
		s:      sched,
		ghost:  make([][]float64, np+1),
		acc:    make([][]float64, np+1),
		arrays: []*Array{lhs, src},
	}
	for p := 1; p <= np; p++ {
		if pl := sched.Plans[p]; pl != nil {
			s.ghost[p] = make([]float64, pl.NGhost)
			s.acc[p] = make([]float64, len(pl.Outs))
		}
	}
	for _, a := range s.arrays {
		s.gens = append(s.gens, a.gen)
	}
	return s, nil
}

// GhostElements reports the deduplicated halo traffic per execution.
func (s *IrregularSchedule) GhostElements() int { return s.s.GhostElements() }

// Messages reports the aggregated messages per execution.
func (s *IrregularSchedule) Messages() int { return s.s.Messages() }

// Execute replays the halo exchange on the machine and computes the
// statement's values (simultaneous-assignment semantics: all reads —
// local and ghost — happen before any store). A nil machine computes
// values only.
func (s *IrregularSchedule) Execute(m *machine.Machine) error {
	for i, a := range s.arrays {
		if a.gen != s.gens[i] {
			return fmt.Errorf("runtime: irregular schedule over %s invalidated by remap; rebuild it", a.Name)
		}
	}
	// Halo exchange: fill each reader's ghost buffer from the dense
	// source, charging one aggregated message per pair.
	for _, pr := range s.s.Pairs {
		if m != nil {
			m.Send(pr.Src, pr.Dst, len(pr.Offsets))
		}
		g := s.ghost[pr.Dst]
		for i, off := range pr.Offsets {
			g[pr.Targets[i]] = s.src.data[off]
		}
	}
	// Compute every worker's accumulators before any store: with
	// lhs == src (e.g. an in-place permutation) a store interleaved
	// with another worker's reads would break simultaneous-assignment
	// semantics and diverge from the spmd engine, whose workers all
	// read pre-iteration state.
	for p := 1; p <= s.s.NP; p++ {
		pl := s.s.Plans[p]
		if pl == nil {
			continue
		}
		if m != nil {
			m.AddLoad(p, pl.Load)
			m.RecordLocal(pl.LocalRefs)
			m.RecordRemote(pl.RemoteRefs)
		}
		acc, ghost := s.acc[p], s.ghost[p]
		for i := range acc {
			acc[i] = 0
		}
		for j, r := range pl.Reads {
			var v float64
			if r >= 0 {
				v = s.src.data[r]
			} else {
				v = ghost[-r-1]
			}
			acc[pl.WriteIx[j]] += pl.Coeffs[j] * v
		}
	}
	for p := 1; p <= s.s.NP; p++ {
		pl := s.s.Plans[p]
		if pl == nil {
			continue
		}
		acc := s.acc[p]
		for i, off := range pl.Outs {
			s.lhs.data[off] = acc[i]
		}
	}
	return nil
}
