package spmd

import (
	"fmt"
	"time"

	"hpfnt/internal/index"
	"hpfnt/internal/machine"
	"hpfnt/internal/obs"
)

// Term is one right-hand-side reference Coeff * Src(t + Shift).
type Term struct {
	Src   *Array
	Shift []int
	Coeff float64
}

// Ref returns a shifted reference term.
func Ref(src *Array, coeff float64, shift ...int) Term {
	return Term{Src: src, Shift: shift, Coeff: coeff}
}

// GeneralTerm is a reference Coeff · Src(Map(t)) with an arbitrary
// (possibly rank-changing) index mapping.
type GeneralTerm struct {
	Src   *Array
	Coeff float64
	Map   func(index.Tuple) index.Tuple
}

// cterm is the compiler's unified term form.
type cterm struct {
	src   *Array
	coeff float64
	shift []int
	mapf  func(index.Tuple) index.Tuple
}

// Schedule is a compiled statement: per-worker plans over local slots,
// the per-pair ghost exchange, and the per-worker counter deltas.
// There is one plan shape and one executor; the plans come from one of
// two producers — compile (regular statements lhs(region) = Σ terms,
// from owner-tile intersection, see compile.go) or BuildIrregular
// (indirection-array statements, by lowering the inspector's schedule)
// — and ExecuteN replays them without knowing which. The involved
// arrays must not be remapped between executions (rebuild after
// REDISTRIBUTE/REALIGN).
type Schedule struct {
	eng *Engine
	// label names the producer in the epoch span ("execute x4",
	// "irregular x4").
	label      string
	plans      []*wplan
	ghostTotal int
	messages   int
	// constGhost marks a statement none of whose sources is the
	// written array: its ghost data cannot change while an ExecuteN
	// epoch replays it, so the compiled exchange ships each pair's
	// packed frame once per epoch instead of once per iteration
	// (schedule-level coalescing). Logical message accounting is
	// unchanged — the cost model still charges one message per pair
	// per iteration, matching the element-wise oracle — only the
	// machine's WireFrames counter sees the saving.
	constGhost bool
	// arrays/gens capture the involved arrays' remap generations at
	// build time; ExecuteN refuses a stale schedule (its plans index
	// the pre-remap stores).
	arrays []*Array
	gens   []int
}

// wplan is one worker's share of a schedule: its side of the ghost
// exchange, the ghost buffer the exchange scatters into, the
// arithmetic over local slots and ghost slots, and the counter deltas
// one iteration charges.
type wplan struct {
	ex     exchange
	ghost  []float64
	kernel kernel

	load       int
	localRefs  int
	remoteRefs int
}

// kernel is one worker's arithmetic for one iteration: evaluate its
// share of the statement from the local stores and the ghost buffer
// and store it, with Fortran array-assignment semantics (no store is
// visible to any read of the same iteration). runKernel serves every
// regular statement; accumKernel (irregular.go) serves indirection
// statements, whose per-access coefficients and write indices have no
// run form.
type kernel interface {
	compute(ghost []float64)
}

// runKernel is a list of strided runs. Run r computes, for i in
// [0, n), lhs[base+i·stride] = Σ_t coeffs[t] · src_t[b_t+i·s_t], where
// term t of the run (terms[r·T+t]) reads the worker's local store of
// the t-th source or, when marked ghost, the ghost buffer. The inner
// loops run slice to slice: there is no per-element index and no
// per-element local/ghost branch.
//
// tmp is nil when every read of the written store is at the element
// being written (no term reads the lhs array at a non-zero shift):
// each value is then stored as soon as it is computed. Otherwise the
// whole share is evaluated into tmp before any store.
type runKernel struct {
	lhs    []float64
	coeffs []float64
	srcs   [][]float64
	runs   []krun
	terms  []kterm
	tmp    []float64
}

// krun is the written side of one run.
type krun struct {
	base, stride, n int32
}

// kterm is one term's read side of one run.
type kterm struct {
	base, stride int32
	ghost        bool
}

// BuildSchedule compiles the shift statement lhs(region) = Σ terms.
func (e *Engine) BuildSchedule(lhs *Array, region index.Domain, terms []Term) (*Schedule, error) {
	cts := make([]cterm, len(terms))
	for i, t := range terms {
		if len(t.Shift) != lhs.dom.Rank() {
			return nil, fmt.Errorf("spmd: term over %s has shift rank %d, want %d", t.Src.name, len(t.Shift), lhs.dom.Rank())
		}
		cts[i] = cterm{src: t.Src, coeff: t.Coeff, shift: t.Shift}
	}
	return e.compile(lhs, region, cts)
}

// BuildGeneralSchedule compiles a statement with arbitrary per-term
// index mappings.
func (e *Engine) BuildGeneralSchedule(lhs *Array, region index.Domain, terms []GeneralTerm) (*Schedule, error) {
	cts := make([]cterm, len(terms))
	for i, t := range terms {
		cts[i] = cterm{src: t.Src, coeff: t.Coeff, mapf: t.Map}
	}
	return e.compile(lhs, region, cts)
}

// GhostElements reports the deduplicated ghost traffic per execution.
func (s *Schedule) GhostElements() int { return s.ghostTotal }

// Messages reports the aggregated messages per execution.
func (s *Schedule) Messages() int { return s.messages }

// Execute runs the statement once across the workers.
func (s *Schedule) Execute() error { return s.ExecuteN(1) }

// ExecuteN runs the statement iters times in one worker epoch. Under
// the parallel dispatcher the iterations pipeline naturally: per-pair
// FIFO streams keep each receiver's iteration k ghost data consistent
// with its sender's post-(k-1) state, so no global barrier is needed
// between iterations. The sequential dispatcher runs the same phases
// in lockstep.
func (s *Schedule) ExecuteN(iters int) error {
	if iters < 1 {
		return fmt.Errorf("spmd: ExecuteN needs a positive iteration count, got %d", iters)
	}
	for i, a := range s.arrays {
		if a.gen != s.gens[i] {
			return fmt.Errorf("spmd: schedule over %s invalidated by remap; rebuild it", a.name)
		}
	}
	e := s.eng
	frames := iters
	if s.constGhost {
		frames = 1
	}
	timing := obs.TimingEnabled()
	// Span labels are formatted only when a recorder will take them:
	// a one-shot dispatch is otherwise three allocations of label.
	tracing := obs.TraceEnabled()
	var span func()
	if tracing {
		span = obs.BeginSpan("epoch", fmt.Sprintf("%s x%d", s.label, iters), 0)
	}
	// Per worker across phases: the epoch span (the skew analysis
	// compares these lanes to find the straggler) and the tally
	// splitting its wall time into ghost-wait and compute.
	wspans := make([]func(), e.np+1)
	var tallies []phaseTally
	if timing {
		tallies = make([]phaseTally, e.np+1)
	}
	// Iteration it is phase 2·it, gather and send, and phase 2·it+1,
	// receive, scatter and compute. Coalescing: a constGhost statement
	// exchanges ghosts only in the first iteration of the epoch; the
	// scattered buffer stays valid for the replays.
	last := 2*iters - 1
	err := e.run(last+1, func(p, k int) {
		wp := s.plans[p]
		if wp == nil {
			return
		}
		if tracing && k == 0 {
			wspans[p] = obs.BeginSpan("worker", fmt.Sprintf("rank %d x%d", p, iters), p)
		}
		var t0 time.Time
		if timing {
			t0 = time.Now()
		}
		exchanges := k < 2 || !s.constGhost
		if k%2 == 0 {
			if exchanges {
				wp.ex.send(e, p)
				if timing {
					tallies[p][machine.PhaseGhostWait] += int64(time.Since(t0))
				}
			}
			return
		}
		if exchanges {
			wp.ex.recv(e, p, wp.ghost)
			if timing {
				now := time.Now()
				tallies[p][machine.PhaseGhostWait] += int64(now.Sub(t0))
				t0 = now
			}
		}
		wp.kernel.compute(wp.ghost)
		if timing {
			tallies[p][machine.PhaseCompute] += int64(time.Since(t0))
		}
		if k < last {
			return
		}
		if wspans[p] != nil {
			wspans[p]()
		}
		c := counters{
			load:       wp.load * iters,
			localRefs:  wp.localRefs * iters,
			remoteRefs: wp.remoteRefs * iters,
			sends:      wp.ex.sendCounts(iters, frames),
		}
		if timing {
			c.phase = &tallies[p]
		}
		e.flush(p, &c)
	})
	if span != nil {
		span()
	}
	return err
}

// chunk is how many values of a run are evaluated at a time: the
// accumulator stays in L1 while each term streams through it.
const chunk = 256

func (k *runKernel) compute(ghost []float64) {
	T := len(k.coeffs)
	var acc [chunk]float64
	at := 0
	for r, run := range k.runs {
		terms := k.terms[r*T : r*T+T]
		for c0 := 0; c0 < int(run.n); c0 += chunk {
			ac := acc[:min(chunk, int(run.n)-c0)]
			clear(ac)
			for ti, tm := range terms {
				src, c := k.srcs[ti], k.coeffs[ti]
				if tm.ghost {
					src = ghost
				}
				j := int(tm.base) + c0*int(tm.stride)
				if tm.stride == 1 {
					for i, v := range src[j : j+len(ac)] {
						ac[i] += c * v
					}
					continue
				}
				for i := range ac {
					ac[i] += c * src[j]
					j += int(tm.stride)
				}
			}
			if k.tmp != nil {
				copy(k.tmp[at+c0:], ac)
			} else {
				storeRun(k.lhs, int(run.base)+c0*int(run.stride), int(run.stride), ac)
			}
		}
		at += int(run.n)
	}
	if k.tmp == nil {
		return
	}
	at = 0
	for _, run := range k.runs {
		storeRun(k.lhs, int(run.base), int(run.stride), k.tmp[at:at+int(run.n)])
		at += int(run.n)
	}
}

// storeRun writes vals to dst[base], dst[base+stride], ….
func storeRun(dst []float64, base, stride int, vals []float64) {
	if stride == 1 {
		copy(dst[base:], vals)
		return
	}
	for _, v := range vals {
		dst[base] = v
		base += stride
	}
}

// ShiftAssign compiles and executes lhs(region) = Σ terms once.
func (e *Engine) ShiftAssign(lhs *Array, region index.Domain, terms []Term) error {
	s, err := e.BuildSchedule(lhs, region, terms)
	if err != nil {
		return err
	}
	return s.Execute()
}

// GeneralAssign compiles and executes a statement with arbitrary
// per-term index mappings once.
func (e *Engine) GeneralAssign(lhs *Array, region index.Domain, terms []GeneralTerm) error {
	s, err := e.BuildGeneralSchedule(lhs, region, terms)
	if err != nil {
		return err
	}
	return s.Execute()
}
