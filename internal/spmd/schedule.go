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
// by walking the region) or BuildIrregular (indirection-array
// statements, by lowering the inspector's schedule) — and ExecuteN
// replays them without knowing which. The involved arrays must not be
// remapped between executions (rebuild after REDISTRIBUTE/REALIGN, as
// with the sequential runtime's schedules).
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
	// per iteration, matching the sequential oracle — only the
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
// whole share of the statement from the local stores and the ghost
// buffer, then store (whole-statement evaluation before any store,
// Fortran array-assignment semantics). The two implementations differ
// only in how the reads are indexed: denseKernel (a fixed number of
// terms per element, coefficients per term) and accumKernel (a
// variable number of accesses per element, coefficients per access).
// They stay apart because the dense form's index stream is a quarter
// the size, and replay is most of a stencil's wall time.
type kernel interface {
	compute(ghost []float64)
}

// denseKernel computes, for element i, tmp[i] = Σ_t coeffs[t] ·
// ref(i,t) where refs[i*T+t] ≥ 0 indexes srcData[t] (a local read) and
// refs < 0 encodes ghost slot -(refs+1); then lhsData[lhsSlots[i]] =
// tmp[i].
type denseKernel struct {
	lhsData  []float64
	lhsSlots []int32
	coeffs   []float64
	srcData  [][]float64
	refs     []int32
	tmp      []float64
}

// ghostKey dedups remote reads per (source array, element, reader),
// exactly as the sequential per-statement deduplication does.
type ghostKey struct {
	src *Array
	off int
	w   int
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

// compile is the regular producer: it walks the region once
// (column-major, like the sequential executor) and partitions the
// statement into per-worker plans. The local/remote classification,
// remote deduplication, sender choice (first owner) and load charging
// mirror the sequential analysis element for element, so the
// aggregated statistics are identical by construction.
func (e *Engine) compile(lhs *Array, region index.Domain, terms []cterm) (*Schedule, error) {
	if lhs.eng != e {
		return nil, fmt.Errorf("spmd: array %s belongs to a different engine", lhs.name)
	}
	if region.Rank() != lhs.dom.Rank() {
		return nil, fmt.Errorf("spmd: region rank %d does not match %s rank %d", region.Rank(), lhs.name, lhs.dom.Rank())
	}
	s := &Schedule{eng: e, label: "execute", plans: make([]*wplan, e.np+1), constGhost: true,
		arrays: []*Array{lhs}, gens: []int{lhs.gen}}
	for _, tm := range terms {
		if tm.src.eng != e {
			return nil, fmt.Errorf("spmd: term source %s belongs to a different engine", tm.src.name)
		}
		s.arrays = append(s.arrays, tm.src)
		s.gens = append(s.gens, tm.src.gen)
		if tm.src == lhs {
			s.constGhost = false // statement overwrites its own input
		}
	}
	T := len(terms)
	kerns := make([]*denseKernel, e.np+1)
	nGhost := make([]int32, e.np+1)
	planOf := func(p int) (*wplan, *denseKernel) {
		if s.plans[p] == nil {
			k := &denseKernel{lhsData: lhs.lay.stores[p].data}
			k.coeffs = make([]float64, T)
			k.srcData = make([][]float64, T)
			for ti, tm := range terms {
				k.coeffs[ti] = tm.coeff
				k.srcData[ti] = tm.src.lay.stores[p].data
			}
			kerns[p] = k
			s.plans[p] = &wplan{kernel: k}
		}
		return s.plans[p], kerns[p]
	}
	seen := map[ghostKey]int32{}
	pairs := pairBuilder{}
	ref := make(index.Tuple, lhs.dom.Rank())
	var writers []int
	var ferr error
	region.ForEach(func(t index.Tuple) bool {
		loff, ok := lhs.dom.Offset(t)
		if !ok {
			ferr = fmt.Errorf("spmd: region index %s outside %s domain %s", t, lhs.name, lhs.dom)
			return false
		}
		writers = lhs.lay.appendOwners(writers[:0], loff)
		for ti := range terms {
			tm := &terms[ti]
			var rt index.Tuple
			if tm.mapf != nil {
				rt = tm.mapf(t.Clone())
			} else {
				for d := range t {
					ref[d] = t[d] + tm.shift[d]
				}
				rt = ref
			}
			roff, ok := tm.src.dom.Offset(rt)
			if !ok {
				ferr = fmt.Errorf("spmd: reference %s(%s) out of bounds in assignment to %s(%s)", tm.src.name, rt, lhs.name, t)
				return false
			}
			for _, w := range writers {
				wp, k := planOf(w)
				if tm.src.lay.ownedBy(roff, w) {
					wp.localRefs++
					k.refs = append(k.refs, tm.src.lay.slotOf(w, roff))
					continue
				}
				wp.remoteRefs++
				key := ghostKey{src: tm.src, off: roff, w: w}
				g, dup := seen[key]
				if !dup {
					g = nGhost[w]
					nGhost[w]++
					seen[key] = g
					sender := tm.src.lay.firstOwner(roff)
					pairs.add(sender, w, tm.src.lay.stores[sender], tm.src.lay.slotOf(sender, roff), g)
				}
				k.refs = append(k.refs, -(g + 1))
			}
		}
		for _, w := range writers {
			wp, k := planOf(w)
			wp.load += T
			k.lhsSlots = append(k.lhsSlots, lhs.lay.slotOf(w, loff))
		}
		return true
	})
	if ferr != nil {
		return nil, ferr
	}
	s.ghostTotal, s.messages = len(seen), len(pairs)
	pairs.emit(func(p int) *exchange {
		wp, _ := planOf(p)
		return &wp.ex
	})
	for p, wp := range s.plans {
		if wp == nil {
			continue
		}
		wp.ghost = make([]float64, nGhost[p])
		kerns[p].tmp = make([]float64, len(kerns[p].lhsSlots))
	}
	return s, nil
}

// GhostElements reports the deduplicated ghost traffic per execution.
func (s *Schedule) GhostElements() int { return s.ghostTotal }

// Messages reports the aggregated messages per execution.
func (s *Schedule) Messages() int { return s.messages }

// Execute runs the statement once across the workers.
func (s *Schedule) Execute() error { return s.ExecuteN(1) }

// ExecuteN runs the statement iters times in one worker epoch. The
// iterations pipeline naturally: per-pair FIFO channels keep each
// receiver's iteration k ghost data consistent with its sender's
// post-(k-1) state, so no global barrier is needed between
// iterations.
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
	err := e.run(func(p int) {
		wp := s.plans[p]
		if wp == nil {
			return
		}
		// A per-worker epoch span: the skew analysis compares these
		// lanes to find the straggler.
		var wspan func()
		if tracing {
			wspan = obs.BeginSpan("worker", fmt.Sprintf("rank %d x%d", p, iters), p)
		}
		var tally *phaseTally
		if timing {
			tally = new(phaseTally)
		}
		// A non-nil tally splits each iteration's wall time into
		// ghost-wait and compute.
		for it := 0; it < iters; it++ {
			var t0 time.Time
			if tally != nil {
				t0 = time.Now()
			}
			// Coalescing: a constGhost statement exchanges ghosts only
			// on the first iteration of the epoch; the scattered buffer
			// stays valid for the replays.
			if it == 0 || !s.constGhost {
				wp.ex.run(e, p, wp.ghost)
				if tally != nil {
					now := time.Now()
					tally[machine.PhaseGhostWait] += int64(now.Sub(t0))
					t0 = now
				}
			}
			wp.kernel.compute(wp.ghost)
			if tally != nil {
				tally[machine.PhaseCompute] += int64(time.Since(t0))
			}
		}
		if wspan != nil {
			wspan()
		}
		e.flush(p, &counters{
			load:       wp.load * iters,
			localRefs:  wp.localRefs * iters,
			remoteRefs: wp.remoteRefs * iters,
			sends:      wp.ex.sendCounts(iters, frames),
			phase:      tally,
		})
	})
	if span != nil {
		span()
	}
	return err
}

func (k *denseKernel) compute(ghost []float64) {
	T := len(k.coeffs)
	for i := range k.lhsSlots {
		base := i * T
		sum := 0.0
		for ti := 0; ti < T; ti++ {
			idx := k.refs[base+ti]
			var v float64
			if idx >= 0 {
				v = k.srcData[ti][idx]
			} else {
				v = ghost[-idx-1]
			}
			sum += k.coeffs[ti] * v
		}
		k.tmp[i] = sum
	}
	for i, sl := range k.lhsSlots {
		k.lhsData[sl] = k.tmp[i]
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
