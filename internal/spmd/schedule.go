package spmd

import (
	"fmt"
	"slices"

	"hpfnt/internal/index"
	"hpfnt/internal/machine"
	"hpfnt/internal/obs"
)

// Term is one right-hand-side reference Coeff · Src(Access(t)): a
// shift, a permutation or a rank-reducing read. It is also the
// compiler's own form of a term.
type Term struct {
	Src    *Array
	Coeff  float64
	Access index.Access
}

// Schedule is a compiled statement: per-worker plans over local slots,
// the per-pair ghost exchange, and the per-worker counter deltas.
// There is one plan shape and one executor; the plans come from one of
// two producers — BuildSchedule (regular statements lhs(region) = Σ
// terms, from owner-tile intersection, see compile.go) or BuildIrregular
// (indirection-array statements, by lowering the inspector's schedule)
// — and ExecuteN replays them without knowing which. A schedule holds
// no value buffer, only lengths into its workers' (Engine.bufs), so a
// schedule built and used once costs what its plans keep. The involved
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
// exchange, the arithmetic over local slots and ghost slots, and the
// counter deltas one iteration charges. It holds no values: ghost and
// tmp are the lengths of the ghost buffer the exchange scatters into
// and of the staging values, both in the worker's Engine.bufs.
type wplan struct {
	ex         exchange
	kernel     kernel
	ghost, tmp int

	load       int
	localRefs  int
	remoteRefs int
}

// kernel is one worker's arithmetic for one iteration: evaluate its
// share of the statement from the local stores and the ghost buffer
// and store it, with Fortran array-assignment semantics (no store is
// visible to any read of the same iteration). tmp holds the values a
// kernel stages before it stores them. runKernel serves every regular
// statement; of the indirection kernels (irregular.go, no run form)
// gatherKernel stores one-access outputs straight and accumKernel sums
// into tmp.
type kernel interface {
	compute(ghost, tmp []float64)
}

// runKernel is a list of strided runs. Run r computes, for i in
// [0, n), lhs[base+i·stride] = Σ_t coeffs[t] · src_t[b_t+i·s_t], where
// term t of the run (terms[r·T+t]) reads the worker's local store of
// the t-th source or, when marked ghost, the ghost buffer. The inner
// loops run slice to slice: there is no per-element index and no
// per-element local/ghost branch.
//
// The plan gives it no tmp when every read of the written store is at
// the element being written (no term reads the lhs array at a non-zero
// shift): each value is then stored as soon as it is computed.
// Otherwise the whole share is evaluated into tmp before any store.
type runKernel struct {
	lhs    []float64
	coeffs []float64
	srcs   [][]float64
	runs   []krun
	terms  []kterm
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
	return s.eng.run(execution{s, iters})
}

// execution is an ExecuteN epoch. Iteration it is phases 3·it, gather
// and send, 3·it+1, receive and scatter, both ghost wait, and 3·it+2,
// compute. Coalescing: a constGhost statement exchanges ghosts only
// in the first iteration of the epoch; the scattered buffer stays
// valid for the replays of this epoch, and only for them: the
// worker's next epoch, of any schedule, reuses the buffer and
// exchanges first.
type execution struct {
	s     *Schedule
	iters int
}

// iteration is the machine phase of each of an iteration's phases.
var iteration = []machine.Phase{machine.PhaseGhostWait, machine.PhaseGhostWait, machine.PhaseCompute}

func (x execution) phases() (int, []machine.Phase) { return 3 * x.iters, iteration }

func (x execution) do(p, k int) {
	s := x.s
	if k%3 == 2 {
		obs.AdvanceIteration() // progress for the elastic watchdog
	}
	wp := s.plans[p]
	if wp == nil || s.constGhost && k >= 3 && k%3 < 2 {
		return
	}
	buf := s.eng.bufs[p]
	switch ghost := buf[:wp.ghost]; k % 3 {
	case 0:
		wp.ex.send(s.eng, p)
	case 1:
		wp.ex.recv(s.eng, p, ghost)
	default:
		wp.kernel.compute(ghost, buf[wp.ghost:wp.ghost+wp.tmp])
	}
}

// span: the epoch's, and one per worker with a plan, whose lanes the
// skew analysis compares to find the straggler.
func (x execution) span(p int) (string, string) {
	switch {
	case p == 0:
		return "epoch", fmt.Sprintf("%s x%d", x.s.label, x.iters)
	case x.s.plans[p] == nil:
		return "", ""
	}
	return "worker", fmt.Sprintf("rank %d x%d", p, x.iters)
}

func (x execution) cost(p int) counters {
	wp, n := x.s.plans[p], x.iters
	if wp == nil {
		return counters{}
	}
	frames := n
	if x.s.constGhost {
		frames = 1
	}
	return counters{load: wp.load * n, localRefs: wp.localRefs * n, remoteRefs: wp.remoteRefs * n,
		sends: wp.ex.sends, msgs: n, frames: frames}
}

// compute sums each value of a run in a register, in the element-wise
// oracle's order — v := 0.0, then v += c_t·s_t for t = 0, 1, … (from
// +0, so an all -0 sum is +0 there too) — and stores it once. A run
// whose destination and terms all advance by one slot and that has at
// most four terms goes through sum1 … sum4, with every side resliced to
// the run; any other run (a strided boundary row, a long statement) is
// walked element by element here.
func (k *runKernel) compute(ghost, tmp []float64) {
	T, c := len(k.coeffs), k.coeffs
	at := 0
	for r, run := range k.runs {
		n, terms := int(run.n), k.terms[r*T:r*T+T]
		dst, base, stride := k.lhs, int(run.base), int(run.stride)
		if len(tmp) > 0 {
			dst, base, stride = tmp, at, 1
		}
		at += n
		if stride == 1 && T > 0 && T <= 4 && !slices.ContainsFunc(terms, func(tm kterm) bool { return tm.stride != 1 }) {
			var s [4][]float64
			for t, tm := range terms {
				src := k.srcs[t]
				if tm.ghost {
					src = ghost
				}
				s[t] = src[tm.base : int(tm.base)+n]
			}
			d := dst[base : base+n]
			switch T {
			case 1:
				sum1(d, s[0], c[0])
			case 2:
				sum2(d, s[0], s[1], c[0], c[1])
			case 3:
				sum3(d, s[0], s[1], s[2], c[0], c[1], c[2])
			case 4:
				sum4(d, s[0], s[1], s[2], s[3], c[0], c[1], c[2], c[3])
			}
			continue
		}
		for i := 0; i < n; i++ {
			v := 0.0
			for t, tm := range terms {
				src := k.srcs[t]
				if tm.ghost {
					src = ghost
				}
				v += c[t] * src[int(tm.base)+i*int(tm.stride)]
			}
			dst[base+i*stride] = v
		}
	}
	if len(tmp) == 0 {
		return
	}
	at = 0
	for _, run := range k.runs {
		storeRun(k.lhs, int(run.base), int(run.stride), tmp[at:at+int(run.n)])
		at += int(run.n)
	}
}

// sum1 … sum4 set d[i] to the sum of their terms' c·s[i] in term
// order, starting from 0.0 and not from the first product: the oracle's
// sum of terms that are all -0 is +0. Each is a function of its own: a loop inlined in compute
// is short enough that where the linker puts it decides the stencil's
// speed (straddling a 64-byte line it runs 1.5× slower), and any edit
// to the code before it can move it there. A function starts 32-byte
// aligned, which leaves two placements modulo a 64-byte line, so each
// loop is shaped to span the same number of lines at both: sum1 takes
// two values per iteration with the odd one last, sum2 with the odd one
// first, and sum3 and sum4 need no help. Reslicing every source to
// len(d) lets the compiler drop most bounds checks.

//go:noinline
func sum1(d, s0 []float64, c0 float64) {
	s0 = s0[:len(d)]
	i := 0
	for ; i+1 < len(d); i += 2 {
		v, w := 0.0, 0.0
		v += c0 * s0[i]
		w += c0 * s0[i+1]
		d[i], d[i+1] = v, w
	}
	if i < len(d) {
		v := 0.0
		v += c0 * s0[i]
		d[i] = v
	}
}

//go:noinline
func sum2(d, s0, s1 []float64, c0, c1 float64) {
	s0, s1 = s0[:len(d)], s1[:len(d)]
	i := len(d) % 2
	if i == 1 {
		v := 0.0
		v += c0 * s0[0]
		v += c1 * s1[0]
		d[0] = v
	}
	for ; i+1 < len(d); i += 2 {
		v, w := 0.0, 0.0
		v += c0 * s0[i]
		w += c0 * s0[i+1]
		v += c1 * s1[i]
		w += c1 * s1[i+1]
		d[i], d[i+1] = v, w
	}
}

//go:noinline
func sum3(d, s0, s1, s2 []float64, c0, c1, c2 float64) {
	s0, s1, s2 = s0[:len(d)], s1[:len(d)], s2[:len(d)]
	for i := range d {
		v := 0.0
		v += c0 * s0[i]
		v += c1 * s1[i]
		v += c2 * s2[i]
		d[i] = v
	}
}

//go:noinline
func sum4(d, s0, s1, s2, s3 []float64, c0, c1, c2, c3 float64) {
	s0, s1, s2, s3 = s0[:len(d)], s1[:len(d)], s2[:len(d)], s3[:len(d)]
	for i := range d {
		v := 0.0
		v += c0 * s0[i]
		v += c1 * s1[i]
		v += c2 * s2[i]
		v += c3 * s3[i]
		d[i] = v
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
