package spmd

import (
	"math"
	"math/rand/v2"
	"testing"

	"hpfnt/internal/dist"
	"hpfnt/internal/index"
	"hpfnt/internal/proc"
	"hpfnt/internal/transport"
)

// elementCompute is runKernel.compute as the element-wise oracle
// (package runtime) writes it: every value summed from 0.0 in term
// order, stored at once or, with a tmp, after the whole share.
func elementCompute(k *runKernel, ghost, tmp []float64) {
	T := len(k.coeffs)
	var vals []float64
	for r, run := range k.runs {
		for i := 0; i < int(run.n); i++ {
			sum := 0.0
			for t, tm := range k.terms[r*T : r*T+T] {
				src := k.srcs[t]
				if tm.ghost {
					src = ghost
				}
				sum += k.coeffs[t] * src[int(tm.base)+i*int(tm.stride)]
			}
			if len(tmp) > 0 {
				vals = append(vals, sum)
			} else {
				k.lhs[int(run.base)+i*int(run.stride)] = sum
			}
		}
	}
	if len(tmp) == 0 {
		return
	}
	for _, run := range k.runs {
		for i := 0; i < int(run.n); i++ {
			k.lhs[int(run.base)+i*int(run.stride)], vals = vals[0], vals[1:]
		}
	}
}

// elementCopy is copyBlocks as an element loop: every value of a
// block's old slots stored at its new slot, in order.
func elementCopy(dst, src []float64, blocks [][2]span) {
	for _, bl := range blocks {
		f, t := bl[0], bl[1]
		for r := range int(f.reps) {
			for i := range int(f.count) {
				dst[int(t.base)+r*int(t.pitch)+i*int(t.stride)] = src[int(f.base)+r*int(f.pitch)+i*int(f.stride)]
			}
		}
	}
}

// kernelValues are the values a fuzzed kernel reads and multiplies by:
// both zeros, the subnormal extremes, both infinities and NaNs with
// several payloads among ordinary numbers.
var kernelValues = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 0x1p-1022 - 0x1p-1074,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8000000000abc),
	math.Float64frombits(0xfff0000000000001), 1, -1, 0.25, -3.5, 1e300, -1e-300}

// FuzzRunKernel checks the fused kernel against elementCompute bit for
// bit (NaN matching any NaN): random kernels of 1–6 terms whose runs
// are unit-stride or not, read ghost terms, store directly or through
// tmp, and — when storing directly, as the compiler allows — read the
// lhs only at the element being written. It checks the block copy of a
// remap against elementCopy bit for bit, NaN payloads included: one
// block per run, of one to four rows as long as the run (at most 8),
// each side at its own stride and pitch, unit-stride or not.
func FuzzRunKernel(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(0))
	f.Add(uint64(2), uint8(0), uint8(1))
	f.Add(uint64(3), uint8(4), uint8(2))
	f.Add(uint64(4), uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, tB, mode uint8) {
		const size = 64
		rng := rand.New(rand.NewPCG(seed, uint64(tB)<<8|uint64(mode)))
		T, direct := int(tB%6)+1, mode&1 == 0
		value := func() float64 {
			if rng.IntN(4) == 0 {
				return rng.NormFloat64()
			}
			return kernelValues[rng.IntN(len(kernelValues))]
		}
		fill := func() []float64 {
			s := make([]float64, size)
			for i := range s {
				s[i] = value()
			}
			return s
		}
		// interval picks n slots of a store of size values, stride apart.
		interval := func(n int, unit bool) (base, stride int32) {
			s := 1
			if !unit {
				s = rng.IntN(7) - 3
			}
			span := (n - 1) * s
			lo, hi := max(0, -span), size-1-max(0, span)
			return int32(lo + rng.IntN(hi-lo+1)), int32(s)
		}
		lhs, ghost := fill(), fill()
		// A term reads the lhs array (onLHS) or an array of its own.
		onLHS := make([]bool, T)
		srcs := make([][]float64, T)
		coeffs := make([]float64, T)
		for i := range T {
			onLHS[i], srcs[i], coeffs[i] = rng.IntN(3) == 0, fill(), value()
		}
		var runs []krun
		var terms []kterm
		for range 1 + rng.IntN(4) {
			n, unit := 1+rng.IntN(20), rng.IntN(2) == 0
			run := krun{n: int32(n)}
			run.base, run.stride = interval(n, unit)
			runs = append(runs, run)
			for t := range T {
				kt := kterm{base: run.base, stride: run.stride}
				if !onLHS[t] || !direct {
					kt.ghost = rng.IntN(3) == 0
					kt.base, kt.stride = interval(n, unit)
				}
				terms = append(terms, kt)
			}
		}
		kernel := func(lhs []float64) *runKernel {
			k := &runKernel{lhs: lhs, coeffs: coeffs, srcs: make([][]float64, T), runs: runs, terms: terms}
			for t, s := range srcs {
				if k.srcs[t] = s; onLHS[t] {
					k.srcs[t] = lhs
				}
			}
			return k
		}
		var tmp []float64
		if !direct {
			for _, run := range runs {
				tmp = append(tmp, make([]float64, run.n)...)
			}
		}
		got, want := kernel(append([]float64(nil), lhs...)), kernel(lhs)
		got.compute(ghost, tmp)
		elementCompute(want, ghost, tmp)
		for i := range want.lhs {
			if g, w := got.lhs[i], want.lhs[i]; math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
				t.Fatalf("T=%d direct=%v: lhs[%d] = %g (%#x), element loop %g (%#x)\nruns %v\nterms %v",
					T, direct, i, g, math.Float64bits(g), w, math.Float64bits(w), runs, terms)
			}
		}

		// The block copy reads an array of its own, a remap's old
		// segment. rows picks n slots per row, reps rows, in the store.
		rows := func(n, reps int, unit bool) span {
			s, p := 1, rng.IntN(25)-12
			if !unit {
				s = rng.IntN(7) - 3
			}
			lo, hi := min(0, (n-1)*s)+min(0, (reps-1)*p), max(0, (n-1)*s)+max(0, (reps-1)*p)
			return span{int32(-lo + rng.IntN(size-hi+lo)), int32(s), int32(n), int32(reps), int32(p)}
		}
		var blocks [][2]span
		for _, run := range runs {
			n, reps, unit := min(int(run.n), 8), 1+rng.IntN(4), rng.IntN(2) == 0
			blocks = append(blocks, [2]span{rows(n, reps, unit), rows(n, reps, unit)})
		}
		old, gotCopy, wantCopy := fill(), append([]float64(nil), lhs...), append([]float64(nil), lhs...)
		copyBlocks(gotCopy, old, blocks)
		elementCopy(wantCopy, old, blocks)
		for i := range wantCopy {
			if g, w := math.Float64bits(gotCopy[i]), math.Float64bits(wantCopy[i]); g != w {
				t.Fatalf("copy: new[%d] = %#x, element copy %#x\nblocks %v", i, g, w, blocks)
			}
		}
	})
}

// TestRunKernelAllocFree: evaluating the compiled Jacobi, LU and halo
// statements allocates nothing — the sums live in registers, not in a
// buffer per call.
func TestRunKernelAllocFree(t *testing.T) {
	e := newEngine(t, 2)
	sys, _ := proc.NewSystem(2)
	v, interior, terms := jacobi766(t, e)
	const N, K = 192, 10
	lm := distMapping(t, sys, index.Standard(1, N, 1, N), dist.Cyclic{K: 1}, dist.Collapsed{})
	a, r := newArray(t, e, "A", lm), newArray(t, e, "R", lm)
	h := newArray(t, e, "H", distMapping(t, sys, index.Standard(1, 1024), dist.Cyclic{K: 1}))
	stmts := []struct {
		name   string
		lhs    *Array
		region index.Domain
		terms  []Term
	}{
		{"jacobi", v, interior, terms},
		{"lu", r, index.Standard(K+1, N, K+1, N), []Term{ref(r, 1, 0, 0), ref(a, 1.0/16, -1, -1)}},
		{"halo", h, index.Standard(2, 1023), []Term{ref(h, 0.5, 0), ref(h, 0.25, -1), ref(h, 0.25, 1)}},
	}
	for _, st := range stmts {
		s, err := e.BuildSchedule(st.lhs, st.region, st.terms)
		if err != nil {
			t.Fatal(err)
		}
		for p, wp := range s.plans {
			if wp == nil {
				continue
			}
			buf := e.bufs[p]
			ghost, tmp := buf[:wp.ghost], buf[wp.ghost:wp.ghost+wp.tmp]
			if allocs := testing.AllocsPerRun(5, func() { wp.kernel.compute(ghost, tmp) }); allocs != 0 {
				t.Errorf("%s worker %d: compute allocates %.0f times", st.name, p, allocs)
			}
		}
	}
}

// TestExecuteAllocs pins what one dispatch of a cached schedule
// allocates with tracing off: the epoch closure, and nothing per
// message — here the 2-worker Jacobi, whose workers send each other
// one boundary row in buffers the transport recycles.
func TestExecuteAllocs(t *testing.T) {
	e := newEngine(t, 2)
	v, interior, terms := jacobi766(t, e)
	s, err := e.BuildSchedule(v, interior, terms)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Execute(); err != nil { // starts the workers
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := s.Execute(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("a cached 2-worker Jacobi Execute allocates %.0f times, want 1 (the epoch closure)", allocs)
	}
}

// TestExecuteNAllocsPerWire: on every wire, a sweep of a replayed
// schedule allocates nothing — ExecuteN(64) allocates no more than
// ExecuteN(1) — for the halo statement and for a gather over an
// INDIRECT vector. Messages come from the transport's recycled
// buffers, whether inproc's channels, shm's rings or tcp's reader
// carry them. The gather, built first on its engine, stages nothing:
// every worker's plan asks for no tmp, so its buffer is exactly its
// ghost need.
func TestExecuteNAllocsPerWire(t *testing.T) {
	const n = 256
	for _, kind := range transport.Kinds() {
		t.Run(kind, func(t *testing.T) {
			e := engineOn(t, kind, 2)
			sys, _ := proc.NewSystem(2)
			m := distMapping(t, sys, index.Standard(1, n), indirectFormat(t, n, 2))
			x, y := newArray(t, e, "X", m), newArray(t, e, "Y", m)
			gather, err := e.BuildIrregular(y, x, permutationPattern(n))
			if err != nil {
				t.Fatal(err)
			}
			for p := 1; p <= 2; p++ {
				wp := gather.plans[p]
				if _, ok := wp.kernel.(*gatherKernel); !ok || wp.tmp != 0 || wp.ghost == 0 || len(e.bufs[p]) != wp.ghost {
					t.Fatalf("worker %d: %T with tmp %d, ghost %d, buffer %d", p, wp.kernel, wp.tmp, wp.ghost, len(e.bufs[p]))
				}
			}
			h := newArray(t, e, "H", distMapping(t, sys, index.Standard(1, 1024), dist.Cyclic{K: 1}))
			halo, err := e.BuildSchedule(h, index.Standard(2, 1023), []Term{ref(h, 0.5, 0), ref(h, 0.25, -1), ref(h, 0.25, 1)})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []*Schedule{halo, gather} {
				run := func(iters int) func() {
					return func() {
						if err := s.ExecuteN(iters); err != nil {
							t.Fatal(err)
						}
					}
				}
				run(64)() // starts the workers and fills the buffer pools
				one, many := testing.AllocsPerRun(10, run(1)), testing.AllocsPerRun(10, run(64))
				if many > one {
					t.Errorf("%s: ExecuteN(64) allocates %.1f times, ExecuteN(1) %.1f: a sweep allocates", s.label, many, one)
				}
			}
		})
	}
}
