package engine

import (
	"testing"

	"hpfnt/internal/dist"
	"hpfnt/internal/index"
	"hpfnt/internal/inspector"
	"hpfnt/internal/proc"
	"hpfnt/internal/runtime"
)

// irregularScenario is one differential case for the irregular
// (inspector–executor) path: two random rank-1 distributions, a
// random indirection pattern, a schedule replay, and a remap that
// must invalidate the schedule on every backend.
type irregularScenario struct {
	np, n    int
	f1, f2   dist.Format
	f3       dist.Format // remap target for the source
	patSeed  uint64
	accesses int
	replayIt int
	// tkind is the wire of the spmd run.
	tkind string
	// gather draws the writes as a permutation prefix of the lhs
	// offsets: every output has one access, the gather kernel's case.
	gather bool
}

// pattern derives a deterministic access pattern over offsets 0..n-1
// from the scenario seed: random writes (distinct ones, at most n, for
// a gather), random reads, small integer coefficients (kept exact in
// float64, so value comparison is exact).
func (sc irregularScenario) pattern() inspector.Pattern {
	var pat inspector.Pattern
	x := sc.patSeed*6364136223846793005 + 1442695040888963407
	perm := make([]int32, sc.n)
	for i := range perm {
		perm[i] = int32(i)
	}
	for k := 0; k < sc.accesses; k++ {
		x = x*6364136223846793005 + 1442695040888963407
		w := int32(int(x>>33) % sc.n)
		if sc.gather {
			if k == sc.n {
				break
			}
			j := k + int(x>>33)%(sc.n-k)
			perm[k], perm[j] = perm[j], perm[k]
			w = perm[k]
		}
		pat.Writes = append(pat.Writes, w)
		pat.Reads = append(pat.Reads, int32(int(x>>13)%sc.n))
		pat.Coeffs = append(pat.Coeffs, float64(int(x>>49)%7)-3)
	}
	return pat
}

// run executes the scenario on one backend and returns everything
// observable.
func (sc irregularScenario) run(t *testing.T, kind string) outcome {
	t.Helper()
	var out outcome
	fail := func(err error) { out.errs = append(out.errs, err.Error()) }
	sys, err := proc.NewSystem(sc.np)
	if err != nil {
		t.Fatal(err)
	}
	m1 := rank1Mapping(t, sys, sc.n, sc.f1)
	m2 := rank1Mapping(t, sys, sc.n, sc.f2)
	m3 := rank1Mapping(t, sys, sc.n, sc.f3)
	eng := newBackend(t, kind, sc.tkind, sc.np)
	defer eng.Close()
	x, err := eng.NewArray("X", m1)
	if err != nil {
		fail(err)
		return out
	}
	y, err := eng.NewArray("Y", m2)
	if err != nil {
		fail(err)
		return out
	}
	// Negative values and a zero: a product c·v can be -0, which the
	// accumulation from 0 turns into +0.
	x.Fill(func(tu index.Tuple) float64 { return float64(tu[0]*11%17 - 8) })
	y.Fill(func(tu index.Tuple) float64 { return float64(-tu[0]) })
	sched, err := y.NewIrregular(x, sc.pattern())
	if err != nil {
		fail(err)
		return out
	}
	if err := sched.ExecuteN(sc.replayIt); err != nil {
		fail(err)
	}
	// Remap the source: the schedule must refuse replay identically
	// on every backend, and a rebuilt schedule must execute.
	moved, err := x.Remap(m3)
	if err != nil {
		fail(err)
	}
	out.moved = moved
	if err := sched.Execute(); err != nil {
		fail(err)
	} else {
		// A stale schedule executing is itself a divergence: record a
		// marker distinct from any invalidation error so the value and
		// error comparisons both catch it.
		out.errs = append(out.errs, "stale irregular schedule executed")
	}
	sched2, err := y.NewIrregular(x, sc.pattern())
	if err != nil {
		fail(err)
	} else if err := sched2.Execute(); err != nil {
		fail(err)
	}
	sum, err := y.Reduce(runtime.ReduceSum)
	if err != nil {
		fail(err)
	}
	out.sum = sum
	out.data = append(x.Data(), y.Data()...)
	out.report = eng.Stats()
	return out
}

// FuzzIrregularEquivalence is the differential fuzz target of the
// inspector–executor path: for random rank-1 distributions (including
// INDIRECT owner vectors), random indirection patterns and, for spmd,
// a random wire, sim and spmd must each produce the element-wise
// oracle's array values, reductions, machine.Report statistics and
// invalidation behavior across a remap. Both kinds lower the same
// inspector schedule into the same plan, so this is that lowering's
// guard. The gather arm draws injective writes, so spmd workers take
// the gather kernel in place of the accumulator.
func FuzzIrregularEquivalence(f *testing.F) {
	f.Add(uint8(4), uint8(12), uint8(0), uint8(4), uint8(2), uint8(3), uint64(1), uint8(40), uint8(2), false)
	f.Add(uint8(3), uint8(9), uint8(4), uint8(1), uint8(0), uint8(5), uint64(99), uint8(17), uint8(1), false)
	f.Add(uint8(6), uint8(20), uint8(2), uint8(4), uint8(4), uint8(7), uint64(7), uint8(80), uint8(3), false)
	f.Add(uint8(2), uint8(5), uint8(3), uint8(3), uint8(1), uint8(0), uint64(12345), uint8(0), uint8(1), false)
	f.Add(uint8(5), uint8(16), uint8(4), uint8(4), uint8(3), uint8(9), uint64(31), uint8(120), uint8(2), false)
	// The same shapes with the spmd run on the other wires (itB/3 picks
	// the wire).
	f.Add(uint8(4), uint8(12), uint8(0), uint8(4), uint8(2), uint8(3), uint64(1), uint8(40), uint8(5), false)
	f.Add(uint8(6), uint8(20), uint8(2), uint8(4), uint8(4), uint8(7), uint64(7), uint8(80), uint8(6), false)
	f.Add(uint8(3), uint8(9), uint8(4), uint8(1), uint8(0), uint8(5), uint64(99), uint8(17), uint8(7), false)
	// The gather arm on each wire. Each draws a -0 product — the first
	// two a zero coefficient over a negative value, the third a
	// negative one over the zero — that must store as the oracle's +0.
	f.Add(uint8(4), uint8(12), uint8(4), uint8(4), uint8(2), uint8(3), uint64(2), uint8(40), uint8(2), true)
	f.Add(uint8(6), uint8(20), uint8(2), uint8(4), uint8(4), uint8(7), uint64(7), uint8(80), uint8(3), true)
	f.Add(uint8(3), uint8(9), uint8(4), uint8(1), uint8(0), uint8(5), uint64(99), uint8(7), uint8(7), true)
	f.Fuzz(func(t *testing.T, npB, nB, sel1, sel2, sel3, k uint8, patSeed uint64, accB, itB uint8, gather bool) {
		np := int(npB%7) + 2
		n := int(nB%24) + 4
		sc := irregularScenario{
			np:       np,
			n:        n,
			f1:       formatFor(sel1, k, n, np),
			f2:       formatFor(sel2, k+1, n, np),
			f3:       formatFor(sel3, k+2, n, np),
			patSeed:  patSeed,
			accesses: int(accB),
			replayIt: int(itB%3) + 1,
			tkind:    Transports()[int(itB/3)%len(Transports())],
			gather:   gather,
		}
		want := sc.run(t, oracleKind)
		for _, kind := range Kinds() {
			sameOutcome(t, kind, want, sc.run(t, kind))
		}
	})
}
