// Package workload provides the workload generators used by the
// experiments: the staggered-grid update of §8.1.1, a 5-point Jacobi
// relaxation, irregular (triangular) per-row weights for the
// load-balancing experiments, and an LU-style shrinking active set
// for the cyclic-distribution experiment.
//
// The executing sweeps run on the process-default execution backend
// (package engine): the sequential dispatcher (sim) unless HPFNT_ENGINE
// (or hpfbench's -engine flag) selects the parallel one (spmd). Both
// run the same plans and produce identical values and statistics, so
// every experiment's claim checks hold on either.
package workload

import (
	"fmt"

	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/engine"
	"hpfnt/internal/index"
	"hpfnt/internal/machine"
	"hpfnt/internal/proc"
	"hpfnt/internal/runtime"
)

// StaggeredMappings holds element mappings for the three staggered
// arrays of §8.1.1: U(0:N,1:N), V(1:N,0:N) and P(1:N,1:N).
type StaggeredMappings struct {
	U, V, P core.ElementMapping
}

// StaggeredDomains returns the §8.1.1 declarations
// REAL U(0:N,1:N), V(1:N,0:N), P(1:N,1:N).
func StaggeredDomains(n int) (u, v, p index.Domain) {
	u = index.Standard(0, n, 1, n)
	v = index.Standard(1, n, 0, n)
	p = index.Standard(1, n, 1, n)
	return u, v, p
}

// StaggeredSweep executes the paper's statement
//
//	P = U(0:N-1,:) + U(1:N,:) + V(:,0:N-1) + V(:,1:N)
//
// once over distributed arrays built from the given mappings, on a
// machine with np processors and the given cost model, and returns
// the communication/load report. Each reference is a shifted read:
// P(i,j) reads U(i-1,j), U(i,j), V(i,j-1) and V(i,j).
func StaggeredSweep(n, np int, maps StaggeredMappings, cost machine.CostModel) (machine.Report, error) {
	eng, err := engine.NewDefault(np, cost)
	if err != nil {
		return machine.Report{}, err
	}
	defer eng.Close()
	ua, err := eng.NewArray("U", maps.U)
	if err != nil {
		return machine.Report{}, err
	}
	va, err := eng.NewArray("V", maps.V)
	if err != nil {
		return machine.Report{}, err
	}
	pa, err := eng.NewArray("P", maps.P)
	if err != nil {
		return machine.Report{}, err
	}
	ua.Fill(func(t index.Tuple) float64 { return float64(t[0] + 2*t[1]) })
	va.Fill(func(t index.Tuple) float64 { return float64(3*t[0] - t[1]) })
	terms := []engine.Term{
		engine.Read(ua, 1, -1, 0),
		engine.Read(ua, 1, 0, 0),
		engine.Read(va, 1, 0, -1),
		engine.Read(va, 1, 0, 0),
	}
	if err := pa.Assign(pa.Domain(), terms); err != nil {
		return machine.Report{}, err
	}
	return eng.Stats(), nil
}

// StaggeredVerify runs the sweep both distributed and sequentially
// and reports whether the values agree (the distributed executor must
// not change program semantics regardless of mapping).
func StaggeredVerify(n, np int, maps StaggeredMappings) (bool, error) {
	udom, vdom, pdom := StaggeredDomains(n)
	eng, err := engine.NewDefault(np, machine.DefaultCost())
	if err != nil {
		return false, err
	}
	defer eng.Close()
	ua, err := eng.NewArray("U", maps.U)
	if err != nil {
		return false, err
	}
	va, err := eng.NewArray("V", maps.V)
	if err != nil {
		return false, err
	}
	pa, err := eng.NewArray("P", maps.P)
	if err != nil {
		return false, err
	}
	fill1 := func(t index.Tuple) float64 { return float64(t[0]*7 + t[1]) }
	fill2 := func(t index.Tuple) float64 { return float64(t[0] - 5*t[1]) }
	ua.Fill(fill1)
	va.Fill(fill2)
	if err := pa.Assign(pa.Domain(), []engine.Term{
		engine.Read(ua, 1, -1, 0), engine.Read(ua, 1, 0, 0),
		engine.Read(va, 1, 0, -1), engine.Read(va, 1, 0, 0),
	}); err != nil {
		return false, err
	}
	us, vs, ps := runtime.NewSeqArray(udom), runtime.NewSeqArray(vdom), runtime.NewSeqArray(pdom)
	us.Fill(fill1)
	vs.Fill(fill2)
	if err := runtime.SeqShiftAssign(ps, ps.Dom, []runtime.SeqTerm{
		{Src: us, Shift: []int{-1, 0}, Coeff: 1}, {Src: us, Shift: []int{0, 0}, Coeff: 1},
		{Src: vs, Shift: []int{0, -1}, Coeff: 1}, {Src: vs, Shift: []int{0, 0}, Coeff: 1},
	}); err != nil {
		return false, err
	}
	pd, sd := pa.Data(), ps.Data()
	for i := range pd {
		if pd[i] != sd[i] {
			return false, nil
		}
	}
	return true, nil
}

// JacobiSweep runs one 5-point Jacobi relaxation
// B(2:N-1,2:N-1) = 0.25*(A(1:N-2,:)+A(3:N,:)+A(:,1:N-2)+A(:,3:N))
// over arrays with the given mappings and returns the report.
func JacobiSweep(n, np int, a, b core.ElementMapping, cost machine.CostModel) (machine.Report, error) {
	eng, err := engine.NewDefault(np, cost)
	if err != nil {
		return machine.Report{}, err
	}
	defer eng.Close()
	rep, err := jacobiOn(eng, n, 1, a, b)
	if err != nil {
		return machine.Report{}, err
	}
	return rep, nil
}

// jacobiOn builds the 5-point interior schedule on eng and replays it
// iters times.
func jacobiOn(eng engine.Engine, n, iters int, a, b core.ElementMapping) (machine.Report, error) {
	aa, err := eng.NewArray("A", a)
	if err != nil {
		return machine.Report{}, err
	}
	ba, err := eng.NewArray("B", b)
	if err != nil {
		return machine.Report{}, err
	}
	aa.Fill(func(t index.Tuple) float64 { return float64((t[0] * t[1]) % 97) })
	interior := index.Standard(2, n-1, 2, n-1)
	terms := []engine.Term{
		engine.Read(aa, 0.25, -1, 0),
		engine.Read(aa, 0.25, 1, 0),
		engine.Read(aa, 0.25, 0, -1),
		engine.Read(aa, 0.25, 0, 1),
	}
	sched, err := ba.NewSchedule(interior, terms)
	if err != nil {
		return machine.Report{}, err
	}
	if err := sched.ExecuteN(iters); err != nil {
		return machine.Report{}, err
	}
	return eng.Stats(), nil
}

// JacobiReplay builds the n×n 5-point schedule once on eng and
// replays it iters times — the schedule-replay workload behind the
// parallel-speedup gate. The report reflects all iterations.
func JacobiReplay(eng engine.Engine, n, iters int, a, b core.ElementMapping) (machine.Report, error) {
	return jacobiOn(eng, n, iters, a, b)
}

// BlockRowMapping returns the (BLOCK,:) mapping of an n×n array over
// np processors — the canonical row-blocked Jacobi layout used by the
// speedup gate.
func BlockRowMapping(n, np int) (core.ElementMapping, error) {
	sys, err := proc.NewSystem(np)
	if err != nil {
		return nil, err
	}
	arr, err := sys.DeclareArray("P", index.Standard(1, np))
	if err != nil {
		return nil, err
	}
	d, err := dist.New(index.Standard(1, n, 1, n), []dist.Format{dist.Block{}, dist.Collapsed{}}, proc.Whole(arr))
	if err != nil {
		return nil, err
	}
	return core.DistMapping{D: d}, nil
}

// TriangularWeights returns w(i) = i for i in 1..n — the canonical
// irregular workload (e.g. a triangular loop nest) motivating
// GENERAL_BLOCK.
func TriangularWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(i + 1)
	}
	return w
}

// LUReport summarizes the LU-style experiment for one rank-1 format.
type LUReport struct {
	Format    string
	MaxLoad   int64
	TotalLoad int64
	Imbalance float64
}

// LUSweep simulates the load of an LU-factorization-like computation
// over an n×n matrix distributed by rows with the given rank-1
// format over np processors: at step k, the owner of each active row
// i in (k, n] performs n-k units of work. BLOCK distributions idle
// the processors owning early rows as the active set shrinks; CYCLIC
// keeps all processors busy (§4.1.3's motivation).
//
// Row i accumulates Σ_{k=1}^{i-1} (n-k) = (i-1)n − i(i-1)/2 units
// over the whole factorization, so each ownership run [lo, hi]
// contributes a closed-form polynomial sum and the sweep is O(runs)
// — no per-row or per-step enumeration (INDIRECT aside, whose run
// computation walks its owner vector once).
func LUSweep(n, np int, f dist.Format) (LUReport, error) {
	if err := f.Validate(n, np); err != nil {
		return LUReport{}, err
	}
	load := make([]int64, np+1)
	for _, r := range dist.Runs(f, 1, n, n, np) {
		load[r.Proc] += luRunLoad(int64(n), int64(r.Lo), int64(r.Hi))
	}
	var max, total int64
	for p := 1; p <= np; p++ {
		total += load[p]
		if load[p] > max {
			max = load[p]
		}
	}
	imb := 0.0
	if total > 0 {
		imb = float64(max) / (float64(total) / float64(np))
	}
	return LUReport{Format: f.String(), MaxLoad: max, TotalLoad: total, Imbalance: imb}, nil
}

// luRunLoad is Σ_{i=lo..hi} (i-1)n − i(i-1)/2, via the closed forms
// for Σi and Σi² over the interval.
func luRunLoad(n, lo, hi int64) int64 {
	cnt := hi - lo + 1
	s1 := (lo + hi) * cnt / 2
	s2 := hi*(hi+1)*(2*hi+1)/6 - (lo-1)*lo*(2*lo-1)/6
	return n*(s1-cnt) - (s2-s1)/2
}

// RowSweepLoad computes, for a rank-1 row mapping and per-row weights
// w, the per-processor load vector on a machine of np processors.
// Loads are charged per ownership run through a prefix sum over the
// (truncated) weights — one AddLoad per run instead of one Map and
// AddLoad per row.
func RowSweepLoad(m *machine.Machine, f dist.Format, w []float64, np int) error {
	n := len(w)
	if err := f.Validate(n, np); err != nil {
		return err
	}
	// prefix[i] = Σ_{j<=i} int(w[j-1]), matching the per-row integer
	// truncation of the element-wise formulation.
	prefix := make([]int, n+1)
	for i := 1; i <= n; i++ {
		prefix[i] = prefix[i-1] + int(w[i-1])
	}
	for _, r := range dist.Runs(f, 1, n, n, np) {
		if r.Proc < 1 || r.Proc > np {
			return fmt.Errorf("workload: format mapped rows %d:%d to processor %d of %d", r.Lo, r.Hi, r.Proc, np)
		}
		m.AddLoad(r.Proc, prefix[r.Hi]-prefix[r.Lo-1])
	}
	return nil
}
