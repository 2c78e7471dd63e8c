package workload

// The irregular workloads: a sparse matrix–vector product (the kernel
// of a conjugate-gradient step) and an unstructured-mesh edge sweep.
// Both access a distributed vector through indirection arrays —
// subscripts that are themselves data — so their communication sets
// cannot be derived in closed form; they compile through the
// inspector–executor subsystem (package inspector) instead of the
// run-length shift analysis, and their per-iteration cost drops to
// pure gather/compute once the schedule is built (see
// TestIrregularAmortization, and bench/'s inspector.build_ms and
// inspector.first_over_steady).

import (
	"fmt"
	"time"

	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/engine"
	"hpfnt/internal/index"
	"hpfnt/internal/inspector"
	"hpfnt/internal/machine"
	"hpfnt/internal/proc"
	"hpfnt/internal/runtime"
)

// Rank1Mapping returns the mapping of a 1-D array 1:n distributed by
// format f over np processors.
func Rank1Mapping(n, np int, f dist.Format) (core.ElementMapping, error) {
	sys, err := proc.NewSystem(np)
	if err != nil {
		return nil, err
	}
	arr, err := sys.DeclareArray("P", index.Standard(1, np))
	if err != nil {
		return nil, err
	}
	d, err := dist.New(index.Standard(1, n), []dist.Format{f}, proc.Whole(arr))
	if err != nil {
		return nil, err
	}
	return core.DistMapping{D: d}, nil
}

// PartitionMapping returns an INDIRECT rank-1 mapping of 1:n from a
// synthetic partitioner: contiguous chunks of pseudo-random width are
// dealt to the processors round-robin, the shape a mesh partitioner's
// owner vector typically has (long runs, irregular boundaries).
func PartitionMapping(n, np int, seed uint64) (core.ElementMapping, error) {
	owner := make([]int, n)
	x := seed*2654435761 + 1
	p, left := 1, 0
	for i := range owner {
		if left == 0 {
			x = x*6364136223846793005 + 1442695040888963407
			left = int(x>>33)%(n/(2*np)+2) + 1
			p = p%np + 1
		}
		owner[i] = p
		left--
	}
	f, err := dist.NewIndirect(owner)
	if err != nil {
		return nil, err
	}
	return Rank1Mapping(n, np, f)
}

// SparseSystem is a synthetic sparse n×n matrix in flattened
// coordinate form: entry k has value Vals[k] at (Rows[k]+1,
// Cols[k]+1) (0-based offsets, matching the inspector's pattern
// encoding directly).
type SparseSystem struct {
	N    int
	Rows []int32
	Cols []int32
	Vals []float64
}

// SparseMatrix generates a deterministic sparse n×n system with
// exactly nnz entries: the full diagonal (every row is written), a
// near-diagonal band, and pseudo-random long-range entries — the
// structure of an unstructured-grid operator, with enough long-range
// coupling to force halo traffic under any block distribution.
// nnz must be at least n.
func SparseMatrix(n, nnz int, seed uint64) SparseSystem {
	if nnz < n {
		nnz = n
	}
	s := SparseSystem{
		N:    n,
		Rows: make([]int32, 0, nnz),
		Cols: make([]int32, 0, nnz),
		Vals: make([]float64, 0, nnz),
	}
	for i := 0; i < n; i++ {
		s.Rows = append(s.Rows, int32(i))
		s.Cols = append(s.Cols, int32(i))
		s.Vals = append(s.Vals, 4)
	}
	x := seed*1013904223 + 12345
	for k := n; k < nnz; k++ {
		x = x*6364136223846793005 + 1442695040888963407
		i := int(x>>33) % n
		var j int
		if k%4 != 0 {
			// Band entry: a near neighbour.
			j = (i + int(x>>17)%7 - 3 + n) % n
		} else {
			// Long-range entry.
			j = int(x>>45) % n
		}
		s.Rows = append(s.Rows, int32(i))
		s.Cols = append(s.Cols, int32(j))
		s.Vals = append(s.Vals, float64(int(x>>29)%9)-4)
	}
	return s
}

// Pattern returns the system's inspector pattern: access k
// accumulates Vals[k]·x(Cols[k]) into q(Rows[k]) — exactly
// q = A·x in flattened form, the matrix values serving as the
// schedule's coefficients.
func (s SparseSystem) Pattern() inspector.Pattern {
	return inspector.Pattern{Writes: s.Rows, Reads: s.Cols, Coeffs: s.Vals}
}

// SeqMatVec computes q = A·x sequentially over dense vectors — the
// reference semantics the distributed execution must reproduce.
func (s SparseSystem) SeqMatVec(x []float64) []float64 {
	q := make([]float64, s.N)
	for k := range s.Rows {
		q[s.Rows[k]] += s.Vals[k] * x[s.Cols[k]]
	}
	return q
}

// SparseCG holds the distributed state of the CG matrix–vector
// kernel: the vectors x and q and the flattened matrix pattern. The
// schedule is built separately (NewSchedule) so callers can measure
// the inspector cost against steady-state replay.
type SparseCG struct {
	Sys  SparseSystem
	X, Q engine.Array
}

// xFill is the deterministic initial vector of the CG workloads.
func xFill(t index.Tuple) float64 { return float64(t[0]%13) - 3 }

// NewSparseCG materializes x and q with the given mappings on eng and
// fills x deterministically.
func NewSparseCG(eng engine.Engine, sys SparseSystem, xm, qm core.ElementMapping) (*SparseCG, error) {
	x, err := eng.NewArray("X", xm)
	if err != nil {
		return nil, err
	}
	q, err := eng.NewArray("Q", qm)
	if err != nil {
		return nil, err
	}
	x.Fill(xFill)
	return &SparseCG{Sys: sys, X: x, Q: q}, nil
}

// NewSchedule runs the inspector over the matrix pattern: the
// first-iteration cost every subsequent replay amortizes.
func (c *SparseCG) NewSchedule() (engine.Schedule, error) {
	return c.Q.NewIrregular(c.X, c.Sys.Pattern())
}

// SparseCGStep builds the q = A·x schedule once, replays it iters
// times, reduces q (the dot-product-shaped scalar of a CG step), and
// returns the report plus the reduction value.
func SparseCGStep(eng engine.Engine, sys SparseSystem, iters int, xm, qm core.ElementMapping) (machine.Report, float64, error) {
	c, err := NewSparseCG(eng, sys, xm, qm)
	if err != nil {
		return machine.Report{}, 0, err
	}
	sched, err := c.NewSchedule()
	if err != nil {
		return machine.Report{}, 0, err
	}
	if err := sched.ExecuteN(iters); err != nil {
		return machine.Report{}, 0, err
	}
	sum, err := c.Q.Reduce(runtime.ReduceSum)
	if err != nil {
		return machine.Report{}, 0, err
	}
	return eng.Stats(), sum, nil
}

// Mesh is a synthetic unstructured mesh: nodes 1..N and undirected
// edges (U[k]+1, V[k]+1) in 0-based offset form.
type Mesh struct {
	N    int
	U, V []int32
}

// RingMesh builds a deterministic mesh: the n-cycle (every node has
// two neighbours) plus `chords` pseudo-random long chords, the
// long-range connectivity that makes the sweep's communication
// irregular.
func RingMesh(n, chords int, seed uint64) Mesh {
	m := Mesh{N: n}
	for i := 0; i < n; i++ {
		m.U = append(m.U, int32(i))
		m.V = append(m.V, int32((i+1)%n))
	}
	x := seed*22695477 + 1
	for c := 0; c < chords; c++ {
		x = x*6364136223846793005 + 1442695040888963407
		u := int(x>>33) % n
		v := int(x>>13) % n
		if u == v {
			v = (v + n/2) % n
		}
		m.U = append(m.U, int32(u))
		m.V = append(m.V, int32(v))
	}
	return m
}

// Pattern returns the edge sweep's inspector pattern: each edge
// (u, v) contributes acc(u) += val(v) and acc(v) += val(u) — the
// canonical gather over an unstructured mesh.
func (m Mesh) Pattern() inspector.Pattern {
	writes := make([]int32, 0, 2*len(m.U))
	reads := make([]int32, 0, 2*len(m.U))
	for k := range m.U {
		writes = append(writes, m.U[k], m.V[k])
		reads = append(reads, m.V[k], m.U[k])
	}
	return inspector.Pattern{Writes: writes, Reads: reads}
}

// SeqSweep computes the edge sweep sequentially over a dense vector.
func (m Mesh) SeqSweep(val []float64) []float64 {
	acc := make([]float64, m.N)
	for k := range m.U {
		acc[m.U[k]] += val[m.V[k]]
		acc[m.V[k]] += val[m.U[k]]
	}
	return acc
}

// EdgeSweep materializes val and acc with the given mappings, builds
// the edge-sweep schedule once, replays it iters times, and returns
// the report.
func EdgeSweep(eng engine.Engine, m Mesh, iters int, valMap, accMap core.ElementMapping) (machine.Report, error) {
	val, err := eng.NewArray("VAL", valMap)
	if err != nil {
		return machine.Report{}, err
	}
	acc, err := eng.NewArray("ACC", accMap)
	if err != nil {
		return machine.Report{}, err
	}
	val.Fill(xFill)
	sched, err := acc.NewIrregular(val, m.Pattern())
	if err != nil {
		return machine.Report{}, err
	}
	if err := sched.ExecuteN(iters); err != nil {
		return machine.Report{}, err
	}
	return eng.Stats(), nil
}

// timeIt runs f and returns its wall-clock in milliseconds; a
// failure lands in *errp and returns 0.
func timeIt(f func() error, errp *error) float64 {
	start := time.Now()
	if e := f(); e != nil {
		*errp = e
		return 0
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// IrregularAmortization measures schedule reuse on one backend: the
// wall-clock (milliseconds) of `first` = inspector + one execution
// versus the steady-state per-iteration cost over iters replays of
// the compiled schedule. Used by the amortization gate
// (TestIrregularAmortization).
func IrregularAmortization(kind string, sys SparseSystem, np, iters int) (first, steady float64, err error) {
	eng, err := engine.New(kind, np, machine.DefaultCost())
	if err != nil {
		return 0, 0, err
	}
	defer eng.Close()
	xm, err := Rank1Mapping(sys.N, np, dist.Block{})
	if err != nil {
		return 0, 0, err
	}
	qm, err := Rank1Mapping(sys.N, np, dist.Block{})
	if err != nil {
		return 0, 0, err
	}
	c, err := NewSparseCG(eng, sys, xm, qm)
	if err != nil {
		return 0, 0, err
	}
	if iters < 1 {
		return 0, 0, fmt.Errorf("workload: amortization needs iters >= 1, got %d", iters)
	}
	// Warm-up epoch so worker spawn cost lands on neither side.
	if s, err := c.NewSchedule(); err != nil {
		return 0, 0, err
	} else if err := s.Execute(); err != nil {
		return 0, 0, err
	}
	first = timeIt(func() error {
		s, err := c.NewSchedule()
		if err != nil {
			return err
		}
		return s.Execute()
	}, &err)
	if err != nil {
		return 0, 0, err
	}
	sched, err := c.NewSchedule()
	if err != nil {
		return 0, 0, err
	}
	steady = timeIt(func() error { return sched.ExecuteN(iters) }, &err) / float64(iters)
	if err != nil {
		return 0, 0, err
	}
	return first, steady, nil
}
