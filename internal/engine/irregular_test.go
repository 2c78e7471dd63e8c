package engine

import (
	"strings"
	"testing"

	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/index"
	"hpfnt/internal/inspector"
	"hpfnt/internal/machine"
	"hpfnt/internal/proc"
)

// rank1Mapping distributes 1:n by f over np processors.
func rank1Mapping(t *testing.T, sys *proc.System, n int, f dist.Format) core.ElementMapping {
	t.Helper()
	arr, ok := sys.Lookup("P")
	if !ok {
		var err error
		arr, err = sys.DeclareArray("P", index.Standard(1, sys.AP.N()))
		if err != nil {
			t.Fatal(err)
		}
	}
	d, err := dist.New(index.Standard(1, n), []dist.Format{f}, proc.Whole(arr))
	if err != nil {
		t.Fatalf("rank-1 mapping: %v", err)
	}
	return core.DistMapping{D: d}
}

// irregularOutcome runs a small CSR-style gather on one backend.
func irregularOutcome(t *testing.T, kind string, iters int) ([]float64, machine.Report) {
	t.Helper()
	const n, np = 24, 4
	sys, err := proc.NewSystem(np)
	if err != nil {
		t.Fatal(err)
	}
	owner := make([]int, n)
	for i := range owner {
		owner[i] = (i*7)%np + 1
	}
	indir, err := dist.NewIndirect(owner)
	if err != nil {
		t.Fatal(err)
	}
	eng := newBackend(t, kind, DefaultTransport, np)
	defer eng.Close()
	x, err := eng.NewArray("X", rank1Mapping(t, sys, n, indir))
	if err != nil {
		t.Fatal(err)
	}
	y, err := eng.NewArray("Y", rank1Mapping(t, sys, n, dist.Block{}))
	if err != nil {
		t.Fatal(err)
	}
	x.Fill(func(tu index.Tuple) float64 { return float64(tu[0]*tu[0] - 3) })
	// y(i) = 2·x(i*5 mod n + 1) + x(i), flattened per access.
	var pat inspector.Pattern
	for i := 0; i < n; i++ {
		pat.Writes = append(pat.Writes, int32(i), int32(i))
		pat.Reads = append(pat.Reads, int32((i*5)%n), int32(i))
		pat.Coeffs = append(pat.Coeffs, 2, 1)
	}
	sched, err := y.NewIrregular(x, pat)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.ExecuteN(iters); err != nil {
		t.Fatal(err)
	}
	return y.Data(), eng.Stats()
}

// TestIrregularSimSpmdAgree asserts sim and spmd compute the oracle's
// values and charge its statistics for an irregular gather, and that
// replay (schedule reuse) leaves the values fixed while scaling the
// traffic linearly.
func TestIrregularSimSpmdAgree(t *testing.T) {
	want, wantRep := irregularOutcome(t, oracleKind, 1)
	want3, want3Rep := irregularOutcome(t, oracleKind, 3)
	for i := range want {
		if want3[i] != want[i] {
			t.Fatalf("replay changed values at %d", i)
		}
	}
	if want3Rep.ElementsMoved != 3*wantRep.ElementsMoved || want3Rep.Messages != 3*wantRep.Messages {
		t.Fatalf("replay traffic not linear: 1 iter %+v, 3 iters %+v", wantRep, want3Rep)
	}
	for _, kind := range Kinds() {
		for _, it := range []struct {
			iters int
			vals  []float64
			rep   machine.Report
		}{{1, want, wantRep}, {3, want3, want3Rep}} {
			vals, rep := irregularOutcome(t, kind, it.iters)
			for i := range vals {
				if vals[i] != it.vals[i] {
					t.Fatalf("%s x%d: value mismatch at %d: %g, oracle %g", kind, it.iters, i, vals[i], it.vals[i])
				}
			}
			if rep != it.rep {
				t.Fatalf("%s x%d: report mismatch:\n got    %+v\n oracle %+v", kind, it.iters, rep, it.rep)
			}
		}
	}
}

// TestIrregularOracleValues checks the gather against a direct
// sequential computation of the same statement.
func TestIrregularOracleValues(t *testing.T) {
	const n, np = 17, 3
	sys, err := proc.NewSystem(np)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Sim, np, machine.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	x, err := eng.NewArray("X", rank1Mapping(t, sys, n, dist.Cyclic{K: 2}))
	if err != nil {
		t.Fatal(err)
	}
	y, err := eng.NewArray("Y", rank1Mapping(t, sys, n, dist.Block{}))
	if err != nil {
		t.Fatal(err)
	}
	fill := func(tu index.Tuple) float64 { return float64(3*tu[0] + 1) }
	x.Fill(fill)
	y.Fill(func(tu index.Tuple) float64 { return -1 })
	// y(i) = x(perm(i)) + 0.5·x(i) for even offsets only; odd offsets
	// keep their old value.
	var pat inspector.Pattern
	for i := 0; i < n; i += 2 {
		pat.Writes = append(pat.Writes, int32(i), int32(i))
		pat.Reads = append(pat.Reads, int32((i+5)%n), int32(i))
		pat.Coeffs = append(pat.Coeffs, 1, 0.5)
	}
	sched, err := y.NewIrregular(x, pat)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Execute(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := -1.0
		if i%2 == 0 {
			want = float64(3*((i+5)%n+1)+1) + 0.5*float64(3*(i+1)+1)
		}
		if got := y.Data()[i]; got != want {
			t.Fatalf("y[%d] = %g, want %g", i, got, want)
		}
	}
}

// TestIrregularInvalidation: remapping either array must invalidate
// the schedule on every backend, with matching error behavior.
func TestIrregularInvalidation(t *testing.T) {
	for _, kind := range append(Kinds(), oracleKind) {
		const n, np = 12, 3
		sys, err := proc.NewSystem(np)
		if err != nil {
			t.Fatal(err)
		}
		eng := newBackend(t, kind, DefaultTransport, np)
		defer eng.Close()
		x, err := eng.NewArray("X", rank1Mapping(t, sys, n, dist.Block{}))
		if err != nil {
			t.Fatal(err)
		}
		y, err := eng.NewArray("Y", rank1Mapping(t, sys, n, dist.Cyclic{K: 1}))
		if err != nil {
			t.Fatal(err)
		}
		pat := inspector.Pattern{Writes: []int32{0, 5}, Reads: []int32{11, 2}}
		sched, err := y.NewIrregular(x, pat)
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.Execute(); err != nil {
			t.Fatal(err)
		}
		if _, err := x.Remap(rank1Mapping(t, sys, n, dist.Cyclic{K: 2})); err != nil {
			t.Fatal(err)
		}
		err = sched.Execute()
		if err == nil || !strings.Contains(err.Error(), "invalidated by remap") {
			t.Fatalf("%s: stale irregular schedule executed: %v", kind, err)
		}
	}
}

// TestIrregularReplicatedRefused: every backend refuses replicated
// arrays with the shared error text.
func TestIrregularReplicatedRefused(t *testing.T) {
	for _, kind := range append(Kinds(), oracleKind) {
		const n, np = 8, 2
		sys, err := proc.NewSystem(np)
		if err != nil {
			t.Fatal(err)
		}
		arr, err := sys.DeclareScalar("REP", proc.ScalarReplicated)
		if err != nil {
			t.Fatal(err)
		}
		d, err := dist.New(index.Standard(1, n), []dist.Format{dist.Collapsed{}}, proc.Whole(arr))
		if err != nil {
			t.Fatal(err)
		}
		eng := newBackend(t, kind, DefaultTransport, np)
		defer eng.Close()
		r, err := eng.NewArray("R", core.DistMapping{D: d})
		if err != nil {
			t.Fatal(err)
		}
		y, err := eng.NewArray("Y", rank1Mapping(t, sys, n, dist.Block{}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := y.NewIrregular(r, inspector.Pattern{Writes: []int32{0}, Reads: []int32{0}}); err == nil || !strings.Contains(err.Error(), inspector.ErrReplicated) {
			t.Fatalf("%s: replicated source accepted: %v", kind, err)
		}
		if _, err := r.NewIrregular(y, inspector.Pattern{Writes: []int32{0}, Reads: []int32{0}}); err == nil || !strings.Contains(err.Error(), inspector.ErrReplicated) {
			t.Fatalf("%s: replicated lhs accepted: %v", kind, err)
		}
	}
}
