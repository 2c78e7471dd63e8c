package engine

import (
	"bytes"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/index"
	"hpfnt/internal/inspector"
	"hpfnt/internal/machine"
	"hpfnt/internal/proc"
	"hpfnt/internal/runtime"
)

func TestNewValidation(t *testing.T) {
	if _, err := New("nope", 4, machine.DefaultCost()); err == nil {
		t.Fatal("unknown backend must fail")
	}
	if _, err := New(Sim, 0, machine.DefaultCost()); err == nil {
		t.Fatal("np=0 must fail on sim")
	}
	if _, err := New(SPMD, 0, machine.DefaultCost()); err == nil {
		t.Fatal("np=0 must fail on spmd")
	}
	if !slices.Equal(Kinds(), []string{Sim, SPMD}) {
		t.Fatalf("kinds = %v", Kinds())
	}
	// The oracle is reachable only through NewOracle.
	if _, err := New(oracleKind, 4, machine.DefaultCost()); err == nil {
		t.Fatal("the oracle must not be an engine kind")
	}
	o, err := NewOracle(4, machine.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Checkpoint(t.TempDir(), 1, nil); err == nil {
		t.Fatal("the oracle must refuse to checkpoint")
	}
	if _, err := o.Restore(t.TempDir(), nil); err == nil {
		t.Fatal("the oracle must refuse to restore")
	}
}

// TestSimIsSequential pins what the sim kind is: the spmd engine's
// plans run on the caller's goroutine. From NewOn through a statement,
// a schedule epoch, an irregular gather, a remap, a reduction and
// Close it starts no goroutine with an spmd frame — the parallel kind,
// run the same way, holds one per worker until Close — and it computes
// the element-wise oracle's values and logical report. A panicking Fill
// comes back as the engine's sticky error, as it does on spmd.
func TestSimIsSequential(t *testing.T) {
	const n, np = 16, 4
	dom := index.Standard(1, n, 1, n)
	interior := index.Standard(2, n-1, 2, n-1)
	// engineGoroutines counts the goroutines with an spmd frame: the
	// engine's workers. The process's other goroutines (the runtime's,
	// the test framework's, the transports of earlier tests) come and go
	// on their own schedule.
	engineGoroutines := func() int {
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 2); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, g := range strings.Split(buf.String(), "\n\n") {
			if strings.Contains(g, "hpfnt/internal/spmd.") {
				n++
			}
		}
		return n
	}
	// extra is how many engine goroutines exist beyond base once those
	// of earlier tests have had a moment to finish exiting; one the
	// engine started would stay until Close.
	extra := func(base int) int {
		c := engineGoroutines()
		for i := 0; i < 50 && c > base; i++ {
			time.Sleep(2 * time.Millisecond)
			c = engineGoroutines()
		}
		return c - base
	}
	type result struct {
		vals  []float64
		sum   float64
		rep   machine.Report
		extra int
	}
	run := func(kind string) result {
		base := engineGoroutines()
		eng := newBackend(t, kind, InprocTransport, np)
		sys, _ := proc.NewSystem(np)
		a, err := eng.NewArray("A", buildMapping(t, sys, dom, dist.Block{}))
		if err != nil {
			t.Fatal(err)
		}
		b, err := eng.NewArray("B", buildMapping(t, sys, dom, dist.Cyclic{K: 3}))
		if err != nil {
			t.Fatal(err)
		}
		a.Fill(func(tu index.Tuple) float64 { return float64(tu[0]*7 - tu[1]) })
		terms := []Term{Read(a, 0.25, -1, 0), Read(a, 0.25, 1, 0), Read(a, 0.5, 0, 1)}
		if err := assign(b, interior, terms); err != nil {
			t.Fatal(err)
		}
		sched, err := a.NewSchedule(interior, []Term{Read(a, 0.5, -1, 0), Read(b, 0.5, 0, -1)})
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.ExecuteN(3); err != nil {
			t.Fatal(err)
		}
		var pat inspector.Pattern
		for i := 0; i < dom.Size(); i += 3 {
			pat.Writes = append(pat.Writes, int32(i))
			pat.Reads = append(pat.Reads, int32((i*11+5)%dom.Size()))
			pat.Coeffs = append(pat.Coeffs, 2)
		}
		gather, err := b.NewIrregular(a, pat)
		if err != nil {
			t.Fatal(err)
		}
		if err := gather.Execute(); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Remap(buildMapping(t, sys, dom, dist.Cyclic{K: 2})); err != nil {
			t.Fatal(err)
		}
		sum, err := b.Reduce(runtime.ReduceSum)
		if err != nil {
			t.Fatal(err)
		}
		r := result{vals: append(a.Data(), b.Data()...), sum: sum, rep: eng.Stats().Logical(), extra: extra(base)}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if kind == Sim {
			r.extra = max(r.extra, extra(base))
		}
		return r
	}
	want, sim := run(oracleKind), run(Sim)
	if sim.extra > 0 {
		t.Fatalf("sim left %d goroutines running", sim.extra)
	}
	if par := run(SPMD); par.extra < np {
		t.Fatalf("spmd shows %d extra goroutines before Close, want its %d workers: the count is not measuring", par.extra, np)
	}
	if sim.sum != want.sum || sim.rep != want.rep || !slices.Equal(sim.vals, want.vals) {
		t.Fatalf("sim differs from the oracle:\n sim    sum %g %+v\n oracle sum %g %+v", sim.sum, sim.rep, want.sum, want.rep)
	}

	eng := newBackend(t, Sim, InprocTransport, np)
	defer eng.Close()
	sys, _ := proc.NewSystem(np)
	a, err := eng.NewArray("A", buildMapping(t, sys, dom, dist.Block{}))
	if err != nil {
		t.Fatal(err)
	}
	a.Fill(func(tu index.Tuple) float64 {
		if tu[0] == 7 {
			panic("injected failure")
		}
		return 1
	})
	if _, err := a.Reduce(runtime.ReduceSum); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Reduce after a panicking Fill = %v, want the worker's panic", err)
	}
}

func TestBackendsAgreeOnBasics(t *testing.T) {
	for _, kind := range Kinds() {
		eng, err := New(kind, 4, machine.DefaultCost())
		if err != nil {
			t.Fatal(err)
		}
		if eng.Kind() != kind || eng.NP() != 4 || eng.Machine() == nil {
			t.Fatalf("%s: bad identity", kind)
		}
		sys, _ := proc.NewSystem(4)
		m := buildMapping(t, sys, index.Standard(1, 16, 1, 4), dist.Block{})
		a, err := eng.NewArray("A", m)
		if err != nil {
			t.Fatal(err)
		}
		if a.Name() != "A" || a.Replicated() || a.Mapping() != m {
			t.Fatalf("%s: bad array identity", kind)
		}
		a.Fill(func(tu index.Tuple) float64 { return float64(tu[0] + tu[1]) })
		a.Set(index.Tuple{3, 2}, 99)
		if a.At(index.Tuple{3, 2}) != 99 {
			t.Fatalf("%s: Set/At roundtrip failed", kind)
		}
		if got := len(a.Data()); got != 64 {
			t.Fatalf("%s: Data length %d", kind, got)
		}
		eng.Reset()
		if eng.Stats().Messages != 0 {
			t.Fatalf("%s: Reset failed", kind)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCrossBackendTermsRejected(t *testing.T) {
	sim, _ := New(Sim, 2, machine.DefaultCost())
	spmd, _ := New(SPMD, 2, machine.DefaultCost())
	defer spmd.Close()
	sys, _ := proc.NewSystem(2)
	m := buildMapping(t, sys, index.Standard(1, 8, 1, 2), dist.Block{})
	a, _ := sim.NewArray("A", m)
	b, _ := spmd.NewArray("B", m)
	if err := assign(b, b.Domain(), []Term{Read(a, 1, 0, 0)}); err == nil {
		t.Fatal("sim-array term on spmd lhs must fail")
	}
	if err := assign(a, a.Domain(), []Term{Read(b, 1, 0, 0)}); err == nil {
		t.Fatal("spmd-array term on sim lhs must fail")
	}
}

// TestShiftRankMismatchRefused: a shift term over a source of lower
// rank than the lhs is an error on every kind and on the oracle, from
// NewSchedule, not a panic.
func TestShiftRankMismatchRefused(t *testing.T) {
	oracle, err := NewOracle(4, machine.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	engines := []Engine{oracle}
	for _, kind := range Kinds() {
		eng, err := New(kind, 4, machine.DefaultCost())
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		engines = append(engines, eng)
	}
	for _, eng := range engines {
		sys, _ := proc.NewSystem(4)
		dom := index.Standard(1, 8, 1, 8)
		a, err := eng.NewArray("A", buildMapping(t, sys, dom, dist.Block{}))
		if err != nil {
			t.Fatal(err)
		}
		p, _ := sys.Lookup("P")
		dv, err := dist.New(index.Standard(1, 8), []dist.Format{dist.Block{}}, proc.Whole(p))
		if err != nil {
			t.Fatal(err)
		}
		v, err := eng.NewArray("V", core.DistMapping{D: dv})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.NewSchedule(dom, []Term{Read(v, 1, 0, 0)}); err == nil {
			t.Errorf("%s: A = V(rank 1) compiled without an error", eng.Kind())
		}
	}
}

// TestStaleScheduleRejectedAfterRemap pins the invalidation contract
// on both backends: replaying a schedule built before a remap of any
// involved array must fail loudly, not silently compute against stale
// layouts.
func TestStaleScheduleRejectedAfterRemap(t *testing.T) {
	for _, kind := range Kinds() {
		eng, err := New(kind, 4, machine.DefaultCost())
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		sys, _ := proc.NewSystem(4)
		dom := index.Standard(1, 16, 1, 4)
		a, err := eng.NewArray("A", buildMapping(t, sys, dom, dist.Block{}))
		if err != nil {
			t.Fatal(err)
		}
		b, err := eng.NewArray("B", buildMapping(t, sys, dom, dist.Block{}))
		if err != nil {
			t.Fatal(err)
		}
		a.Fill(func(tu index.Tuple) float64 { return float64(tu[0]) })
		region := index.Standard(2, 16, 1, 4)
		sched, err := b.NewSchedule(region, []Term{Read(a, 1, -1, 0)})
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.Execute(); err != nil {
			t.Fatalf("%s: fresh schedule must run: %v", kind, err)
		}
		if _, err := a.Remap(buildMapping(t, sys, dom, dist.Cyclic{K: 2})); err != nil {
			t.Fatal(err)
		}
		if err := sched.Execute(); err == nil {
			t.Fatalf("%s: stale schedule after remap of a source must be rejected", kind)
		}
		// Remap of the lhs invalidates too.
		sched2, err := b.NewSchedule(region, []Term{Read(a, 1, -1, 0)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Remap(buildMapping(t, sys, dom, dist.Cyclic{K: 3})); err != nil {
			t.Fatal(err)
		}
		if err := sched2.ExecuteN(2); err == nil {
			t.Fatalf("%s: stale schedule after remap of the lhs must be rejected", kind)
		}
	}
}
