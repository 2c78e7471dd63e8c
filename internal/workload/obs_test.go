package workload

import (
	"os"
	gort "runtime"
	"testing"

	"hpfnt/internal/engine"
	"hpfnt/internal/interp"
	"hpfnt/internal/machine"
	"hpfnt/internal/obs"
)

// TestObservabilityValuesUnchanged is the correctness half of the
// observability budget: with phase timers and the trace recorder
// both live, a program must print the same bytes and compute
// byte-identical values and an identical *logical* report — only
// Report.Phase may differ.
func TestObservabilityValuesUnchanged(t *testing.T) {
	cfg, src := corpusProgram(t, "heat2d", 5)
	cfg.Engine = engine.SPMD
	run := func() *interp.Result {
		t.Helper()
		res, err := cfg.Run(src)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run()

	obs.EnableTiming(true)
	rec := obs.StartTrace(0, 1<<12)
	observed := run()
	obs.StopTrace()
	obs.EnableTiming(false)

	sameResult(t, "instrumented", observed, plain)
	if observed.Report.Phase == (machine.PhaseSeconds{}) {
		t.Error("phase timers were on but Report.Phase is all-zero")
	}
	if plain.Report.Phase != (machine.PhaseSeconds{}) {
		t.Errorf("timers off but Report.Phase is nonzero: %+v", plain.Report.Phase)
	}
	events := rec.Snapshot()
	if len(events) == 0 {
		t.Error("trace recorder captured no events from an observed run")
	}
}

// TestObservabilityOverhead is the wall-clock half of the budget: the
// 512² Jacobi replay with tracing and timers live must stay within 5%
// of the uninstrumented wall. Like the speedup gate it is opt-in
// (HPFNT_SPEEDUP=1), skipped under the race detector, and uses
// best-of-N walls to damp scheduler noise.
func TestObservabilityOverhead(t *testing.T) {
	if os.Getenv("HPFNT_SPEEDUP") == "" {
		t.Skip("wall-clock gate is opt-in: set HPFNT_SPEEDUP=1")
	}
	if engine.RaceEnabled {
		t.Skip("wall-clock assertion skipped under -race")
	}
	if gort.GOMAXPROCS(0) < 4 {
		t.Skipf("needs GOMAXPROCS>=4, have %d", gort.GOMAXPROCS(0))
	}
	const n, np, iters = 512, 8, 20
	plain := jacobiWall(t, engine.SPMD, n, np, iters)

	obs.EnableTiming(true)
	obs.StartTrace(0, 1<<14)
	traced := jacobiWall(t, engine.SPMD, n, np, iters)
	obs.StopTrace()
	obs.EnableTiming(false)

	overhead := float64(traced)/float64(plain) - 1
	t.Logf("512² Jacobi ×%d: plain %v, traced %v, overhead %.1f%%", iters, plain, traced, 100*overhead)
	if overhead > 0.05 {
		t.Fatalf("observability overhead %.1f%% exceeds the 5%% budget (plain %v, traced %v)", 100*overhead, plain, traced)
	}
}
