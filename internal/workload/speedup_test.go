package workload

import (
	"os"
	gort "runtime"
	"testing"
	"time"

	"hpfnt/internal/engine"
	"hpfnt/internal/machine"
)

// jacobiWall times iters replays of the 512² row-blocked Jacobi
// schedule on one backend and returns the wall-clock duration
// (best of two runs, to damp scheduler noise).
func jacobiWall(t *testing.T, kind string, n, np, iters int) time.Duration {
	t.Helper()
	best := time.Duration(0)
	for attempt := 0; attempt < 2; attempt++ {
		eng, err := engine.New(kind, np, machine.DefaultCost())
		if err != nil {
			t.Fatal(err)
		}
		am, err := BlockRowMapping(n, np)
		if err != nil {
			t.Fatal(err)
		}
		bm, err := BlockRowMapping(n, np)
		if err != nil {
			t.Fatal(err)
		}
		// Warm up (build arrays, compile the schedule, spawn workers).
		if _, err := JacobiReplay(eng, n, 1, am, bm); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := JacobiReplay(eng, n, iters, am, bm); err != nil {
			t.Fatal(err)
		}
		d := time.Since(start)
		eng.Close()
		if attempt == 0 || d < best {
			best = d
		}
	}
	return best
}

// TestSpmdSpeedupJacobi is the parallel-speedup smoke of the
// acceptance criteria: on the 512² Jacobi schedule replay with 8
// workers, the parallel dispatch of the plan (spmd) must beat its
// sequential dispatch (sim) by at least 1.5× wall-clock. Wall-clock ratios are meaningless on
// contended or instrumented runs, so the gate is opt-in: it runs only
// with HPFNT_SPEEDUP=1 (the dedicated CI step and `make speedup` set
// it), never under the race detector, and needs at least 4 cores.
func TestSpmdSpeedupJacobi(t *testing.T) {
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
	seq := jacobiWall(t, engine.Sim, n, np, iters)
	par := jacobiWall(t, engine.SPMD, n, np, iters)
	speedup := float64(seq) / float64(par)
	t.Logf("512² Jacobi ×%d: sim %v, spmd %v, speedup %.2fx", iters, seq, par, speedup)
	if speedup < 1.5 {
		t.Fatalf("spmd speedup %.2fx < 1.5x (sim %v, spmd %v)", speedup, seq, par)
	}
}
