package workload

import (
	"testing"

	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/engine"
	"hpfnt/internal/index"
	"hpfnt/internal/machine"
	"hpfnt/internal/obs"
	"hpfnt/internal/obs/analyze"
	"hpfnt/internal/proc"
)

// generalBlockRowMapping maps an n×n array (GENERAL_BLOCK, :) with the
// given row bounds — the knob for seeding a known load imbalance.
func generalBlockRowMapping(n, np int, bounds []int) (core.ElementMapping, error) {
	sys, err := proc.NewSystem(np)
	if err != nil {
		return nil, err
	}
	arr, err := sys.DeclareArray("P", index.Standard(1, np))
	if err != nil {
		return nil, err
	}
	d, err := dist.New(index.Standard(1, n, 1, n),
		[]dist.Format{dist.GeneralBlock{Bounds: bounds}, dist.Collapsed{}}, proc.Whole(arr))
	if err != nil {
		return nil, err
	}
	return core.DistMapping{D: d}, nil
}

// TestSkewedDistributionNamesStraggler seeds a known imbalance — a
// GENERAL_BLOCK Jacobi where rank 1 owns 29 of 32 rows — and asserts
// the skew pipeline (Detail → ComputeWeights → Skew → SkewMonitor,
// the exact path hpfrun's hpfnt_epoch_skew_ratio gauge takes) names
// rank 1 as the straggler with at least the constructed ratio. The
// weights are logical load counters, so the diagnosis is fully
// deterministic.
func TestSkewedDistributionNamesStraggler(t *testing.T) {
	const n, np, iters = 32, 4, 3
	// Rank 1 owns rows 1..29; ranks 2..4 own one row each. Of the 30
	// interior rows (2..31), rank 1 computes 28, ranks 2 and 3 one
	// each, rank 4 none: per-rank interior loads 28:1:1:0 — a
	// constructed skew of 28/(30/4) = 3.73 on rank 1.
	m, err := generalBlockRowMapping(n, np, []int{29, 30, 31})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.SPMD, np, machine.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rec := obs.StartTrace(0, 1<<12)
	defer obs.StopTrace()
	if _, err := JacobiReplay(eng, n, iters, m, m); err != nil {
		t.Fatal(err)
	}

	d := eng.LocalDetail()
	im := analyze.FromDetail(d)
	if im.Source != "load" {
		t.Fatalf("weights source = %q, want the deterministic %q (timers are off)", im.Source, "load")
	}
	if im.Straggler != 1 {
		t.Fatalf("straggler = r%d (weights %v), want r1", im.Straggler, im.Weights)
	}
	if im.Ratio < 3.7 {
		t.Fatalf("skew ratio %.3f below the constructed 28/7.5 (weights %v)", im.Ratio, im.Weights)
	}

	// The live monitor fed exactly what the metrics endpoint feeds it
	// must publish the same diagnosis.
	mon := obs.NewSkewMonitor()
	mon.ObserveWeights(im.Weights)
	mon.ObserveEvents(rec.Snapshot())
	s := mon.Sample()
	if s.Straggler != 1 || s.Ratio < 3.7 {
		t.Fatalf("SkewMonitor sample %+v, want straggler r1 with ratio >= 3.7", s)
	}
	if s.CriticalPathNS <= 0 {
		t.Fatal("SkewMonitor saw trace events but no critical path")
	}

	// And the offline analysis of the same trace (what hpftrace runs)
	// must find a nonzero critical path through the epochs.
	rep := analyze.FromEvents(rec.Snapshot())
	if rep.MaxCriticalPathNS <= 0 {
		t.Fatal("trace analysis found no critical path")
	}
	if len(rep.Epochs) == 0 {
		t.Fatal("trace analysis found no epochs")
	}
}
