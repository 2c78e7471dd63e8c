// Package main_bench holds the benchmark harness: one testing.B
// bench per reproduction experiment (E1–E13, see the experiment index
// in README.md and the per-experiment doc comments in internal/exper),
// each asserting its paper-claim checks on the first iteration, plus
// micro-benchmarks of the mapping primitives. The executor's layers
// (schedule build, replay, remap, inspector, wires) are timed by the
// bench/ module instead.
//
// Run with: go test -bench=. -benchmem
package main_bench

import (
	"testing"

	"hpfnt/internal/align"
	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/engine"
	"hpfnt/internal/exper"
	"hpfnt/internal/expr"
	"hpfnt/internal/index"
	"hpfnt/internal/machine"
	"hpfnt/internal/proc"
	"hpfnt/internal/workload"
)

// benchExperiment runs one experiment per iteration and fails the
// bench if any paper-claim check fails.
func benchExperiment(b *testing.B, f func() (exper.Result, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := f()
		if err != nil {
			b.Fatalf("%v", err)
		}
		if i == 0 && !r.Passed() {
			b.Fatalf("experiment checks failed:\n%s", r.Render())
		}
	}
}

func BenchmarkE1DistributionFormats(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E1DistributionFormats(16, 4) })
}

func BenchmarkE2StaggeredGrid(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E2StaggeredGrid(64, 4, 4) })
}

func BenchmarkE2StaggeredGridLarge(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E2StaggeredGrid(128, 4, 4) })
}

func BenchmarkE2bBlockVariantAblation(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E2bBlockVariantAblation(64, 8) })
}

func BenchmarkE3ProcedureBoundary(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E3ProcedureBoundary() })
}

func BenchmarkE4GeneralBlockBalance(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E4GeneralBlockBalance(4096, 16) })
}

func BenchmarkE5ProcessorSections(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E5ProcessorSections(64, 8) })
}

func BenchmarkE6RedistributeBundling(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E6RedistributeBundling(256, 8, 4) })
}

func BenchmarkE7RealignSurgery(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E7RealignSurgery(128, 8) })
}

func BenchmarkE8Allocatables(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E8Allocatables() })
}

func BenchmarkE9CyclicLU(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E9CyclicLU(1024, 16) })
}

func BenchmarkE10Replication(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E10Replication(64, 8) })
}

func BenchmarkE11Collapse(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E11Collapse(64, 8) })
}

func BenchmarkE12TemplateLimitations(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E12TemplateLimitations() })
}

func BenchmarkE13GeneralDistributions(b *testing.B) {
	benchExperiment(b, func() (exper.Result, error) { return exper.E13GeneralDistributions(1024, 8) })
}

// --- Ablation: per-statement communication analysis vs reusing a
// precomputed overlap (ghost region) schedule across iterations, on
// the sim engine ---

func jacobiSetup(b *testing.B) (engine.Array, index.Domain, []engine.Term) {
	b.Helper()
	eng, mapping := mapper(b, engine.Sim, 8)
	n := 128
	a, err := eng.NewArray("A", mapping(index.Standard(1, n, 1, n), dist.Block{}, dist.Collapsed{}))
	if err != nil {
		b.Fatal(err)
	}
	a.Fill(func(t index.Tuple) float64 { return float64(t[0] + t[1]) })
	interior := index.Standard(2, n-1, 2, n-1)
	terms := []engine.Term{
		engine.Read(a, 0.25, -1, 0), engine.Read(a, 0.25, 1, 0),
		engine.Read(a, 0.25, 0, -1), engine.Read(a, 0.25, 0, 1),
	}
	return a, interior, terms
}

func BenchmarkAblationPerStatementAnalysis(b *testing.B) {
	lhs, interior, terms := jacobiSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lhs.Assign(interior, terms); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationScheduleReuse(b *testing.B) {
	lhs, interior, terms := jacobiSetup(b)
	sched, err := lhs.NewSchedule(interior, terms)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sched.Execute(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the mapping primitives ---

func BenchmarkBlockMap(b *testing.B) {
	f := dist.Block{}
	for i := 0; i < b.N; i++ {
		_ = f.Map(i%4096+1, 4096, 16)
	}
}

func BenchmarkViennaBlockMap(b *testing.B) {
	f := dist.BlockVienna{}
	for i := 0; i < b.N; i++ {
		_ = f.Map(i%4096+1, 4096, 16)
	}
}

func BenchmarkCyclicMap(b *testing.B) {
	f := dist.Cyclic{K: 8}
	for i := 0; i < b.N; i++ {
		_ = f.Map(i%4096+1, 4096, 16)
	}
}

func BenchmarkGeneralBlockMap(b *testing.B) {
	bounds := make([]int, 15)
	for i := range bounds {
		bounds[i] = (i + 1) * 256
	}
	f := dist.GeneralBlock{Bounds: bounds}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Map(i%4096+1, 4096, 16)
	}
}

func BenchmarkDistributionOwners(b *testing.B) {
	sys, err := proc.NewSystem(16)
	if err != nil {
		b.Fatal(err)
	}
	arr, err := sys.DeclareArray("P", index.Standard(1, 4, 1, 4))
	if err != nil {
		b.Fatal(err)
	}
	d, err := dist.New(index.Standard(1, 256, 1, 256),
		[]dist.Format{dist.Block{}, dist.Cyclic{K: 4}}, proc.Whole(arr))
	if err != nil {
		b.Fatal(err)
	}
	t := index.Tuple{1, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t[0] = i%256 + 1
		t[1] = (i/256)%256 + 1
		if _, err := d.Owners(t); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlignmentImage(b *testing.B) {
	alignee := index.Standard(1, 1024)
	base := index.Standard(1, 2048)
	fn, err := align.Normalize(align.Spec{
		Alignee: "A", Axes: []align.Axis{align.DummyAxis("I")},
		Base: "B", Subs: []align.Subscript{align.ExprSub(expr.Affine(2, "I", -1))},
	}, alignee, base, nil)
	if err != nil {
		b.Fatal(err)
	}
	t := index.Tuple{1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t[0] = i%1024 + 1
		if _, err := fn.Image(t); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJacobiSweep(b *testing.B) {
	sys, err := proc.NewSystem(8)
	if err != nil {
		b.Fatal(err)
	}
	arr, err := sys.DeclareArray("P", index.Standard(1, 8))
	if err != nil {
		b.Fatal(err)
	}
	dom := index.Standard(1, 128, 1, 128)
	mk := func() interface {
		Domain() index.Domain
		Owners(index.Tuple) ([]int, error)
		Describe() string
	} {
		d, err := dist.New(dom, []dist.Format{dist.Block{}, dist.Collapsed{}}, proc.Whole(arr))
		if err != nil {
			b.Fatal(err)
		}
		return core.DistMapping{D: d}
	}
	am, bm := mk(), mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.JacobiSweep(128, 8, am, bm, machine.DefaultCost()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLUSweepCyclic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.LUSweep(1024, 16, dist.Cyclic{K: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// mapper returns an engine of the given kind with np workers and a
// constructor of distributions over its processors.
func mapper(b *testing.B, kind string, np int) (engine.Engine, func(dom index.Domain, formats ...dist.Format) core.ElementMapping) {
	b.Helper()
	eng, err := engine.New(kind, np, machine.DefaultCost())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	sys, err := proc.NewSystem(np)
	if err != nil {
		b.Fatal(err)
	}
	procs, err := sys.DeclareArray("P", index.Standard(1, np))
	if err != nil {
		b.Fatal(err)
	}
	return eng, func(dom index.Domain, formats ...dist.Format) core.ElementMapping {
		d, err := dist.New(dom, formats, proc.Whole(procs))
		if err != nil {
			b.Fatal(err)
		}
		return core.DistMapping{D: d}
	}
}

// BenchmarkSpmdLayoutBuild measures materializing an array on the spmd
// engine — the tile index and zeroed segments — which every NewArray
// and every Remap pays: row blocks and
// 8-row bands of a 1024² array, the single-element tiles of a CYCLIC
// vector (the halo workloads' prologue) and the slabs of a 64³ array.
func BenchmarkSpmdLayoutBuild(b *testing.B) {
	eng, mapping := mapper(b, engine.SPMD, 2) // what the bench/ workloads run at
	square, cube := index.Standard(1, 1024, 1, 1024), index.Standard(1, 64, 1, 64, 1, 64)
	for _, tc := range []struct {
		name string
		m    core.ElementMapping
	}{
		{"block-1024x1024", mapping(square, dist.Block{}, dist.Collapsed{})},
		{"cyclic8-1024x1024", mapping(square, dist.Cyclic{K: 8}, dist.Collapsed{})},
		{"cyclic1-1024-vector", mapping(index.Standard(1, 1024), dist.Cyclic{K: 1})},
		{"block-64x64x64", mapping(cube, dist.Block{}, dist.Collapsed{}, dist.Collapsed{})},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.NewArray("A", tc.m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
