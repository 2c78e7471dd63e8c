package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The tests run every workload at the smoke scale: the whole file
// takes a few seconds, one build of cmd/hpfrun included.

var testBuildDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "hpfnt-bench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testBuildDir = dir
	useCores()
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func smokeHarness(t *testing.T) *harness {
	return &harness{scale: scaleSmoke, buildDir: testBuildDir, traceDir: t.TempDir()}
}

// Every workload runs and verifies — values against the reference
// kernel, counts against the pinned ones, bytes across wires — on two
// seeds.
func TestWorkloadsVerify(t *testing.T) {
	h := smokeHarness(t)
	for _, w := range workloads {
		for _, seed := range []int64{1, 2} {
			res, err := h.measure(w, seed, 0)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if res.Failed != 0 || res.Attempted < minOps+1 {
				t.Errorf("%s seed %d: %d of %d operations failed: %v", w.name, seed, res.Failed, res.Attempted, res.Errors)
			}
			if res.Setup.Median <= 0 || res.Run.Median <= 0 || res.Run.Samples != res.Attempted-1 {
				t.Errorf("%s seed %d: implausible timings %+v %+v", w.name, seed, res.Setup, res.Run)
			}
		}
	}
}

// A wrong reference value and a wrong count must each fail the check.
func TestOracleRejects(t *testing.T) {
	w, err := findWorkload("stencil.block")
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.newInputs(scaleSmoke, 1, np)
	if err != nil {
		t.Fatal(err)
	}
	or, err := newOracle(w, in)
	if err != nil {
		t.Fatal(err)
	}
	s, err := runProgram(w, in, w.wire, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := or.check(s); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}
	or.values[0] *= 1 + 1e-8
	if or.check(s) == nil {
		t.Error("a PRINT value off by 1e-8 relative was accepted")
	}
	or.values[0] = w.kernel.run(in)[0]
	or.counts.Msgs++
	if or.check(s) == nil {
		t.Error("a message count off by one was accepted")
	}
}

// BENCHMARK.json and the harness name the same workloads and the same
// metrics with the same units, in both directions; the traced pass
// writes a trace whose spans nest.
func TestMetricsMatchSpec(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, sp.Workloads[i].Name, w.name)
		}
	}
	if len(sp.EndToEnd) != 2 || sp.EndToEnd[0] != (specMetric{"setup_s", "s", "lower", sp.EndToEnd[0].Bound}) ||
		sp.EndToEnd[1] != (specMetric{"run_s", "s", "lower", sp.EndToEnd[1].Bound}) {
		t.Errorf("end_to_end is %+v, the harness reports setup_s and run_s in s", sp.EndToEnd)
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}

	h := smokeHarness(t)
	for _, w := range workloads {
		res, err := h.traced(w, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d operations failed: %v", w.name, res.Failed, res.Errors)
		}
		for _, m := range sp.PerLayer {
			got, ok := res.Metrics[m.Name]
			if !ok {
				t.Errorf("%s: metric %s of BENCHMARK.json is not reported", w.name, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("%s: %s reported in %q, BENCHMARK.json says %q", w.name, m.Name, got.Unit, m.Unit)
			}
		}
		if len(res.Metrics) != len(sp.PerLayer) {
			known := map[string]bool{}
			for _, m := range sp.PerLayer {
				known[m.Name] = true
			}
			for name := range res.Metrics {
				if !known[name] {
					t.Errorf("%s: reported metric %s is not in BENCHMARK.json", w.name, name)
				}
			}
		}
		checkTrace(t, res.Trace)
	}
}

// checkTrace reads a trace file back and checks that every span lies
// inside its parent and has a self time that is not negative.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	events := file.TraceEvents
	if len(events) < 10 {
		t.Fatalf("%s: only %d spans", path, len(events))
	}
	names := map[string]bool{}
	const slackUS = 1e-3 // float rounding of ns → µs
	for i, e := range events {
		names[e.Name] = true
		if id := int(e.Args["id"].(float64)); id != i {
			t.Fatalf("%s: span %d has id %d", path, i, id)
		}
		if self := e.Args["self_us"].(float64); self < -slackUS {
			t.Errorf("%s: span %d %s has self time %g µs", path, i, e.Name, self)
		}
		parent := int(e.Args["parent"].(float64))
		if parent < 0 {
			continue
		}
		if parent >= i {
			t.Fatalf("%s: span %d %s names later span %d as its parent", path, i, e.Name, parent)
		}
		p := events[parent]
		if e.TS < p.TS-slackUS || e.TS+e.Dur > p.TS+p.Dur+slackUS {
			t.Errorf("%s: span %d %s [%g, %g] is outside its parent %s [%g, %g]",
				path, i, e.Name, e.TS, e.TS+e.Dur, p.Name, p.TS, p.TS+p.Dur)
		}
	}
	for _, want := range []string{"program", "prologue", "body", "handwritten", "probes", "probe.wire"} {
		if !names[want] {
			t.Errorf("%s: no %q span", path, want)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := func(median float64) stat {
		return stat{Median: median, Q1: median * 0.99, Q3: median * 1.01}
	}
	noisy := stat{Median: 1, Q1: 0.8, Q3: 1.2}
	for _, c := range []struct {
		a, b     stat
		resolved bool
		want     string
	}{
		{steady(1), steady(1.05), true, verdictSame},
		{steady(1), steady(0.5), true, verdictSame},
		{steady(1), steady(1.2), true, verdictWorse},
		{steady(1), noisy, true, verdictUnresolved},
		{steady(1), steady(1.2), false, verdictUnresolved},
	} {
		if got := judge(c.a, c.b, 0.1, c.resolved); got != c.want {
			t.Errorf("judge(%v, %v, resolved %v) = %s, want %s", c.a.Median, c.b.Median, c.resolved, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 10], n=4) == [1.5, 3.0, 7.0]
	v := []float64{1, 2, 3, 4, 10}
	for p, want := range map[float64]float64{0.25: 1.5, 0.5: 3, 0.75: 7} {
		if got := quantile(v, p); got != want {
			t.Errorf("quantile(%v, %g) = %g, want %g", v, p, got, want)
		}
	}
}

// The whole suite through the command line: every metric of
// BENCHMARK.json is printed by name with its unit for every workload,
// the result file reads back, and a set compared with itself has no
// row that is worse.
func TestSuiteAndCompare(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "set.json")
	var out bytes.Buffer
	if err := run([]string{"-all", "-scale", scaleSmoke, "-seconds", "0", "-runs", "3", "-seed", "2",
		"-out", file, "-build-dir", testBuildDir}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	text := out.String()
	for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
		if n := strings.Count(text, "  "+m.Name+" "); n != len(workloads) {
			t.Errorf("metric %s printed %d times, want once per workload (%d)", m.Name, n, len(workloads))
		}
	}
	set, err := readResultSet(file)
	if err != nil {
		t.Fatal(err)
	}
	if set.Env.Seed != 2 || set.Env.Runs != 3 || set.Env.GoVersion == "" || set.Env.GOMAXPROCS < 1 {
		t.Errorf("environment record %+v", set.Env)
	}
	for _, w := range workloads {
		if r := set.Workloads[w.name]; r == nil || r.EndToEnd.Run.Samples != 3 || r.EndToEnd.Failed != 0 {
			t.Errorf("%s: result %+v", w.name, r)
		}
	}
	out.Reset()
	if err := run([]string{"-compare", file, file}, &out); err != nil {
		t.Errorf("a set compared with itself: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "0 worse") {
		t.Errorf("compare output:\n%s", out.String())
	}
}
