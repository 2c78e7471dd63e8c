package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// environment records where and how a result set was measured.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NP         int     `json:"np"`
	Seed       int64   `json:"seed"`
	Scale      string  `json:"scale"`
	RunSeconds float64 `json:"run_seconds"`
	Runs       int     `json:"runs"`
	// Resolved is false when the machine has fewer cores than the
	// workloads have processors: counts are still exact, but wall-clock
	// numbers are scheduler noise and compare reports them unresolved.
	Resolved bool `json:"wallclock_resolved"`
}

// workloadResult is everything measured for one workload.
type workloadResult struct {
	Sizes    map[string]int `json:"sizes"`
	EndToEnd *endToEnd      `json:"end_to_end"`
	PerLayer *layered       `json:"per_layer"`
}

// resultSet is the file `bench -all -out` writes and `bench -compare` reads.
type resultSet struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// useCores sets GOMAXPROCS to min(nproc, np) — the workloads have np
// workers — and reports the setting.
func useCores() int {
	n := runtime.NumCPU()
	if n > np {
		n = np
	}
	runtime.GOMAXPROCS(n)
	return n
}

func newEnvironment(seed int64, scale string, seconds float64, runs int) environment {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		Commit: commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NP: np, Seed: seed, Scale: scale,
		RunSeconds: seconds, Runs: runs, Resolved: runtime.NumCPU() >= np,
	}
}

// suite runs both passes of every workload, prints every metric by
// name with its unit, and returns the result set. The untraced pass
// is made `runs` times per workload, each with the next seed, in
// rounds over all workloads so that a slow minute of the machine hits
// every workload and not one; a workload's setup_s and run_s are the
// median of its runs' values, as the driver of BENCHMARK.json takes
// them. The error reports failed verifications after everything has
// been printed.
func (h *harness) suite(seed int64, seconds float64, runs int, out io.Writer) (*resultSet, error) {
	set := &resultSet{Env: newEnvironment(seed, h.scale, seconds, runs), Workloads: map[string]*workloadResult{}}
	fmt.Fprintf(out, "env: commit %s, %s, nproc %d, GOMAXPROCS %d, np %d, seed %d, scale %s\n",
		set.Env.Commit, set.Env.GoVersion, set.Env.NProc, set.Env.GOMAXPROCS, np, seed, h.scale)
	if !set.Env.Resolved {
		fmt.Fprintf(out, "nproc %d < np %d: wall-clock metrics are unresolved, counts are exact\n", set.Env.NProc, np)
	}
	failed := 0
	setups, bodies := map[string][]float64{}, map[string][]float64{}
	for _, w := range workloads {
		set.Workloads[w.name] = &workloadResult{Sizes: w.sizes[h.scale], EndToEnd: &endToEnd{}}
	}
	for round := 0; round < runs; round++ {
		for _, w := range workloads {
			one, err := h.measure(w, seed+int64(round), seconds)
			if err != nil {
				return set, err
			}
			e := set.Workloads[w.name].EndToEnd
			e.Attempted += one.Attempted
			e.Failed += one.Failed
			e.Errors = append(e.Errors, one.Errors...)
			setups[w.name] = append(setups[w.name], one.Setup.Median)
			bodies[w.name] = append(bodies[w.name], one.Run.Median)
		}
	}
	for _, w := range workloads {
		res := set.Workloads[w.name]
		res.EndToEnd.Setup, res.EndToEnd.Run = newStat(setups[w.name]), newStat(bodies[w.name])
		var err error
		if res.PerLayer, err = h.traced(w, seed); err != nil {
			return set, err
		}
		e := res.EndToEnd
		failed += e.Failed + res.PerLayer.Failed
		fmt.Fprintf(out, "\n%s  %v\n", w.name, res.Sizes)
		for _, t := range []struct {
			name string
			st   stat
		}{{"setup_s", e.Setup}, {"run_s", e.Run}} {
			fmt.Fprintf(out, "  %-30s %12.6g s      (min %.6g, max %.6g, quartile spread %.1f%%, samples %d)\n",
				t.name, t.st.Median, t.st.Min, t.st.Max, 100*t.st.spread(), t.st.Samples)
		}
		fmt.Fprintf(out, "  %-30s %12.6g failed/attempted (%d/%d)\n", "fail_ratio",
			float64(e.Failed)/float64(e.Attempted), e.Failed, e.Attempted)
		names := make([]string, 0, len(res.PerLayer.Metrics))
		for name := range res.PerLayer.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := res.PerLayer.Metrics[name]
			fmt.Fprintf(out, "  %-30s %12.6g %s\n", name, m.Value, m.Unit)
		}
		fmt.Fprintf(out, "  trace: %s\n", res.PerLayer.Trace)
	}
	if failed > 0 {
		return set, fmt.Errorf("%d operations failed verification", failed)
	}
	return set, nil
}

func (s *resultSet) write(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
