package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// spec is the part of BENCHMARK.json the harness reads: the metric
// names, units and bounds it must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// The verdicts of one compared row.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares one timing of two result sets under a bound: worse
// when b's median exceeds a's by more than the bound, unresolved when
// either set's own spread (the distance between its quartiles, as a
// share of its median) is wider than the bound, since a difference
// inside the noise says nothing.
func judge(a, b stat, bound float64, resolved bool) string {
	if !resolved || a.spread() > bound || b.spread() > bound {
		return verdictUnresolved
	}
	if (b.Median-a.Median)/a.Median > bound {
		return verdictWorse
	}
	return verdictSame
}

// compare prints one row per workload × end-to-end metric and
// reports how many rows were worse and how many unresolved.
func compare(a, b *resultSet, sp *spec, out io.Writer) (worse, unresolved int) {
	resolved := a.Env.Resolved && b.Env.Resolved
	count := func(verdict string) {
		switch verdict {
		case verdictWorse:
			worse++
		case verdictUnresolved:
			unresolved++
		}
	}
	for _, w := range workloads {
		ra, rb := a.Workloads[w.name], b.Workloads[w.name]
		if ra == nil || rb == nil {
			fmt.Fprintf(out, "%-14s missing from one of the files\n", w.name)
			unresolved++
			continue
		}
		for _, m := range sp.EndToEnd {
			sa, sb := ra.EndToEnd.Setup, rb.EndToEnd.Setup
			if m.Name == "run_s" {
				sa, sb = ra.EndToEnd.Run, rb.EndToEnd.Run
			}
			v := judge(sa, sb, m.Bound, resolved)
			count(v)
			fmt.Fprintf(out, "%-14s %-8s %10.6g s -> %10.6g s  %+6.1f%% of %.6g s  (bound %.0f%%, spreads %.1f%% / %.1f%%)  %s\n",
				w.name, m.Name, sa.Median, sb.Median, 100*(sb.Median-sa.Median)/sa.Median, sa.Median,
				100*m.Bound, 100*sa.spread(), 100*sb.spread(), v)
		}
		// fail_ratio has bound 0: any rise is worse.
		fa := float64(ra.EndToEnd.Failed) / float64(ra.EndToEnd.Attempted)
		fb := float64(rb.EndToEnd.Failed) / float64(rb.EndToEnd.Attempted)
		v := verdictSame
		if fb > fa {
			v = verdictWorse
		}
		count(v)
		fmt.Fprintf(out, "%-14s %-8s %d/%d -> %d/%d failed/attempted  %s\n", w.name, "fail_ratio",
			ra.EndToEnd.Failed, ra.EndToEnd.Attempted, rb.EndToEnd.Failed, rb.EndToEnd.Attempted, v)
		// The logical counts repeat exactly or something is broken.
		for _, name := range []string{"machine.msgs", "machine.elems", "machine.local_refs", "machine.remote_refs"} {
			ca, cb := ra.PerLayer.Metrics[name].Value, rb.PerLayer.Metrics[name].Value
			if ca != cb && a.Env.Seed == b.Env.Seed {
				fmt.Fprintf(out, "%-14s %s %.0f -> %.0f  %s\n", w.name, name, ca, cb, verdictWorse)
				worse++
			}
		}
	}
	return worse, unresolved
}
