// Package analyze is the performance-diagnosis layer over the raw
// observability signals: it consumes a (possibly merged,
// multi-process) trace or a live machine.Detail snapshot and answers
// the questions the counters alone cannot — which message chain
// bounds each epoch (the critical path), how skewed the workers are,
// and which rank is the straggler. cmd/hpftrace renders its reports;
// hpfrun publishes the live equivalent through obs.SkewMonitor.
package analyze

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"hpfnt/internal/machine"
	"hpfnt/internal/obs"
)

// WorkerStat aggregates one rank's activity across the whole trace.
type WorkerStat struct {
	Rank   int   `json:"rank"`
	Proc   int   `json:"proc"`
	BusyNS int64 `json:"busy_ns"`
	SendNS int64 `json:"send_ns"`
	RecvNS int64 `json:"recv_ns"`
	Msgs   int   `json:"msgs"`
}

// EpochReport is the diagnosis of one execution epoch.
type EpochReport struct {
	Epoch          int64          `json:"epoch"`
	CriticalPathNS int64          `json:"critical_path_ns"`
	Path           []obs.PathStep `json:"path,omitempty"`
	// SkewRatio is max/mean over the epoch's per-worker busy time
	// (0 when the epoch has no worker spans).
	SkewRatio float64 `json:"skew_ratio"`
	// Straggler is the 1-based rank of the heaviest worker (0 when
	// unknown).
	Straggler int `json:"straggler_rank"`
}

// Report is the whole-trace diagnosis.
type Report struct {
	Epochs  []EpochReport `json:"epochs"`
	Workers []WorkerStat  `json:"workers"`
	// MaxCriticalPathNS is the longest epoch critical path seen.
	MaxCriticalPathNS int64 `json:"max_critical_path_ns"`
	// MaxSkewRatio and StragglerRank describe the most skewed epoch.
	MaxSkewRatio  float64 `json:"max_skew_ratio"`
	StragglerRank int     `json:"straggler_rank"`
}

// FromEvents builds the diagnosis from recorded (or re-read) trace
// events.
func FromEvents(events []obs.Event) *Report {
	r := &Report{}
	paths := obs.CriticalPaths(events)
	cps := map[int64]obs.EpochPath{}
	for _, p := range paths {
		cps[p.Epoch] = p
		if p.TotalNS > r.MaxCriticalPathNS {
			r.MaxCriticalPathNS = p.TotalNS
		}
	}
	// Per-epoch, per-rank busy time from the worker spans; per-rank
	// message activity from the send/recv spans.
	type key struct {
		epoch int64
		rank  int
	}
	busy := map[key]int64{}
	workers := map[int]*WorkerStat{}
	stat := func(ev obs.Event) *WorkerStat {
		w := workers[ev.Rank]
		if w == nil {
			w = &WorkerStat{Rank: ev.Rank, Proc: ev.Proc}
			workers[ev.Rank] = w
		}
		return w
	}
	epochSet := map[int64]bool{}
	for e := range cps {
		epochSet[e] = true
	}
	for _, ev := range events {
		if ev.Epoch <= 0 {
			continue
		}
		switch ev.Kind {
		case "worker":
			busy[key{ev.Epoch, ev.Rank}] += ev.Dur
			stat(ev).BusyNS += ev.Dur
			epochSet[ev.Epoch] = true
		case "send":
			stat(ev).SendNS += ev.Dur
			stat(ev).Msgs++
		case "recv":
			stat(ev).RecvNS += ev.Dur
			stat(ev).Msgs++
		}
	}
	epochs := make([]int64, 0, len(epochSet))
	for e := range epochSet {
		epochs = append(epochs, e)
	}
	slices.Sort(epochs)
	for _, e := range epochs {
		er := EpochReport{Epoch: e}
		if p, ok := cps[e]; ok {
			er.CriticalPathNS = p.TotalNS
			er.Path = p.Steps
		}
		var ranks []int
		for k := range busy {
			if k.epoch == e {
				ranks = append(ranks, k.rank)
			}
		}
		if len(ranks) > 0 {
			// Deterministic order for the argmax tie-break.
			slices.Sort(ranks)
			weights := make([]int64, len(ranks))
			for i, rk := range ranks {
				weights[i] = busy[key{e, rk}]
			}
			ratio, idx := obs.Skew(weights)
			if idx >= 0 {
				er.SkewRatio = ratio
				er.Straggler = ranks[idx]
			}
		}
		if er.SkewRatio > r.MaxSkewRatio {
			r.MaxSkewRatio = er.SkewRatio
			r.StragglerRank = er.Straggler
		}
		r.Epochs = append(r.Epochs, er)
	}
	for _, w := range workers {
		r.Workers = append(r.Workers, *w)
	}
	sort.Slice(r.Workers, func(i, j int) bool { return r.Workers[i].Rank < r.Workers[j].Rank })
	return r
}

// Imbalance is the skew diagnosis of one machine.Detail snapshot.
type Imbalance struct {
	// Ratio is max/mean over the per-worker weights; Straggler the
	// 1-based rank carrying the max.
	Ratio     float64 `json:"ratio"`
	Straggler int     `json:"straggler_rank"`
	// Source names the weight vector used: "compute_ns" when phase
	// timers were on, else "load".
	Source string `json:"source"`
	// Weights are the per-worker weights, indexed by rank-1.
	Weights []int64 `json:"weights"`
}

// FromDetail diagnoses imbalance from a live counter snapshot: the
// per-worker compute-phase wall time when the phase timers were on
// (the truest signal), the logical element load otherwise. Fully
// deterministic given deterministic counters, which is what the
// skewed-distribution tests pin down.
func FromDetail(d machine.Detail) Imbalance {
	weights, src := d.ComputeWeights()
	ratio, idx := obs.Skew(weights)
	im := Imbalance{Ratio: ratio, Source: src, Weights: weights}
	if idx >= 0 {
		im.Straggler = idx + 1
	}
	return im
}

// JSON renders the report for tooling.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", " ")
}

// Text renders the human report: the per-epoch table, the top-N
// epochs' critical paths, and the per-worker totals.
func (r *Report) Text(top int) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "trace: %d epochs, %d workers\n", len(r.Epochs), len(r.Workers))
	if len(r.Epochs) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "\n%-7s %14s %8s %10s\n", "epoch", "critical-path", "skew", "straggler")
	for _, e := range r.Epochs {
		st := "-"
		if e.Straggler > 0 {
			st = fmt.Sprintf("r%d", e.Straggler)
		}
		fmt.Fprintf(&b, "%-7d %12.3fms %8.2f %10s\n", e.Epoch, float64(e.CriticalPathNS)/1e6, e.SkewRatio, st)
	}
	// Top-N epochs by critical-path length.
	byCP := append([]EpochReport(nil), r.Epochs...)
	sort.SliceStable(byCP, func(i, j int) bool { return byCP[i].CriticalPathNS > byCP[j].CriticalPathNS })
	if top > len(byCP) {
		top = len(byCP)
	}
	for _, e := range byCP[:top] {
		if len(e.Path) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\ncritical path of epoch %d (%.3fms):\n", e.Epoch, float64(e.CriticalPathNS)/1e6)
		for _, s := range e.Path {
			name := s.Name
			if name == "" {
				name = s.Kind
			}
			fmt.Fprintf(&b, "  p%d/r%-3d %-8s %10.3fms  %s\n", s.Proc, s.Rank, s.Kind, float64(s.DurNS)/1e6, name)
		}
	}
	if len(r.Workers) > 0 {
		fmt.Fprintf(&b, "\n%-6s %12s %12s %12s %8s\n", "rank", "busy", "send", "recv", "msgs")
		for _, w := range r.Workers {
			fmt.Fprintf(&b, "r%-5d %10.3fms %10.3fms %10.3fms %8d\n",
				w.Rank, float64(w.BusyNS)/1e6, float64(w.SendNS)/1e6, float64(w.RecvNS)/1e6, w.Msgs)
		}
	}
	return b.String()
}
