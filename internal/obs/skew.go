package obs

import (
	"sort"
	"sync"
)

// This file is the analysis half of the trace recorder: it turns raw
// send/recv/worker events into an epoch critical path, and per-worker
// weight vectors into a skew ratio with straggler attribution. It
// deliberately operates on obs-native types only ([]Event, []int64) so
// the package stays dependency-free; internal/obs/analyze layers the
// machine.Detail-aware reporting on top.

// PathStep is one hop of an epoch's critical path.
type PathStep struct {
	// Kind is "send", "recv", "worker", or the synthetic "compute"
	// for the idle-free gap between two message events on one rank.
	Kind string `json:"kind"`
	// Name is the originating event's label ("" for synthetic steps).
	Name string `json:"name,omitempty"`
	// Proc and Rank locate the step's lane.
	Proc int `json:"proc"`
	Rank int `json:"rank"`
	// DurNS is the step's contribution to the path in nanoseconds.
	DurNS int64 `json:"dur_ns"`
}

// EpochPath is the critical path of one execution epoch: the longest
// dependency chain of message spans (send → matched recv via the flow
// ID, plus program order per rank) with the compute gaps between them.
// Its total bounds the epoch — no schedule change that leaves this
// chain intact can make the epoch faster.
type EpochPath struct {
	Epoch   int64
	TotalNS int64
	Steps   []PathStep
}

// cpNode is one DP node while computing a critical path.
type cpNode struct {
	ev   Event
	cp   int64 // longest chain ending at (and including) this event
	pred int   // index of the chain predecessor, -1 at a chain head
	gap  int64 // compute gap charged on the pred → this edge
}

// CriticalPaths groups the message events of a trace by epoch and
// computes each epoch's critical path. Events with Epoch 0 (outside
// any dispatch) are ignored. Dependencies are: a recv depends on the
// send sharing its flow ID, and every message event depends on the
// previous message event of its (proc, rank) lane, with the wall-clock
// gap between them charged as compute. Epochs with no message events
// fall back to their longest worker span.
func CriticalPaths(events []Event) []EpochPath {
	msgs := map[int64][]Event{}
	workers := map[int64]Event{}
	for _, ev := range events {
		if ev.Epoch <= 0 {
			continue
		}
		switch ev.Kind {
		case "send", "recv":
			msgs[ev.Epoch] = append(msgs[ev.Epoch], ev)
		case "worker":
			if w, ok := workers[ev.Epoch]; !ok || ev.Dur > w.Dur {
				workers[ev.Epoch] = ev
			}
		}
	}
	epochs := make([]int64, 0, len(msgs)+len(workers))
	for e := range msgs {
		epochs = append(epochs, e)
	}
	for e := range workers {
		if _, ok := msgs[e]; !ok {
			epochs = append(epochs, e)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	out := make([]EpochPath, 0, len(epochs))
	for _, e := range epochs {
		if evs := msgs[e]; len(evs) > 0 {
			out = append(out, epochPath(e, evs))
		} else if w, ok := workers[e]; ok {
			out = append(out, EpochPath{
				Epoch:   e,
				TotalNS: w.Dur,
				Steps:   []PathStep{{Kind: w.Kind, Name: w.Name, Proc: w.Proc, Rank: w.Rank, DurNS: w.Dur}},
			})
		}
	}
	return out
}

// epochPath runs the longest-chain DP over one epoch's message events.
func epochPath(epoch int64, evs []Event) EpochPath {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
	nodes := make([]cpNode, len(evs))
	// sender[flow] and lane[(proc,rank)] index the possible
	// predecessors; events are visited in start order, so both are
	// resolved by the time a dependent node needs them.
	type laneKey struct{ proc, rank int }
	sender := map[uint64]int{}
	lane := map[laneKey]int{}
	for i, ev := range evs {
		n := cpNode{ev: ev, cp: ev.Dur, pred: -1}
		consider := func(j int, gap int64) {
			if c := nodes[j].cp + gap + ev.Dur; c > n.cp {
				n.cp, n.pred, n.gap = c, j, gap
			}
		}
		if ev.Kind == "recv" && ev.Flow != 0 {
			if j, ok := sender[ev.Flow]; ok {
				consider(j, 0)
			}
		}
		lk := laneKey{ev.Proc, ev.Rank}
		if j, ok := lane[lk]; ok {
			prev := nodes[j].ev
			gap := ev.Start - (prev.Start + prev.Dur)
			if gap < 0 {
				gap = 0
			}
			consider(j, gap)
		}
		nodes[i] = n
		lane[lk] = i
		if ev.Kind == "send" && ev.Flow != 0 {
			sender[ev.Flow] = i
		}
	}
	best := 0
	for i := range nodes {
		if nodes[i].cp > nodes[best].cp {
			best = i
		}
	}
	var steps []PathStep
	for i := best; i >= 0; i = nodes[i].pred {
		ev := nodes[i].ev
		steps = append(steps, PathStep{Kind: ev.Kind, Name: ev.Name, Proc: ev.Proc, Rank: ev.Rank, DurNS: ev.Dur})
		if nodes[i].gap > 0 {
			steps = append(steps, PathStep{Kind: "compute", Proc: ev.Proc, Rank: ev.Rank, DurNS: nodes[i].gap})
		}
		if nodes[i].pred < 0 {
			break
		}
	}
	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
	}
	return EpochPath{Epoch: epoch, TotalNS: nodes[best].cp, Steps: steps}
}

// Skew computes the imbalance of a per-worker weight vector: the ratio
// of the maximum weight to the mean, and the index of the heaviest
// worker. A perfectly balanced vector yields 1.0; an all-zero (or
// empty) vector yields 0 and straggler -1.
func Skew(weights []int64) (ratio float64, straggler int) {
	var total, max int64
	straggler = -1
	for i, w := range weights {
		total += w
		if w > max || straggler < 0 {
			max, straggler = w, i
		}
	}
	if total <= 0 || len(weights) == 0 {
		return 0, -1
	}
	mean := float64(total) / float64(len(weights))
	return float64(max) / mean, straggler
}

// SkewSample is one published imbalance observation.
type SkewSample struct {
	// Epoch is the latest epoch seen by ObserveEvents (0 when skew
	// came from weights only).
	Epoch int64
	// Ratio is max/mean over the observed per-worker weights (1.0 is
	// perfectly balanced; 0 means no observation yet).
	Ratio float64
	// Straggler is the 1-based rank of the heaviest worker (0 when no
	// observation yet).
	Straggler int
	// CriticalPathNS is the latest epoch's critical-path length.
	CriticalPathNS int64
}

// SkewMonitor is the live imbalance sensor: feed it cumulative
// per-worker weights (compute-phase nanoseconds when timers are on,
// element load otherwise) and, optionally, trace events; read the
// current diagnosis with Sample. hpfrun publishes the sample as the
// hpfnt_epoch_skew_ratio / hpfnt_critical_path_ns /
// hpfnt_straggler_rank metric families — the online signal ROADMAP's
// counter-driven load balancing consumes.
type SkewMonitor struct {
	mu     sync.Mutex
	prev   []int64
	sample SkewSample
}

// NewSkewMonitor returns an empty monitor.
func NewSkewMonitor() *SkewMonitor { return &SkewMonitor{} }

// ObserveWeights ingests the current cumulative per-worker weights,
// indexed by rank-1. When a previous observation with the same shape
// exists and every weight moved forward, skew is computed over the
// delta — the imbalance of the window since the last scrape, which is
// the signal a rebalancer wants — otherwise over the cumulative
// vector.
func (m *SkewMonitor) ObserveWeights(weights []int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	use := weights
	if len(m.prev) == len(weights) {
		delta := make([]int64, len(weights))
		ok := false
		for i := range weights {
			delta[i] = weights[i] - m.prev[i]
			if delta[i] < 0 {
				ok = false
				break
			}
			if delta[i] > 0 {
				ok = true
			}
		}
		if ok {
			use = delta
		}
	}
	if ratio, straggler := Skew(use); straggler >= 0 {
		m.sample.Ratio = ratio
		m.sample.Straggler = straggler + 1
	}
	m.prev = append(m.prev[:0], weights...)
}

// ObserveEvents ingests a trace snapshot and refreshes the latest
// epoch's critical-path length.
func (m *SkewMonitor) ObserveEvents(events []Event) {
	paths := CriticalPaths(events)
	if len(paths) == 0 {
		return
	}
	last := paths[len(paths)-1]
	m.mu.Lock()
	m.sample.Epoch = last.Epoch
	m.sample.CriticalPathNS = last.TotalNS
	m.mu.Unlock()
}

// Sample returns the current diagnosis.
func (m *SkewMonitor) Sample() SkewSample {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sample
}
