package machine

import (
	"fmt"
	"sort"
	"strings"
)

// Phase identifies one slice of a worker's wall time. The spmd engine
// splits each worker's execution into these phases (package obs gates
// the timers) under either dispatcher; the element-wise oracle never
// charges them, so with timing disabled every Report.Phase is zero and
// reports stay comparable across engines.
type Phase int

// The worker phases, in encoding order.
const (
	// PhaseCompute is time spent in the arithmetic of compiled
	// schedules (stencil sweeps, irregular accumulate/store).
	PhaseCompute Phase = iota
	// PhaseGhostWait is time in the ghost exchange: gathering,
	// sending, and above all blocking on Recv for a neighbour's halo.
	PhaseGhostWait
	// PhaseBarrierWait is time from a worker's last phase of an epoch
	// to the epoch's end, when its slowest peer is done — the
	// load-imbalance signal in wall-clock form.
	PhaseBarrierWait
	// PhaseReduce is time in global reductions (fold + combine tree).
	PhaseReduce
	// PhaseCheckpoint is time in checkpoint/restore collectives (shard
	// I/O, counter aggregation, the publish barrier).
	PhaseCheckpoint

	// NumPhases is the number of phases (and the per-processor width
	// the phase block adds to EncodeCounters).
	NumPhases int = iota
)

// phaseNames indexes Phase for display and metric labels.
var phaseNames = [NumPhases]string{"compute", "ghost_wait", "barrier_wait", "reduce", "checkpoint"}

// String returns the phase's snake_case name.
func (ph Phase) String() string {
	if ph < 0 || int(ph) >= NumPhases {
		return fmt.Sprintf("phase(%d)", int(ph))
	}
	return phaseNames[ph]
}

// PhaseNames lists the phase names in encoding order.
func PhaseNames() []string {
	out := make([]string, NumPhases)
	copy(out, phaseNames[:])
	return out
}

// AddPhaseNS charges ns nanoseconds of wall time in phase ph to
// processor p.
func (m *Machine) AddPhaseNS(p int, ph Phase, ns int64) {
	m.checkProc(p)
	if ns <= 0 {
		return
	}
	m.phaseNS[int(ph)*(m.NP+1)+p] += ns
}

// PhaseNS returns processor p's accumulated wall time in phase ph,
// in nanoseconds.
func (m *Machine) PhaseNS(p int, ph Phase) int64 {
	m.checkProc(p)
	return m.phaseNS[int(ph)*(m.NP+1)+p]
}

// PhaseSeconds is the job-wide wall time per phase, in seconds,
// summed over all workers. All-zero (the default) when phase timing
// is disabled, which keeps Report equality across engines and wires
// meaningful; Report.Logical strips it for comparisons that must
// ignore wall time.
type PhaseSeconds struct {
	Compute     float64
	GhostWait   float64
	BarrierWait float64
	Reduce      float64
	Checkpoint  float64
}

// phaseTotals sums the per-processor phase block into PhaseSeconds.
func (m *Machine) phaseTotals() PhaseSeconds {
	var t [NumPhases]float64
	for ph := 0; ph < NumPhases; ph++ {
		var sum int64
		for p := 1; p <= m.NP; p++ {
			sum += m.phaseNS[ph*(m.NP+1)+p]
		}
		t[ph] = float64(sum) / 1e9
	}
	return PhaseSeconds{
		Compute:     t[PhaseCompute],
		GhostWait:   t[PhaseGhostWait],
		BarrierWait: t[PhaseBarrierWait],
		Reduce:      t[PhaseReduce],
		Checkpoint:  t[PhaseCheckpoint],
	}
}

// Logical returns the report with its wall-clock phase block zeroed:
// the paper's deterministic counters only. Verifications that demand
// identical reports across runs, engines and wires compare Logical
// reports — wall time is real but never reproducible.
func (r Report) Logical() Report {
	r.Phase = PhaseSeconds{}
	return r
}

// Detail is the full per-worker view of a machine's counters: the
// load vector, the traffic matrix and the per-worker phase times
// behind the Report aggregates. It is not comparable (slices) and is
// meant for humans and metric scrapes, not equivalence checks.
type Detail struct {
	Report Report
	// Load is the per-processor compute load, index 1..NP.
	Load []int64
	// SendElems/RecvElems are the per-processor traffic vectors,
	// index 1..NP.
	SendElems []int64
	RecvElems []int64
	// Traffic is the nonzero (src,dst) aggregate matrix, sorted.
	Traffic []TrafficEntry
	// WireFrames is the physical frame count after schedule-level
	// coalescing (this machine's share; see Machine.WireFrames).
	WireFrames int64
	// PhaseNS[ph] is the per-processor wall time of phase ph in
	// nanoseconds, index 1..NP (nil entries never charged).
	PhaseNS [NumPhases][]int64
}

// Detail snapshots the machine's full per-worker state.
func (m *Machine) Detail() Detail {
	d := Detail{
		Report:     m.Stats(),
		Load:       m.PerProcessorLoad(),
		SendElems:  append([]int64(nil), m.sendElems...),
		RecvElems:  append([]int64(nil), m.recvElems...),
		Traffic:    m.TrafficMatrix(),
		WireFrames: m.wireFrames,
	}
	for ph := 0; ph < NumPhases; ph++ {
		vec := make([]int64, m.NP+1)
		copy(vec, m.phaseNS[ph*(m.NP+1):(ph+1)*(m.NP+1)])
		d.PhaseNS[ph] = vec
	}
	return d
}

// ComputeWeights returns the per-worker compute weight vector indexed
// by rank-1: the compute-phase wall time when the phase timers were
// on (the truest imbalance signal), the logical element load
// otherwise. source names the vector chosen ("compute_ns" or "load").
// This is the weight vector the skew/straggler analysis and the
// counter-driven load balancer consume.
func (d Detail) ComputeWeights() (weights []int64, source string) {
	weights = make([]int64, d.Report.NP)
	source = "compute_ns"
	any := false
	if vec := d.PhaseNS[PhaseCompute]; vec != nil {
		for p := 1; p <= d.Report.NP && p < len(vec); p++ {
			weights[p-1] = vec[p]
			any = any || vec[p] > 0
		}
	}
	if !any {
		source = "load"
		for p := 1; p <= d.Report.NP && p < len(d.Load); p++ {
			weights[p-1] = d.Load[p]
		}
	}
	return weights, source
}

// String renders the detail as a human-readable table: one row per
// worker (load, traffic, phase seconds) followed by the traffic
// matrix — what `hpfrun -verbose` prints after a job's output.
func (d Detail) String() string {
	var b strings.Builder
	r := d.Report
	fmt.Fprintf(&b, "%s\n", r.String())
	timed := false
	for ph := 0; ph < NumPhases; ph++ {
		for _, ns := range d.PhaseNS[ph] {
			if ns > 0 {
				timed = true
			}
		}
	}
	fmt.Fprintf(&b, "%-6s %12s %12s %12s", "worker", "load", "send-elems", "recv-elems")
	if timed {
		for ph := 0; ph < NumPhases; ph++ {
			fmt.Fprintf(&b, " %12s", Phase(ph).String())
		}
	}
	b.WriteByte('\n')
	for p := 1; p <= r.NP; p++ {
		fmt.Fprintf(&b, "%-6d %12d %12d %12d", p, at(d.Load, p), at(d.SendElems, p), at(d.RecvElems, p))
		if timed {
			for ph := 0; ph < NumPhases; ph++ {
				fmt.Fprintf(&b, " %11.3fms", float64(at(d.PhaseNS[ph], p))/1e6)
			}
		}
		b.WriteByte('\n')
	}
	if timed {
		ps := r.Phase
		fmt.Fprintf(&b, "phases: compute %.3fs ghost-wait %.3fs barrier-wait %.3fs reduce %.3fs checkpoint %.3fs\n",
			ps.Compute, ps.GhostWait, ps.BarrierWait, ps.Reduce, ps.Checkpoint)
	}
	if len(d.Traffic) > 0 {
		fmt.Fprintf(&b, "traffic (src->dst): ")
		tm := append([]TrafficEntry(nil), d.Traffic...)
		sort.Slice(tm, func(i, j int) bool {
			if tm[i].Src != tm[j].Src {
				return tm[i].Src < tm[j].Src
			}
			return tm[i].Dst < tm[j].Dst
		})
		for i, e := range tm {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%d->%d:%dm/%de", e.Src, e.Dst, e.Messages, e.Elements)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// at indexes a 1-based per-processor vector defensively.
func at(vec []int64, p int) int64 {
	if p < 0 || p >= len(vec) {
		return 0
	}
	return vec[p]
}
