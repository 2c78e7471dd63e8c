// Package machine simulates a distributed-memory multiprocessor at
// the level the paper's claims live at: which processor owns which
// element, how much data crosses processor boundaries, and how evenly
// computational load is spread. Messages follow the classic α–β cost
// model (per-message latency plus per-element bandwidth cost); the
// paper's motivating observation — "an operation on two or more data
// objects is likely to be carried out much faster if they all reside
// in the same processor" — is what the counters quantify.
//
// The simulator substitutes for the iPSC/Delta-class hardware of the
// paper's era: absolute times are synthetic, but winners, factors and
// crossovers depend only on the ownership maps and the cost model's
// relative weights, which is exactly what the experiments compare.
package machine

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CostModel weights the synthetic execution-time estimate.
type CostModel struct {
	// Latency is the per-message startup cost (the α of the α–β
	// model), in arbitrary time units.
	Latency float64
	// PerElement is the per-element transfer cost (β).
	PerElement float64
	// PerFlop is the per-unit compute cost.
	PerFlop float64
}

// DefaultCost mirrors early-90s message-passing machines, where a
// message startup cost on the order of a thousand flops made
// locality dominant (latency/flop ≈ 1000, bandwidth cost ≈ 10 flops
// per element).
func DefaultCost() CostModel {
	return CostModel{Latency: 1000, PerElement: 10, PerFlop: 1}
}

type pair struct{ src, dst int }

// Machine is a simulated distributed-memory machine with NP
// processors, numbered 1..NP (abstract processor numbers).
type Machine struct {
	NP   int
	Cost CostModel

	msgs  map[pair]int
	elems map[pair]int

	localRefs  int64
	remoteRefs int64
	wireFrames int64
	load       []int64
	sendElems  []int64
	recvElems  []int64
	sendMsgs   []int64
	recvMsgs   []int64
	// phaseNS is the per-processor wall time per worker phase in
	// nanoseconds, indexed phase*(NP+1)+p (see phase.go). All zero
	// unless phase timing is enabled (package obs), so the logical
	// counters stay deterministic by default.
	phaseNS []int64
}

// New creates a machine with np processors and the given cost model.
func New(np int, cost CostModel) (*Machine, error) {
	if np < 1 {
		return nil, fmt.Errorf("machine: processor count must be positive, got %d", np)
	}
	m := &Machine{NP: np, Cost: cost}
	m.Reset()
	return m, nil
}

// Reset clears all counters.
func (m *Machine) Reset() {
	m.msgs = map[pair]int{}
	m.elems = map[pair]int{}
	m.localRefs = 0
	m.remoteRefs = 0
	m.wireFrames = 0
	m.load = make([]int64, m.NP+1)
	m.sendElems = make([]int64, m.NP+1)
	m.recvElems = make([]int64, m.NP+1)
	m.sendMsgs = make([]int64, m.NP+1)
	m.recvMsgs = make([]int64, m.NP+1)
	m.phaseNS = make([]int64, NumPhases*(m.NP+1))
}

func (m *Machine) checkProc(p int) {
	if p < 1 || p > m.NP {
		panic(fmt.Sprintf("machine: processor %d out of range 1..%d", p, m.NP))
	}
}

// Send records one aggregated message of n elements from src to dst.
// Self-sends are ignored (local copies are free in this model).
func (m *Machine) Send(src, dst, n int) {
	m.checkProc(src)
	m.checkProc(dst)
	if src == dst || n <= 0 {
		return
	}
	k := pair{src, dst}
	m.msgs[k]++
	m.elems[k] += n
	m.sendMsgs[src]++
	m.recvMsgs[dst]++
	m.sendElems[src] += int64(n)
	m.recvElems[dst] += int64(n)
}

// AddWireFrames counts n physical frames actually handed to the
// transport. This is bookkeeping beside the cost model, not part of
// it: Report.Messages stays the paper's logical per-statement message
// count (identical across engines and wires), while WireFrames shows
// what schedule-level coalescing saved — an epoch that replays a
// schedule k times still ships each (sender,receiver) pair's ghost
// region once when the statement does not overwrite its own inputs.
func (m *Machine) AddWireFrames(n int) { m.wireFrames += int64(n) }

// WireFrames returns the physical frame count (this process's share
// on a multi-process job; job-wide totals travel with EncodeCounters).
func (m *Machine) WireFrames() int64 { return m.wireFrames }

// RecordLocal counts n element references satisfied locally.
func (m *Machine) RecordLocal(n int) { m.localRefs += int64(n) }

// RecordRemote counts n element references requiring remote data
// (message accounting is done separately via Send, typically
// aggregated per statement).
func (m *Machine) RecordRemote(n int) { m.remoteRefs += int64(n) }

// AddLoad adds n compute units to processor p.
func (m *Machine) AddLoad(p int, n int) {
	m.checkProc(p)
	m.load[p] += int64(n)
}

// Report is a snapshot of the machine's counters and derived metrics.
type Report struct {
	NP             int
	Messages       int64
	ElementsMoved  int64
	LocalRefs      int64
	RemoteRefs     int64
	TotalLoad      int64
	MaxLoad        int64
	LoadImbalance  float64 // MaxLoad / (TotalLoad/NP); 1.0 is perfect
	CommTime       float64 // max over processors of α·msgs + β·elems (send+recv)
	ComputeTime    float64 // MaxLoad · PerFlop
	EstimatedTime  float64 // ComputeTime + CommTime
	RemoteFraction float64 // RemoteRefs / (LocalRefs+RemoteRefs)
	// Phase is the measured job-wide wall time per worker phase
	// (all-zero unless phase timing is enabled; see Logical).
	Phase PhaseSeconds
}

// Stats derives the current report.
func (m *Machine) Stats() Report {
	r := Report{NP: m.NP, LocalRefs: m.localRefs, RemoteRefs: m.remoteRefs}
	for _, c := range m.msgs {
		r.Messages += int64(c)
	}
	for _, c := range m.elems {
		r.ElementsMoved += int64(c)
	}
	for p := 1; p <= m.NP; p++ {
		r.TotalLoad += m.load[p]
		if m.load[p] > r.MaxLoad {
			r.MaxLoad = m.load[p]
		}
		ct := m.Cost.Latency*float64(m.sendMsgs[p]+m.recvMsgs[p]) +
			m.Cost.PerElement*float64(m.sendElems[p]+m.recvElems[p])
		if ct > r.CommTime {
			r.CommTime = ct
		}
	}
	if r.TotalLoad > 0 {
		avg := float64(r.TotalLoad) / float64(m.NP)
		r.LoadImbalance = float64(r.MaxLoad) / avg
	}
	r.ComputeTime = float64(r.MaxLoad) * m.Cost.PerFlop
	r.EstimatedTime = r.ComputeTime + r.CommTime
	if tot := r.LocalRefs + r.RemoteRefs; tot > 0 {
		r.RemoteFraction = float64(r.RemoteRefs) / float64(tot)
	}
	r.Phase = m.phaseTotals()
	return r
}

// EncodeCounters flattens the machine's raw counters into a float64
// vector (counts stay far below 2^53, so the encoding is exact) for
// shipment between the processes of a multi-process spmd job:
// [localRefs, remoteRefs, wireFrames, load(1..NP), sendElems(1..NP),
// recvElems(1..NP), sendMsgs(1..NP), recvMsgs(1..NP),
// phaseNS(phase-major, NumPhases×NP), pairCount,
// (src, dst, msgs, elems)...]. MergeCounters is its inverse-and-add.
// Phase nanoseconds ride the same vector so a multi-process job's
// phase breakdown is job-wide, survives checkpoint/restore, and a
// counter added here without a MergeCounters counterpart is caught by
// the roundtrip drift test.
func (m *Machine) EncodeCounters() []float64 {
	out := make([]float64, 0, 3+(5+NumPhases)*m.NP+1+4*len(m.msgs))
	out = append(out, float64(m.localRefs), float64(m.remoteRefs), float64(m.wireFrames))
	for _, vec := range [][]int64{m.load, m.sendElems, m.recvElems, m.sendMsgs, m.recvMsgs} {
		for p := 1; p <= m.NP; p++ {
			out = append(out, float64(vec[p]))
		}
	}
	for ph := 0; ph < NumPhases; ph++ {
		for p := 1; p <= m.NP; p++ {
			out = append(out, float64(m.phaseNS[ph*(m.NP+1)+p]))
		}
	}
	tm := m.TrafficMatrix()
	out = append(out, float64(len(tm)))
	for _, e := range tm {
		out = append(out, float64(e.Src), float64(e.Dst), float64(e.Messages), float64(e.Elements))
	}
	return out
}

// MergeCounters adds a counter vector produced by EncodeCounters on a
// machine of the same shape — the per-process shares of one job sum
// to the job-wide counters, because every event (send, load, local or
// remote reference) is charged by exactly one process. The vector comes
// from another process or a checkpoint shard, so it is validated whole
// before anything is added: on error the machine is unchanged.
func (m *Machine) MergeCounters(enc []float64) error {
	head := 3 + (5+NumPhases)*m.NP + 1
	if len(enc) < head {
		return fmt.Errorf("machine: counter vector has %d entries, want at least %d", len(enc), head)
	}
	for i, v := range enc {
		if v != math.Trunc(v) || math.Abs(v) > 1<<53 {
			return fmt.Errorf("machine: counter vector entry %d is %v, not an exact integer", i, v)
		}
	}
	if pc, room := enc[head-1], (len(enc)-head)/4; pc < 0 || pc > float64(room) || len(enc) != head+4*int(pc) {
		return fmt.Errorf("machine: counter vector has %d entries, which does not fit %v pairs", len(enc), pc)
	}
	npairs := int(enc[head-1])
	for k := 0; k < npairs; k++ {
		src, dst := enc[head+4*k], enc[head+4*k+1]
		if src < 1 || src > float64(m.NP) || dst < 1 || dst > float64(m.NP) {
			return fmt.Errorf("machine: counter pair (%v,%v) out of range 1..%d", src, dst, m.NP)
		}
	}

	m.localRefs += int64(enc[0])
	m.remoteRefs += int64(enc[1])
	m.wireFrames += int64(enc[2])
	i := 3
	for _, vec := range [][]int64{m.load, m.sendElems, m.recvElems, m.sendMsgs, m.recvMsgs} {
		for p := 1; p <= m.NP; p++ {
			vec[p] += int64(enc[i])
			i++
		}
	}
	for ph := 0; ph < NumPhases; ph++ {
		for p := 1; p <= m.NP; p++ {
			m.phaseNS[ph*(m.NP+1)+p] += int64(enc[i])
			i++
		}
	}
	i++ // pair count
	for k := 0; k < npairs; k++ {
		key := pair{int(enc[i]), int(enc[i+1])}
		m.msgs[key] += int(enc[i+2])
		m.elems[key] += int(enc[i+3])
		i += 4
	}
	return nil
}

// PerProcessorLoad returns a copy of the per-processor load vector
// (index 1..NP).
func (m *Machine) PerProcessorLoad() []int64 {
	out := make([]int64, m.NP+1)
	copy(out, m.load)
	return out
}

// TrafficMatrix lists nonzero (src,dst) traffic entries, sorted.
func (m *Machine) TrafficMatrix() []TrafficEntry {
	out := make([]TrafficEntry, 0, len(m.elems))
	for k, e := range m.elems {
		out = append(out, TrafficEntry{Src: k.src, Dst: k.dst, Messages: m.msgs[k], Elements: e})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// TrafficEntry is one src→dst aggregate.
type TrafficEntry struct {
	Src, Dst           int
	Messages, Elements int
}

// String summarizes the report on one line.
func (r Report) String() string {
	return fmt.Sprintf("np=%d msgs=%d elems=%d local=%d remote=%d (%.1f%%) maxload=%d imb=%.3f T=%.0f",
		r.NP, r.Messages, r.ElementsMoved, r.LocalRefs, r.RemoteRefs, 100*r.RemoteFraction, r.MaxLoad, r.LoadImbalance, r.EstimatedTime)
}

// Table renders several labelled reports as an aligned text table,
// used by the experiment harness.
func Table(rows []LabelledReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %10s %12s %12s %10s %8s %12s\n", "mapping", "messages", "elems-moved", "remote-refs", "remote%", "imbal", "est-time")
	for _, row := range rows {
		r := row.Report
		fmt.Fprintf(&b, "%-34s %10d %12d %12d %9.1f%% %8.3f %12.0f\n",
			row.Label, r.Messages, r.ElementsMoved, r.RemoteRefs, 100*r.RemoteFraction, r.LoadImbalance, r.EstimatedTime)
	}
	return b.String()
}

// LabelledReport pairs a mapping label with its report.
type LabelledReport struct {
	Label  string
	Report Report
}
