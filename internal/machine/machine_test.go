package machine

import (
	"math"
	"slices"
	"strings"
	"testing"
)

func newMachine(t *testing.T, np int) *Machine {
	t.Helper()
	m, err := New(np, DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, DefaultCost()); err == nil {
		t.Fatal("zero processors must fail")
	}
}

func TestSendAggregation(t *testing.T) {
	m := newMachine(t, 4)
	m.Send(1, 2, 10)
	m.Send(1, 2, 5)
	m.Send(3, 4, 7)
	r := m.Stats()
	if r.Messages != 3 {
		t.Fatalf("Messages = %d", r.Messages)
	}
	if r.ElementsMoved != 22 {
		t.Fatalf("Elements = %d", r.ElementsMoved)
	}
	tm := m.TrafficMatrix()
	if len(tm) != 2 {
		t.Fatalf("traffic entries = %v", tm)
	}
	if tm[0].Src != 1 || tm[0].Dst != 2 || tm[0].Elements != 15 || tm[0].Messages != 2 {
		t.Fatalf("entry = %+v", tm[0])
	}
}

func TestSelfSendIgnored(t *testing.T) {
	m := newMachine(t, 4)
	m.Send(2, 2, 100)
	m.Send(1, 2, 0)
	m.Send(1, 2, -5)
	r := m.Stats()
	if r.Messages != 0 || r.ElementsMoved != 0 {
		t.Fatalf("self/empty sends must be free: %+v", r)
	}
}

func TestSendRangeChecks(t *testing.T) {
	m := newMachine(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range processor must panic")
		}
	}()
	m.Send(1, 3, 1)
}

func TestLoadAndImbalance(t *testing.T) {
	m := newMachine(t, 4)
	m.AddLoad(1, 100)
	m.AddLoad(2, 100)
	m.AddLoad(3, 100)
	m.AddLoad(4, 100)
	r := m.Stats()
	if r.LoadImbalance != 1.0 {
		t.Fatalf("perfect balance: imbalance = %f", r.LoadImbalance)
	}
	m.AddLoad(1, 400)
	r = m.Stats()
	if r.MaxLoad != 500 || r.TotalLoad != 800 {
		t.Fatalf("loads: %+v", r)
	}
	if r.LoadImbalance != 2.5 {
		t.Fatalf("imbalance = %f, want 2.5", r.LoadImbalance)
	}
	loads := m.PerProcessorLoad()
	if loads[1] != 500 || loads[4] != 100 {
		t.Fatalf("per-proc loads = %v", loads)
	}
}

func TestRefCounters(t *testing.T) {
	m := newMachine(t, 2)
	m.RecordLocal(30)
	m.RecordRemote(10)
	r := m.Stats()
	if r.LocalRefs != 30 || r.RemoteRefs != 10 {
		t.Fatalf("refs: %+v", r)
	}
	if r.RemoteFraction != 0.25 {
		t.Fatalf("remote fraction = %f", r.RemoteFraction)
	}
}

func TestCostModelTime(t *testing.T) {
	cost := CostModel{Latency: 100, PerElement: 2, PerFlop: 1}
	m, _ := New(2, cost)
	m.AddLoad(1, 50)
	m.Send(1, 2, 10)
	r := m.Stats()
	// Comm time is per-processor α·msgs + β·elems: proc 1 sends one
	// message of 10 elems: 100 + 20 = 120; proc 2 receives the same.
	if r.CommTime != 120 {
		t.Fatalf("CommTime = %f", r.CommTime)
	}
	if r.ComputeTime != 50 {
		t.Fatalf("ComputeTime = %f", r.ComputeTime)
	}
	if r.EstimatedTime != 170 {
		t.Fatalf("EstimatedTime = %f", r.EstimatedTime)
	}
}

func TestReset(t *testing.T) {
	m := newMachine(t, 2)
	m.Send(1, 2, 5)
	m.AddLoad(1, 10)
	m.RecordRemote(1)
	m.Reset()
	r := m.Stats()
	if r.Messages != 0 || r.TotalLoad != 0 || r.RemoteRefs != 0 {
		t.Fatalf("reset failed: %+v", r)
	}
}

func TestReportString(t *testing.T) {
	m := newMachine(t, 2)
	m.Send(1, 2, 5)
	s := m.Stats().String()
	if !strings.Contains(s, "np=2") || !strings.Contains(s, "msgs=1") {
		t.Fatalf("String = %q", s)
	}
}

func TestTable(t *testing.T) {
	m := newMachine(t, 2)
	m.Send(1, 2, 5)
	out := Table([]LabelledReport{{Label: "block", Report: m.Stats()}})
	if !strings.Contains(out, "block") || !strings.Contains(out, "mapping") {
		t.Fatalf("Table = %q", out)
	}
}

// TestEncodeMergeCounters checks that per-process counter shares sum
// to the whole: a machine's activity split across two machines and
// merged back must reproduce the original report exactly.
func TestEncodeMergeCounters(t *testing.T) {
	const np = 4
	whole, _ := New(np, DefaultCost())
	a, _ := New(np, DefaultCost())
	b, _ := New(np, DefaultCost())
	charge := func(ms ...*Machine) {
		for _, m := range ms {
			m.Send(1, 3, 7)
			m.Send(1, 3, 7)
			m.Send(2, 4, 11)
			m.AddLoad(1, 5)
			m.RecordLocal(13)
		}
	}
	charge(whole, a)
	for _, m := range []*Machine{whole, b} {
		m.Send(4, 2, 3)
		m.AddLoad(3, 9)
		m.RecordRemote(6)
	}
	merged, _ := New(np, DefaultCost())
	for _, part := range [][]float64{a.EncodeCounters(), b.EncodeCounters()} {
		if err := merged.MergeCounters(part); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := merged.Stats(), whole.Stats(); got != want {
		t.Fatalf("merged report:\n got  %+v\n want %+v", got, want)
	}
	if err := merged.MergeCounters([]float64{1, 2, 3}); err == nil {
		t.Fatal("short counter vector must be rejected")
	}
}

// TestMergeCountersRejectsWhole: a counter vector that is bad anywhere
// — its last pair, its pair count, any entry — is rejected before
// anything is added, so the machine's report is what it was.
func TestMergeCountersRejectsWhole(t *testing.T) {
	const np = 3
	part := newMachine(t, np)
	part.Send(1, 2, 4)
	part.Send(3, 1, 6)
	part.AddLoad(2, 9)
	part.RecordLocal(5)
	good := part.EncodeCounters()
	count := len(good) - 1 - 2*4 // offset of the pair count; two pairs follow
	corrupt := func(i int, v float64) []float64 {
		enc := append([]float64(nil), good...)
		enc[i] = v
		return enc
	}
	for name, enc := range map[string][]float64{
		"last pair out of range":  corrupt(len(good)-3, np+1),
		"fractional pair index":   corrupt(len(good)-4, 1.5),
		"NaN pair count":          corrupt(count, math.NaN()),
		"negative pair count":     corrupt(count, -2),
		"pair count past the end": corrupt(count, 3),
		"huge pair count":         corrupt(count, 1<<62)[:count+1],
		"infinite counter":        corrupt(0, math.Inf(1)),
		"fractional counter":      corrupt(4, 2.5),
	} {
		m := newMachine(t, np)
		m.Send(2, 3, 8)
		m.AddLoad(1, 1)
		before, beforeEnc := m.Stats(), m.EncodeCounters()
		if err := m.MergeCounters(enc); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if after := m.Stats(); after != before {
			t.Errorf("%s: report changed by a rejected merge:\n got  %+v\n want %+v", name, after, before)
		}
		if after := m.EncodeCounters(); !slices.Equal(after, beforeEnc) {
			t.Errorf("%s: counters changed by a rejected merge", name)
		}
	}
	m := newMachine(t, np)
	if err := m.MergeCounters(good); err != nil {
		t.Fatalf("uncorrupted vector: %v", err)
	}
}

// fuzzCounterValues are what the bytes 0xF0..0xFF of a fuzz input
// decode to: values a corrupted or hostile counter vector can carry.
var fuzzCounterValues = [16]float64{
	math.NaN(), math.Inf(1), math.Inf(-1), -1, 0.5, 1e300, 1 << 62, -(1 << 62),
	1<<53 + 2, 1 << 53, math.Copysign(0, -1), 1000, 1e9, 3.5, math.MaxInt64, 255,
}

// FuzzMergeCounters: no counter vector panics MergeCounters, a rejected
// one leaves the machine untouched, and an accepted one round-trips
// through EncodeCounters — exactly when its pairs are in the sorted,
// duplicate-free order EncodeCounters writes.
func FuzzMergeCounters(f *testing.F) {
	seed := func(np int, charge func(*Machine)) {
		m, _ := New(np, DefaultCost())
		charge(m)
		var data []byte
		for _, v := range m.EncodeCounters() {
			data = append(data, byte(v))
		}
		f.Add(uint8(np-1), data)
		f.Add(uint8(np-1), append(data, 2, 3, 1, 1))
		data[len(data)-3] = byte(np + 1)
		f.Add(uint8(np-1), data)
	}
	seed(1, func(m *Machine) { m.AddLoad(1, 7); m.RecordRemote(2) })
	seed(2, func(m *Machine) { m.Send(1, 2, 7); m.Send(2, 1, 3); m.AddWireFrames(2) })
	seed(3, func(m *Machine) { m.Send(3, 1, 4); m.Send(1, 2, 9); m.AddPhaseNS(2, PhaseReduce, 40) })
	f.Add(uint8(1), []byte{0xF0, 0xF6, 0xF8})

	f.Fuzz(func(t *testing.T, npByte uint8, data []byte) {
		np := int(npByte%4) + 1
		enc := make([]float64, len(data))
		for i, b := range data {
			enc[i] = float64(b)
			if b >= 0xF0 {
				enc[i] = fuzzCounterValues[b-0xF0]
			}
		}
		m, _ := New(np, DefaultCost())
		m.Send(1, np, 5)
		m.AddLoad(np, 3)
		before := m.EncodeCounters()
		if err := m.MergeCounters(enc); err != nil {
			if after := m.EncodeCounters(); !slices.Equal(after, before) {
				t.Fatalf("rejected merge (%v) changed the counters:\n before %v\n after  %v", err, before, after)
			}
			return
		}
		fresh, _ := New(np, DefaultCost())
		if err := fresh.MergeCounters(enc); err != nil {
			t.Fatalf("vector accepted by one machine, rejected by an empty one: %v", err)
		}
		out := fresh.EncodeCounters()
		again, _ := New(np, DefaultCost())
		if err := again.MergeCounters(out); err != nil {
			t.Fatalf("EncodeCounters output rejected: %v", err)
		}
		if got := again.EncodeCounters(); !slices.Equal(got, out) {
			t.Fatalf("encode+merge is not stable:\n %v\n %v", out, got)
		}
		first := 3 + (5+NumPhases)*np + 1 // offset of the first pair
		sorted := true
		for k := first + 4; k < len(enc); k += 4 {
			prev, cur := [2]float64{enc[k-4], enc[k-3]}, [2]float64{enc[k], enc[k+1]}
			sorted = sorted && (prev[0] < cur[0] || prev[0] == cur[0] && prev[1] < cur[1])
		}
		if sorted && !slices.Equal(out, enc) {
			t.Fatalf("canonical vector does not round-trip:\n in  %v\n out %v", enc, out)
		}
	})
}
