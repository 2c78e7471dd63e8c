package analyze

import (
	"reflect"
	"strings"
	"testing"

	"hpfnt/internal/obs"
)

// twoEpochTrace is a hand-built trace of two workers over two epochs
// whose diagnosis is known by construction:
//
//   - epoch 1: rank 1 sends (10ns) on flow 7 to rank 2, which receives
//     (20ns), computes 30ns and sends again (30ns): a 90ns critical
//     path. Busy 100 vs 300ns: skew 300/200 = 1.5, straggler rank 2.
//   - epoch 2: no messages, so the path is the longest worker span,
//     500ns. Busy 500 vs 300ns: skew 500/400 = 1.25, straggler rank 1.
//
// The epoch-0 events (a checkpoint and a stray worker span) lie
// outside every dispatch and must be ignored.
func twoEpochTrace() []obs.Event {
	return []obs.Event{
		{Kind: "checkpoint", Rank: 0, Start: 0, Dur: 9000},
		{Kind: "worker", Rank: 1, Start: 0, Dur: 9000},
		{Kind: "worker", Rank: 1, Start: 0, Dur: 100, Epoch: 1},
		{Kind: "worker", Rank: 2, Start: 0, Dur: 300, Epoch: 1},
		{Kind: "send", Name: "ghost", Rank: 1, Start: 0, Dur: 10, Epoch: 1, Flow: 7},
		{Kind: "recv", Name: "ghost", Rank: 2, Start: 50, Dur: 20, Epoch: 1, Flow: 7},
		{Kind: "send", Name: "reply", Rank: 2, Start: 100, Dur: 30, Epoch: 1},
		{Kind: "worker", Rank: 1, Start: 1000, Dur: 500, Epoch: 2},
		{Kind: "worker", Rank: 2, Start: 1000, Dur: 300, Epoch: 2},
	}
}

func TestFromEvents(t *testing.T) {
	r := FromEvents(twoEpochTrace())
	if len(r.Epochs) != 2 {
		t.Fatalf("epochs = %+v, want 2", r.Epochs)
	}
	e1, e2 := r.Epochs[0], r.Epochs[1]
	if e1.Epoch != 1 || e1.CriticalPathNS != 90 || e1.SkewRatio != 1.5 || e1.Straggler != 2 {
		t.Errorf("epoch 1 = %+v, want path 90ns, skew 1.5, straggler 2", e1)
	}
	wantPath := []obs.PathStep{
		{Kind: "send", Name: "ghost", Rank: 1, DurNS: 10},
		{Kind: "recv", Name: "ghost", Rank: 2, DurNS: 20},
		{Kind: "compute", Rank: 2, DurNS: 30},
		{Kind: "send", Name: "reply", Rank: 2, DurNS: 30},
	}
	if !reflect.DeepEqual(e1.Path, wantPath) {
		t.Errorf("epoch 1 path =\n %+v\nwant\n %+v", e1.Path, wantPath)
	}
	if e2.Epoch != 2 || e2.CriticalPathNS != 500 || e2.SkewRatio != 1.25 || e2.Straggler != 1 {
		t.Errorf("epoch 2 = %+v, want path 500ns, skew 1.25, straggler 1", e2)
	}
	// The longest path and the most skewed epoch are different epochs.
	if r.MaxCriticalPathNS != 500 || r.MaxSkewRatio != 1.5 || r.StragglerRank != 2 {
		t.Errorf("report maxima = path %d, skew %v, straggler %d; want 500, 1.5, 2",
			r.MaxCriticalPathNS, r.MaxSkewRatio, r.StragglerRank)
	}
	wantWorkers := []WorkerStat{
		{Rank: 1, BusyNS: 600, SendNS: 10, Msgs: 1},
		{Rank: 2, BusyNS: 600, SendNS: 30, RecvNS: 20, Msgs: 2},
	}
	if !reflect.DeepEqual(r.Workers, wantWorkers) {
		t.Errorf("workers = %+v, want %+v", r.Workers, wantWorkers)
	}
	text := r.Text(1)
	for _, want := range []string{"trace: 2 epochs, 2 workers", "critical path of epoch 2", "r2"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text(1) lacks %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "critical path of epoch 1") {
		t.Errorf("Text(1) printed more than the top path:\n%s", text)
	}
}

func TestFromEventsEmpty(t *testing.T) {
	r := FromEvents([]obs.Event{{Kind: "member-lost", Start: 5}})
	if len(r.Epochs) != 0 || r.MaxCriticalPathNS != 0 || r.MaxSkewRatio != 0 || r.StragglerRank != 0 {
		t.Errorf("trace with no spans diagnosed as %+v", r)
	}
}
