package main

import (
	"encoding/json"
	"errors"
	"os/exec"
	"path/filepath"
	"testing"

	"hpfnt/internal/obs"
)

// TestCommand builds the command and runs it on two written traces:
// one epoch of two workers joined by a send/recv flow, and one holding
// only an instant. -json must report the epoch's critical path, -gate
// must pass the first and fail the second, and a missing argument is a
// usage error.
func TestCommand(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "hpftrace")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	const base = int64(1_700_000_000_000_000_000)
	spans := filepath.Join(dir, "spans.json")
	if err := obs.WriteTrace(spans, []obs.Event{
		{Kind: "worker", Rank: 1, Start: base, Dur: 40_000, Epoch: 1},
		{Kind: "worker", Rank: 2, Start: base, Dur: 120_000, Epoch: 1},
		{Kind: "send", Rank: 1, Start: base + 5_000, Dur: 10_000, Epoch: 1, Flow: 3},
		{Kind: "recv", Rank: 2, Start: base + 20_000, Dur: 30_000, Epoch: 1, Flow: 3},
	}); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.json")
	if err := obs.WriteTrace(empty, []obs.Event{{Kind: "member-lost", Start: base}}); err != nil {
		t.Fatal(err)
	}
	run := func(args ...string) ([]byte, int) {
		out, err := exec.Command(bin, args...).Output()
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return out, ee.ExitCode()
		}
		if err != nil {
			t.Fatalf("hpftrace %v: %v", args, err)
		}
		return out, 0
	}

	out, code := run("-json", spans)
	if code != 0 {
		t.Fatalf("-json exited %d", code)
	}
	var report struct {
		MaxCriticalPathNS int64   `json:"max_critical_path_ns"`
		MaxSkewRatio      float64 `json:"max_skew_ratio"`
		StragglerRank     int     `json:"straggler_rank"`
	}
	if err := json.Unmarshal(out, &report); err != nil {
		t.Fatalf("-json output: %v\n%s", err, out)
	}
	if report.MaxCriticalPathNS != 40_000 || report.MaxSkewRatio != 1.5 || report.StragglerRank != 2 {
		t.Errorf("-json report = %+v, want path 40000ns, skew 1.5, straggler 2", report)
	}
	if _, code := run("-gate", spans); code != 0 {
		t.Errorf("-gate on a trace with a critical path exited %d, want 0", code)
	}
	if _, code := run("-gate", empty); code != 1 {
		t.Errorf("-gate on a trace with no spans exited %d, want 1", code)
	}
	if _, code := run(); code != 2 {
		t.Errorf("no arguments exited %d, want 2", code)
	}
}
