// Command benchgate is the CI perf-regression gate: it compares a
// fresh `hpfbench -json` record against the committed snapshot
// (BENCH_8.json) and exits nonzero if the trajectory regressed.
// Usage:
//
//	benchgate -baseline BENCH_8.json -current /tmp/bench.json -tol 1.5
//
// Timed quantities (experiment wall clocks, the spmd replay wall, the
// irregular steady-state wall, per-wire message latency and ghost
// exchange) are gated with a multiplicative tolerance plus a small
// absolute slack, so scheduler noise on sub-millisecond sections
// never trips the gate while a real regression of the committed
// numbers does. Counted quantities are exact: the coalesced frame and
// logical message counts are deterministic, so any drift is a bug,
// not noise. Two structural gates ride along: every experiment
// present in the baseline must still exist and pass, and the shm wire
// must stay at least 5× faster per message than tcp (the tentpole's
// acceptance criterion).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// record mirrors the fields of cmd/hpfbench's jsonRecord that the
// gate consumes; unknown fields are ignored so the formats can grow.
type record struct {
	Engine      string      `json:"engine"`
	Transport   string      `json:"transport"`
	Repeat      int         `json:"repeat"`
	Experiments []result    `json:"experiments"`
	Speedup     *speedupRec `json:"speedup"`
	Irregular   *irregRec   `json:"irregular"`
	Wires       []wireRec   `json:"wires"`
}

type result struct {
	ID     string  `json:"id"`
	Passed bool    `json:"passed"`
	WallMS float64 `json:"wall_ms"`
}

type speedupRec struct {
	SpmdMS  float64 `json:"spmd_ms"`
	Speedup float64 `json:"speedup"`
}

type irregRec struct {
	SteadyMS     float64 `json:"steady_ms"`
	Amortization float64 `json:"amortization"`
}

type wireRec struct {
	Kind            string  `json:"kind"`
	MsgNS           float64 `json:"msg_ns"`
	GhostIterUS     float64 `json:"ghost_iter_us"`
	CoalescedFrames int64   `json:"coalesced_frames"`
	LogicalMessages int64   `json:"logical_messages"`
}

var (
	baselinePath = flag.String("baseline", "BENCH_8.json", "committed snapshot to gate against")
	currentPath  = flag.String("current", "", "fresh hpfbench -json record (required)")
	tol          = flag.Float64("tol", 1.5, "multiplicative tolerance on timed quantities")
)

// Absolute slacks added on top of the multiplicative tolerance: a
// 20µs experiment may double from cache state alone, and that is not
// a regression worth gating.
const (
	slackWallMS = 5.0   // experiment / replay / steady walls
	slackMsgNS  = 300.0 // per-message latency
	slackIterUS = 150.0 // per-iteration ghost exchange
	shmOverTCP  = 5.0   // required tcp/shm per-message ratio
)

func load(path string) (record, error) {
	var r record
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// gate accumulates named pass/fail checks.
type gate struct {
	failed int
}

func (g *gate) check(name string, ok bool, detail string) {
	mark := "ok  "
	if !ok {
		mark = "FAIL"
		g.failed++
	}
	fmt.Printf("%s %-52s %s\n", mark, name, detail)
}

// timed gates a timed quantity: current ≤ baseline × tol + slack.
func (g *gate) timed(name string, base, cur, slack float64, unit string) {
	limit := base**tol + slack
	g.check(name, cur <= limit, fmt.Sprintf("baseline %.3f%s, current %.3f%s, limit %.3f%s", base, unit, cur, unit, limit, unit))
}

// exact gates a deterministic count: current must equal baseline.
func (g *gate) exact(name string, base, cur int64) {
	g.check(name, cur == base, fmt.Sprintf("baseline %d, current %d", base, cur))
}

func main() {
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -current is required")
		os.Exit(2)
	}
	base, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: baseline: %v\n", err)
		os.Exit(2)
	}
	cur, err := load(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: current: %v\n", err)
		os.Exit(2)
	}
	var g gate

	curExp := map[string]result{}
	for _, r := range cur.Experiments {
		curExp[r.ID] = r
	}
	for _, b := range base.Experiments {
		c, ok := curExp[b.ID]
		if !ok {
			g.check(b.ID+" present", false, "experiment missing from current record")
			continue
		}
		g.check(b.ID+" passed", c.Passed, "")
		g.timed(b.ID+" wall", b.WallMS, c.WallMS, slackWallMS, "ms")
	}

	switch {
	case base.Speedup == nil:
		// Baseline has no replay section: nothing to gate.
	case cur.Speedup == nil:
		g.check("speedup present", false, "baseline has a speedup section, current does not")
	default:
		g.timed("speedup spmd wall", base.Speedup.SpmdMS, cur.Speedup.SpmdMS, slackWallMS, "ms")
	}

	switch {
	case base.Irregular == nil:
	case cur.Irregular == nil:
		g.check("irregular present", false, "baseline has an irregular section, current does not")
	default:
		g.timed("irregular steady wall", base.Irregular.SteadyMS, cur.Irregular.SteadyMS, slackWallMS, "ms")
		g.check("irregular amortization",
			cur.Irregular.Amortization >= base.Irregular.Amortization / *tol,
			fmt.Sprintf("baseline %.1fx, current %.1fx, floor %.1fx",
				base.Irregular.Amortization, cur.Irregular.Amortization, base.Irregular.Amortization / *tol))
	}

	curWire := map[string]wireRec{}
	for _, w := range cur.Wires {
		curWire[w.Kind] = w
	}
	for _, b := range base.Wires {
		c, ok := curWire[b.Kind]
		if !ok {
			g.check("wire "+b.Kind+" present", false, "wire missing from current record")
			continue
		}
		g.timed("wire "+b.Kind+" msg latency", b.MsgNS, c.MsgNS, slackMsgNS, "ns")
		g.timed("wire "+b.Kind+" ghost iter", b.GhostIterUS, c.GhostIterUS, slackIterUS, "µs")
		g.exact("wire "+b.Kind+" coalesced frames", b.CoalescedFrames, c.CoalescedFrames)
		g.exact("wire "+b.Kind+" logical messages", b.LogicalMessages, c.LogicalMessages)
	}
	if len(base.Wires) > 0 {
		shm, okS := curWire["shm"]
		tcp, okT := curWire["tcp"]
		if !okS || !okT {
			g.check("shm/tcp ratio", false, "current record lacks shm or tcp wire section")
		} else {
			ratio := tcp.MsgNS / shm.MsgNS
			g.check("shm/tcp ratio", ratio >= shmOverTCP,
				fmt.Sprintf("shm %.1fns vs tcp %.1fns: %.1fx (need ≥%.0fx)", shm.MsgNS, tcp.MsgNS, ratio, shmOverTCP))
		}
	}

	if g.failed > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d check(s) failed against %s (tol %.2fx)\n", g.failed, *baselinePath, *tol)
		os.Exit(1)
	}
	fmt.Printf("benchgate: all checks passed against %s (tol %.2fx)\n", *baselinePath, *tol)
}
