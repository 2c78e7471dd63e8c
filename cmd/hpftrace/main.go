// Command hpftrace analyzes a recorded (possibly merged,
// multi-process) trace file: it reconstructs each epoch's critical
// path from the causal send/recv flow IDs, computes per-worker skew,
// and names the straggler rank.
//
//	hpftrace run.trace            # human report, top 5 critical paths
//	hpftrace -top 3 run.trace     # fewer paths
//	hpftrace -json run.trace      # machine-readable report
//	hpftrace -gate run.trace      # exit 1 unless a critical path and
//	                              # a nonzero skew ratio were found
//
// The input is the Chrome trace-event JSON written by hpfrun -trace
// (or obs.WriteTrace / obs.MergeTraces).
package main

import (
	"flag"
	"fmt"
	"os"

	"hpfnt/internal/obs"
	"hpfnt/internal/obs/analyze"
)

func main() {
	top := flag.Int("top", 5, "print the critical paths of the top N epochs")
	asJSON := flag.Bool("json", false, "emit the report as JSON")
	gate := flag.Bool("gate", false, "exit nonzero unless a critical path and a nonzero skew ratio were found")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: hpftrace [-top N] [-json] [-gate] trace.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	events, err := obs.ReadTraceEvents(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpftrace:", err)
		os.Exit(1)
	}
	report := analyze.FromEvents(events)
	if *asJSON {
		data, err := report.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "hpftrace:", err)
			os.Exit(1)
		}
		os.Stdout.Write(append(data, '\n'))
	} else {
		fmt.Print(report.Text(*top))
	}
	if *gate {
		if report.MaxCriticalPathNS <= 0 {
			fmt.Fprintln(os.Stderr, "hpftrace: gate failed: no epoch critical path found")
			os.Exit(1)
		}
		if report.MaxSkewRatio <= 0 {
			fmt.Fprintln(os.Stderr, "hpftrace: gate failed: no skew ratio found (no worker spans?)")
			os.Exit(1)
		}
	}
}
