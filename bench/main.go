// Command bench is the repository's program-level benchmark: it runs
// whole .hpf programs through internal/interp on the spmd engine at
// np=2, checks every run against a plain Go reference kernel, and
// reports end-to-end (setup_s, run_s) and per-layer metrics. It runs
// from this directory; see README.md.
//
//	bench -workload NAME -seed N -seconds S -trace 0|1   one pass of one workload,
//	                                                     result as one JSON line
//	bench -all -out results/X.json                       both passes of every workload
//	bench -compare a.json b.json                         two result sets under the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (one invocation measures one workload)")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 12, "how long the untraced pass measures")
	trace := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	all := fs.Bool("all", false, "run both passes of every workload and print every metric")
	outPath := fs.String("out", "", "with -all: write the result set to this file")
	runs := fs.Int("runs", 5, "with -all: untraced runs per workload, each with the next seed")
	cmp := fs.Bool("compare", false, "compare two result sets: bench -compare a.json b.json")
	scale := fs.String("scale", scaleFull, "problem sizes: full or smoke")
	buildDir := fs.String("build-dir", "../.bench_build", "where the hpfrun binary of the job workload is built")
	specPath := fs.String("spec", "../BENCHMARK.json", "the benchmark's contract: metric names, units and bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cmp {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return runCompare(fs.Arg(0), fs.Arg(1), *specPath, out)
	}
	useCores()
	h := &harness{scale: *scale, buildDir: *buildDir, traceDir: "out"}
	if *all {
		if *runs < 1 {
			return fmt.Errorf("-runs must be at least 1")
		}
		set, err := h.suite(*seed, *seconds, *runs, out)
		if *outPath != "" && set != nil {
			if werr := set.write(*outPath); werr != nil && err == nil {
				err = werr
			}
		}
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *trace != 0 {
		res, err := h.traced(w, *seed)
		if err != nil {
			return err
		}
		return printLine(out, res.Attempted, res.Failed, res.Metrics)
	}
	res, err := h.measure(w, *seed, *seconds)
	if err != nil {
		return err
	}
	return printLine(out, res.Attempted, res.Failed, metrics{
		"setup_s": {res.Setup.Median, "s"},
		"run_s":   {res.Run.Median, "s"},
	})
}

func runCompare(pathA, pathB, specPath string, out io.Writer) error {
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return err
	}
	worse, unresolved := compare(a, b, sp, out)
	fmt.Fprintf(out, "%d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		return fmt.Errorf("%d rows are worse by more than their bound", worse)
	}
	return nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printLine prints the one-line JSON result the driver reads as the
// last line of standard output.
func printLine(out io.Writer, attempted, failed int, m metrics) error {
	b, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": m,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}
