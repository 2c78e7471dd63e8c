// Command hpfbench runs the paper-reproduction experiments E1–E13
// (see README.md for the per-experiment index) and prints, for each,
// the measurement table and the pass/fail verdicts of the paper's
// claims. Usage:
//
//	hpfbench                       # run all experiments
//	hpfbench E2 E4                 # run selected experiments
//	hpfbench -list                 # list experiment ids and titles
//	hpfbench -engine spmd          # run on the parallel SPMD engine
//	hpfbench -transport shm        # spmd wire: inproc channels, shm rings or tcp sockets
//	hpfbench -cpuprofile cpu.out   # write a pprof CPU profile
//	hpfbench -memprofile mem.out   # write a pprof heap profile
//	hpfbench -trace out.json       # write a Chrome trace of the run
//
// The profiles cover the experiment runs only, so hot-path
// regressions in the mapping and schedule kernels can be diagnosed
// with `go tool pprof`. Timings of the executor's layers live in the
// bench/ module, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"hpfnt/internal/engine"
	"hpfnt/internal/exper"
	"hpfnt/internal/obs"
)

var (
	list       = flag.Bool("list", false, "list experiments without running them")
	engineKind = flag.String("engine", engine.Default, "execution backend: sim (sequential dispatch) or spmd (parallel workers)")
	transportK = flag.String("transport", engine.DefaultTransport, "spmd message transport: inproc (buffered channels), shm (shared-memory rings) or tcp (localhost sockets)")
	cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file")
	traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON of the run (epoch/reduce/remap/checkpoint spans; open in Perfetto) and enable phase timers")
)

func main() {
	// The profile writers run in deferred calls, so the exit code is
	// decided inside run and applied only after they complete.
	os.Exit(run())
}

func run() int {
	flag.Parse()
	if err := engine.SetDefault(*engineKind); err != nil {
		fmt.Fprintf(os.Stderr, "hpfbench: %v\n", err)
		return 1
	}
	if err := engine.SetDefaultTransport(*transportK); err != nil {
		fmt.Fprintf(os.Stderr, "hpfbench: %v\n", err)
		return 1
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpfbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "hpfbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *traceOut != "" {
		// Timers on, recorder live: every experiment's epoch, reduce,
		// remap and checkpoint spans land in one single-process trace.
		obs.EnableTiming(true)
		obs.StartTrace(0, 1<<16)
		defer func() {
			rec := obs.StopTrace()
			if rec == nil {
				return
			}
			events := rec.Snapshot()
			if err := obs.WriteTrace(*traceOut, events); err != nil {
				fmt.Fprintf(os.Stderr, "hpfbench: -trace: %v\n", err)
				return
			}
			fmt.Printf("trace: wrote %d events to %s (open in Perfetto)\n", len(events), *traceOut)
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hpfbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "hpfbench: -memprofile: %v\n", err)
			}
		}()
	}
	if *list {
		for _, e := range exper.Registry() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return 0
	}
	// Select before running (and before profiling starts mattering):
	// only the named experiments execute, so -cpuprofile/-memprofile
	// cover exactly the chosen hot paths.
	known := map[string]bool{}
	for _, e := range exper.Registry() {
		known[strings.ToUpper(e.ID)] = true
	}
	sel := map[string]bool{}
	for _, a := range flag.Args() {
		if !known[strings.ToUpper(a)] {
			fmt.Fprintf(os.Stderr, "hpfbench: unknown experiment id %q (see -list)\n", a)
			return 1
		}
		sel[strings.ToUpper(a)] = true
	}
	failed := 0
	for _, e := range exper.Registry() {
		if len(sel) > 0 && !sel[strings.ToUpper(e.ID)] {
			continue
		}
		r, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpfbench: %s: %v\n", e.ID, err)
			return 1
		}
		fmt.Println(r.Render())
		if !r.Passed() {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "hpfbench: %d experiment(s) had failing checks\n", failed)
		return 1
	}
	return 0
}
