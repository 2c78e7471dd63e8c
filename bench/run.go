package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hpfnt/hpf"
	"hpfnt/internal/engine"
	"hpfnt/internal/interp"
	"hpfnt/internal/machine"
	"hpfnt/internal/transport"
)

// sample is what one operation — one whole program run on a fresh
// hpf.Program — yields.
type sample struct {
	setup, run time.Duration
	output     string // the PRINT lines
	reportLine string // the logical report as hpfrun -report prints it
	job        bool   // ran as a multi-process job: report and wire are not filled
	report     machine.Report
	wire       transport.WireStats
	hits, miss int64                // interp schedule-cache deltas over the body
	phase      machine.PhaseSeconds // the body's share; zero unless obs timing is on
	filled     int                  // elements the prologue materialised and filled
	allocMB    float64              // allocated during the body (traced pass only)
	heapMB     float64              // heap held when the body ends (traced pass only)
}

// limits lifts the interpreter's statement budget above the longest
// loop any workload runs; the element cap keeps its default.
var limits = interp.Options{MaxStatements: 1 << 26}

// newProgram builds a fresh hpf.Program with the inputs applied, on
// the spmd engine over a transport of the given kind that the harness
// owns, so it can read the wire's physical counters. Closing the
// program closes the engine and the transport.
func newProgram(in *inputs, wire string) (*hpf.Program, transport.Transport, error) {
	tr, err := transport.New(wire, in.params["NP"])
	if err != nil {
		return nil, nil, err
	}
	eng, err := engine.NewSPMDOn(tr, machine.DefaultCost()) // closes tr on error
	if err != nil {
		return nil, nil, err
	}
	prog, err := hpf.NewProgramOn("main", eng)
	if err != nil {
		eng.Close()
		return nil, nil, err
	}
	interp.Config{Params: in.params, ParamArrays: in.arrays}.Apply(prog)
	return prog, tr, nil
}

// runProgram executes the workload's program in this process as two
// Interp.Run calls: prologue, then body. setup covers engine construction and the prologue. Spans are
// recorded under parent when the pass is traced.
func runProgram(w *workload, in *inputs, wire string, parent *span) (sample, error) {
	var s sample
	prologue, body, err := w.source()
	if err != nil {
		return s, err
	}
	traced := parent != nil

	runtime.GC()
	sp := parent.child("prologue")
	t0 := time.Now()
	prog, tr, err := newProgram(in, wire)
	if err != nil {
		return s, err
	}
	defer prog.Close()
	ip := interp.NewWith(prog, limits)
	pre, err := ip.Run(prologue)
	if err != nil {
		return s, err
	}
	s.setup = time.Since(t0)
	sp.end()

	var m0, m1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
	}
	h0, c0 := interp.CacheStats()
	sp = parent.child("body")
	t1 := time.Now()
	res, err := ip.Run(body)
	s.run = time.Since(t1)
	sp.end()
	if err != nil {
		return s, err
	}
	h1, c1 := interp.CacheStats()
	s.hits, s.miss = h1-h0, c1-c0
	if traced {
		runtime.ReadMemStats(&m1)
		s.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		s.heapMB = float64(m1.HeapSys-m1.HeapReleased) / (1 << 20)
	}
	s.output = res.Output
	s.report = res.Report
	s.reportLine = reportLine(res.Report)
	s.phase = machine.PhaseSeconds{
		Compute:     res.Report.Phase.Compute - pre.Report.Phase.Compute,
		GhostWait:   res.Report.Phase.GhostWait - pre.Report.Phase.GhostWait,
		BarrierWait: res.Report.Phase.BarrierWait - pre.Report.Phase.BarrierWait,
		Reduce:      res.Report.Phase.Reduce - pre.Report.Phase.Reduce,
	}
	for _, v := range pre.Values {
		s.filled += len(v)
	}
	if wc, ok := tr.(transport.WireCounter); ok {
		s.wire = wc.Wire()
	}
	return s, nil
}

// reportLine is what hpfrun -report prints after the program output.
func reportLine(r machine.Report) string { return fmt.Sprintf("report: %s\n", r.Logical()) }

// launchJob runs the workload's program once as a real 2-process
// job — hpfrun spawns its peer, the two rendezvous over the wire and
// interpret the program in lockstep — and returns what the leader
// printed after its job line, and the wall of the whole invocation.
func launchJob(w *workload, in *inputs, hpfrun string) (string, time.Duration, error) {
	cmd := exec.Command(hpfrun, "-spawn", "-procs", "2", "-np", strconv.Itoa(in.params["NP"]),
		"-transport", w.wire, "-noverify", "-report", "-max-statements", strconv.Itoa(limits.MaxStatements),
		"-param", in.paramFlag(), w.path())
	// Each member hosts one rank; keep the job on as many cores as
	// the in-process workloads use.
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	d := time.Since(t0)
	if err != nil {
		return "", d, fmt.Errorf("%s: %v: %s", hpfrun, err, strings.TrimSpace(stderr.String()))
	}
	out := stdout.String()
	if k := strings.IndexByte(out, '\n'); k >= 0 && strings.HasPrefix(out, "hpfrun[0]:") {
		out = out[k+1:]
	}
	return out, d, nil
}

// runJob is one operation of a job workload. setup is the wall of the
// whole invocation at ITERS=0, run the wall of the full invocation — a
// multi-process user pays spawn and rendezvous on every run.
func runJob(w *workload, in *inputs, hpfrun string) (sample, error) {
	s := sample{job: true}
	var err error
	if _, s.setup, err = launchJob(w, in.with("ITERS", 0), hpfrun); err != nil {
		return s, err
	}
	out, run, err := launchJob(w, in, hpfrun)
	s.run = run
	if k := strings.Index(out, "report:"); k >= 0 {
		s.output, s.reportLine = out[:k], out[k:]
	} else if err == nil {
		err = fmt.Errorf("%s printed no report line:\n%s", hpfrun, out)
	}
	return s, err
}

// oracle is what every operation of one invocation is checked against.
type oracle struct {
	values    []float64     // the reference kernel's PRINT values
	kernel    time.Duration // the reference kernel's wall: the serial baseline
	counts    counts        // expected Report.Logical() counts
	hasCounts bool
	// bytes is the exact output of the same program run in-process on
	// the inproc wire, with its report line: the cross-wire check of
	// the tcp, shm and job workloads. Empty on inproc workloads.
	bytes string
}

// newOracle runs the reference kernel and, for a workload on another
// wire than inproc, the in-process inproc run its bytes must match.
func newOracle(w *workload, in *inputs) (*oracle, error) {
	t0 := time.Now()
	o := &oracle{values: w.kernel.run(in)}
	o.kernel = time.Since(t0)
	o.counts, o.hasCounts = w.expected(in)
	if w.wire == transport.Inproc && !w.job {
		return o, nil
	}
	s, err := runProgram(w, in, transport.Inproc, nil)
	if err != nil {
		return nil, fmt.Errorf("inproc reference run: %w", err)
	}
	if err := o.check(s); err != nil {
		return nil, fmt.Errorf("inproc reference run: %w", err)
	}
	o.bytes = s.output + s.reportLine
	return o, nil
}

// check verifies one operation: PRINT values against the reference
// kernel, logical counts against the expected ones, and output bytes
// against the inproc run.
func (o *oracle) check(s sample) error {
	got, err := printValues(s.output)
	if err != nil {
		return err
	}
	if len(got) != len(o.values) {
		return fmt.Errorf("program printed %d values, reference has %d", len(got), len(o.values))
	}
	for i, want := range o.values {
		if math.Abs(got[i]-want) > 1e-9*math.Abs(want) {
			return fmt.Errorf("PRINT %d: program %.17g, reference %.17g", i+1, got[i], want)
		}
	}
	if r := s.report; !s.job && o.hasCounts {
		if c := (counts{r.Messages, r.ElementsMoved, r.LocalRefs, r.RemoteRefs}); c != o.counts {
			return fmt.Errorf("logical counts %+v, expected %+v", c, o.counts)
		}
	}
	if full := s.output + s.reportLine; o.bytes != "" && full != o.bytes {
		return fmt.Errorf("output differs from the inproc run:\n%s--- inproc:\n%s", full, o.bytes)
	}
	return nil
}

// printValues extracts the numbers of the "NAME = value" PRINT lines.
func printValues(out string) ([]float64, error) {
	var vals []float64
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		k := strings.LastIndex(line, " = ")
		if k < 0 {
			return nil, fmt.Errorf("unexpected output line %q", line)
		}
		v, err := strconv.ParseFloat(line[k+3:], 64)
		if err != nil {
			return nil, fmt.Errorf("output line %q: %v", line, err)
		}
		vals = append(vals, v)
	}
	return vals, nil
}
