package main

import (
	"fmt"
	"time"

	"hpfnt/internal/obs"
	"hpfnt/internal/transport"
)

// layered is the result of one workload's traced pass.
type layered struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   metrics  `json:"metrics"`
	Trace     string   `json:"trace_file"`
	Errors    []string `json:"errors,omitempty"`
}

// traced is the traced pass of one workload: a warm-up and one
// untraced operation as the baseline, one operation with the engine's
// phase timers on, the handwritten twin, the program once at np=1,
// and every layer probe — all under one span tree, written as a
// Chrome trace when the pass ends.
func (h *harness) traced(w *workload, seed int64) (*layered, error) {
	in, err := w.newInputs(h.scale, seed, np)
	if err != nil {
		return nil, err
	}
	or, err := newOracle(w, in)
	if err != nil {
		return nil, err
	}
	res := &layered{Metrics: metrics{}}
	m := res.Metrics
	// verified runs one operation and checks it; a failure is counted
	// and ends the pass, since every later number would rest on it.
	verified := func(op func() (sample, error)) (sample, error) {
		s, err := op()
		if err == nil {
			err = or.check(s)
		}
		res.Attempted++
		if err != nil {
			res.Failed++
			res.Errors = append(res.Errors, err.Error())
		}
		return s, err
	}

	rec := newRecorder(w.name)
	root := rec.root("program")
	var base sample
	for i := 0; i < 2; i++ { // warm-up, then the untraced baseline
		if base, err = verified(func() (sample, error) { return h.operate(w, in, nil) }); err != nil {
			return res, err
		}
	}
	// On another wire than inproc, the same program once more on
	// inproc: what the wire (or the job) adds is the difference.
	inproc := base
	if or.bytes != "" {
		if inproc, err = verified(func() (sample, error) { return runProgram(w, in, transport.Inproc, nil) }); err != nil {
			return res, err
		}
	}
	obs.EnableTiming(true)
	defer obs.EnableTiming(false)
	timed, err := verified(func() (sample, error) { return h.operate(w, in, root) })
	if err != nil {
		return res, err
	}
	m.set("trace.overhead_frac", (timed.run-base.run).Seconds()/base.run.Seconds(), "ratio")

	// The in-situ numbers come from inside the process that runs the
	// program. The job's processes are out of reach, so its in-situ
	// numbers are those of the same program run in this process.
	insitu, wire, body := timed, w.wire, base.run
	if w.job {
		wire, body = transport.Inproc, inproc.run
		if insitu, err = verified(func() (sample, error) { return runProgram(w, in, wire, root) }); err != nil {
			return res, err
		}
	}
	m.set("interp.forall_ns_per_elem", float64(insitu.setup.Nanoseconds())/float64(insitu.filled), "ns/elem")
	m.set("interp.cache_hits", float64(insitu.hits), "count")
	m.set("interp.cache_misses", float64(insitu.miss), "count")
	m.set("machine.msgs", float64(insitu.report.Messages), "count")
	m.set("machine.elems", float64(insitu.report.ElementsMoved), "count")
	m.set("machine.local_refs", float64(insitu.report.LocalRefs), "count")
	m.set("machine.remote_refs", float64(insitu.report.RemoteRefs), "count")
	m.set("mem.alloc_mb", insitu.allocMB, "MB")
	m.set("mem.peak_heap_mb", insitu.heapMB, "MB")
	m.set("wire.frames", float64(insitu.wire.FramesSent), "count")
	m.set("wire.bytes", float64(insitu.wire.BytesSent), "count")
	m.set("wire.stalls", float64(insitu.wire.Stalls), "count")
	ph := insitu.phase
	m.set("phase.compute_s", ph.Compute, "s")
	m.set("phase.ghost_wait_s", ph.GhostWait, "s")
	m.set("phase.barrier_wait_s", ph.BarrierWait, "s")
	m.set("phase.reduce_s", ph.Reduce, "s")
	m.set("phase.unaccounted_frac",
		1-(ph.Compute+ph.GhostWait+ph.BarrierWait+ph.Reduce)/(np*insitu.run.Seconds()), "ratio")

	m.set("wire.share", 1-inproc.run.Seconds()/base.run.Seconds(), "ratio")
	m.set("serial.go_s", or.kernel.Seconds(), "s")
	m.set("serial.ratio", body.Seconds()/or.kernel.Seconds(), "ratio")

	// The handwritten twin: interpretation overhead and layer shares.
	twin, err := runTwin(w, in, wire, root)
	if err != nil {
		return res, fmt.Errorf("handwritten twin: %w", err)
	}
	if twin.output != insitu.output {
		err := fmt.Errorf("handwritten twin printed\n%sthe interpreter\n%s", twin.output, insitu.output)
		res.Failed++
		res.Errors = append(res.Errors, err.Error())
		return res, err
	}
	wall := insitu.run.Seconds()
	m.set("interp.overhead_frac", 1-twin.wall.Seconds()/wall, "ratio")
	layerSum := 0.0
	for _, l := range []struct {
		metric string
		spans  []string
	}{
		{"share.build", []string{spanBuild, spanInspect}},
		{"share.replay", []string{spanReplay}},
		{"share.remap", []string{spanRemap}},
		{"share.collect", []string{spanCollect}},
	} {
		var d time.Duration
		for _, name := range l.spans {
			d += rec.under(twin.body, name)
		}
		layerSum += d.Seconds()
		m.set(l.metric, d.Seconds()/wall, "ratio")
	}
	m.set("closure.ratio", layerSum/wall, "ratio")

	// Strong scaling: the same program text at NP=1.
	in1, err := w.newInputs(h.scale, seed, 1)
	if err != nil {
		return res, err
	}
	sp := root.child("np1")
	one, err := runProgram(w, in1, transport.Inproc, sp)
	sp.end()
	if err == nil {
		err = (&oracle{values: w.kernel.run(in1)}).check(one)
	}
	if err != nil {
		return res, fmt.Errorf("np=1 run: %w", err)
	}
	m.set("scale.np1_s", one.run.Seconds(), "s")
	m.set("scale.par_eff", one.run.Seconds()/(np*body.Seconds()), "ratio")

	frame := 1
	if r := insitu.report; r.Messages > 0 {
		frame = int(r.ElementsMoved / r.Messages)
	}
	sp = root.child("probes")
	err = (&prober{h: h, w: w, in: in, m: m}).all(frame, sp)
	sp.end()
	if err != nil {
		return res, err
	}
	root.end()
	res.Trace, err = rec.write(h.traceDir)
	return res, err
}
