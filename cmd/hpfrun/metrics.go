package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"

	"hpfnt/internal/ckpt"
	"hpfnt/internal/elastic"
	"hpfnt/internal/engine"
	"hpfnt/internal/interp"
	"hpfnt/internal/machine"
	"hpfnt/internal/obs"
	"hpfnt/internal/obs/analyze"
	"hpfnt/internal/transport"
)

// traceRec is the live trace recorder when -trace is on; the skew
// monitor snapshots it at scrape time for the critical-path gauge.
var traceRec *obs.Recorder

// liveJob is what the /metrics endpoint scrapes: the job's current
// engine, transport and spill directory, swapped in as the
// elastic driver dials and prepares each attempt. Scrape handlers
// read a consistent snapshot under the mutex and then call only
// any-goroutine-safe accessors (engine.LocalDetail, transport.Status,
// WireCounter.Wire, HeartbeatStats.Staleness) — never collectives.
type liveJob struct {
	mu  sync.Mutex
	eng engine.Engine
	tr  transport.Transport
	dir string
}

var live liveJob

func (l *liveJob) setTransport(tr transport.Transport) {
	l.mu.Lock()
	l.tr = tr
	l.mu.Unlock()
}

func (l *liveJob) setEngine(eng engine.Engine, dir string) {
	l.mu.Lock()
	l.eng = eng
	l.dir = dir
	l.mu.Unlock()
}

func (l *liveJob) snapshot() (engine.Engine, transport.Transport, string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.eng, l.tr, l.dir
}

// one wraps a single unlabeled sample.
func one(v float64) []obs.Sample { return []obs.Sample{{Value: v}} }

// serveMetrics builds the process's metric registry, binds addr and
// serves /metrics (Prometheus text exposition) plus /debug/pprof.
// The returned function runs the end-of-job self-scrape — fetch the
// live endpoint over HTTP, validate the exposition text, shut the
// server down — and returns an exit code, so a run with -http is
// itself the CI smoke for the endpoint.
func serveMetrics(addr string) (func() int, error) {
	root := obs.NewRegistry()
	// Every job-level family is registered through a per-job scoped
	// view, so a future multi-tenant daemon can host several jobs'
	// families side by side in one exposition without touching any of
	// the collector closures below.
	reg, err := root.WithLabels("job", *jobName)
	if err != nil {
		return nil, err
	}
	var regErr error
	add := func(err error) {
		if regErr == nil {
			regErr = err
		}
	}

	detail := func() machine.Detail {
		eng, _, _ := live.snapshot()
		if eng == nil {
			return machine.Detail{}
		}
		return eng.LocalDetail()
	}

	add(reg.Counter("hpfnt_messages_total", "Logical messages charged by the cost model (this process's share).", nil,
		func() []obs.Sample { return one(float64(detail().Report.Messages)) }))
	add(reg.Counter("hpfnt_elements_moved_total", "Array elements moved between workers (this process's share).", nil,
		func() []obs.Sample { return one(float64(detail().Report.ElementsMoved)) }))
	add(reg.Counter("hpfnt_local_refs_total", "Locally satisfied array references.", nil,
		func() []obs.Sample { return one(float64(detail().Report.LocalRefs)) }))
	add(reg.Counter("hpfnt_remote_refs_total", "Array references that crossed worker boundaries.", nil,
		func() []obs.Sample { return one(float64(detail().Report.RemoteRefs)) }))
	add(reg.Counter("hpfnt_wire_frames_total", "Physical frames after schedule-level coalescing (this process's share).", nil,
		func() []obs.Sample { return one(float64(detail().WireFrames)) }))
	add(reg.Gauge("hpfnt_worker_load", "Per-worker compute load (cost-model units).", []string{"rank"},
		func() []obs.Sample {
			d := detail()
			out := make([]obs.Sample, 0, len(d.Load))
			for p := 1; p < len(d.Load); p++ {
				out = append(out, obs.Sample{Labels: []string{strconv.Itoa(p)}, Value: float64(d.Load[p])})
			}
			return out
		}))
	add(reg.Counter("hpfnt_pair_messages_total", "Logical messages per (src,dst) worker pair.", []string{"src", "dst"},
		func() []obs.Sample {
			d := detail()
			out := make([]obs.Sample, 0, len(d.Traffic))
			for _, e := range d.Traffic {
				out = append(out, obs.Sample{
					Labels: []string{strconv.Itoa(e.Src), strconv.Itoa(e.Dst)},
					Value:  float64(e.Messages),
				})
			}
			return out
		}))
	add(reg.Counter("hpfnt_pair_elements_total", "Elements moved per (src,dst) worker pair.", []string{"src", "dst"},
		func() []obs.Sample {
			d := detail()
			out := make([]obs.Sample, 0, len(d.Traffic))
			for _, e := range d.Traffic {
				out = append(out, obs.Sample{
					Labels: []string{strconv.Itoa(e.Src), strconv.Itoa(e.Dst)},
					Value:  float64(e.Elements),
				})
			}
			return out
		}))
	add(reg.Gauge("hpfnt_worker_phase_seconds", "Per-worker wall time by phase (compute, ghost_wait, barrier_wait, reduce, checkpoint).", []string{"rank", "phase"},
		func() []obs.Sample {
			d := detail()
			var out []obs.Sample
			for ph := 0; ph < machine.NumPhases; ph++ {
				vec := d.PhaseNS[ph]
				for p := 1; p < len(vec); p++ {
					if vec[p] == 0 {
						continue
					}
					out = append(out, obs.Sample{
						Labels: []string{strconv.Itoa(p), machine.Phase(ph).String()},
						Value:  float64(vec[p]) / 1e9,
					})
				}
			}
			return out
		}))

	wireStats := func() transport.WireStats {
		_, tr, _ := live.snapshot()
		if wc, ok := tr.(transport.WireCounter); ok {
			return wc.Wire()
		}
		return transport.WireStats{}
	}
	add(reg.Counter("hpfnt_transport_frames_total", "Frames on the physical wire, by direction.", []string{"dir"},
		func() []obs.Sample {
			w := wireStats()
			return []obs.Sample{
				{Labels: []string{"sent"}, Value: float64(w.FramesSent)},
				{Labels: []string{"recv"}, Value: float64(w.FramesRecv)},
			}
		}))
	add(reg.Counter("hpfnt_transport_bytes_total", "Bytes on the physical wire, by direction.", []string{"dir"},
		func() []obs.Sample {
			w := wireStats()
			return []obs.Sample{
				{Labels: []string{"sent"}, Value: float64(w.BytesSent)},
				{Labels: []string{"recv"}, Value: float64(w.BytesRecv)},
			}
		}))
	add(reg.Counter("hpfnt_transport_stalls_total", "Sends that blocked on backpressure (ring/channel full).", nil,
		func() []obs.Sample { return one(float64(wireStats().Stalls)) }))
	add(reg.Gauge("hpfnt_member_alive", "1 while the failure detector believes process is alive.", []string{"proc"},
		func() []obs.Sample {
			_, tr, _ := live.snapshot()
			if tr == nil {
				return nil
			}
			st := tr.Status()
			out := make([]obs.Sample, 0, len(st.Alive))
			for p, up := range st.Alive {
				v := 0.0
				if up {
					v = 1.0
				}
				out = append(out, obs.Sample{Labels: []string{strconv.Itoa(p)}, Value: v})
			}
			return out
		}))
	add(reg.Gauge("hpfnt_heartbeat_staleness_seconds", "Time since the last sign of life from each peer process.", []string{"proc"},
		func() []obs.Sample {
			_, tr, _ := live.snapshot()
			hs, ok := tr.(transport.HeartbeatStats)
			if !ok {
				return nil
			}
			stale := hs.Staleness()
			out := make([]obs.Sample, 0, len(stale))
			for p, d := range stale {
				out = append(out, obs.Sample{Labels: []string{strconv.Itoa(p)}, Value: d.Seconds()})
			}
			return out
		}))
	add(reg.Gauge("hpfnt_generation", "Job generation this process's transport joined at.", nil,
		func() []obs.Sample {
			_, tr, _ := live.snapshot()
			if tr == nil {
				return nil
			}
			return one(float64(tr.Status().Generation))
		}))
	add(reg.Gauge("hpfnt_checkpoint_epoch", "Epoch of the latest published checkpoint (-1 before the first).", nil,
		func() []obs.Sample {
			_, _, dir := live.snapshot()
			if dir == "" {
				return one(-1)
			}
			man, _, err := ckpt.Latest(dir)
			if err != nil {
				return one(-1)
			}
			return one(float64(man.Epoch))
		}))
	add(reg.Counter("hpfnt_recovery_retries_total", "Member-loss recoveries (generation bumps) this process performed.", nil,
		func() []obs.Sample { return one(float64(elastic.Retries())) }))

	// The live skew monitor: every scrape feeds it the current
	// per-worker compute weights (phase nanoseconds when the timers
	// are on, logical load otherwise) and, when tracing, a recorder
	// snapshot for the epoch critical path — the online imbalance
	// signal for counter-driven load balancing.
	mon := obs.NewSkewMonitor()
	skew := func() obs.SkewSample {
		d := detail()
		if d.Report.NP > 0 {
			mon.ObserveWeights(analyze.FromDetail(d).Weights)
		}
		if traceRec != nil {
			mon.ObserveEvents(traceRec.Snapshot())
		}
		return mon.Sample()
	}
	add(reg.Gauge("hpfnt_epoch_skew_ratio", "Per-worker imbalance: max/mean compute weight since the last scrape (1.0 is balanced).", nil,
		func() []obs.Sample { return one(skew().Ratio) }))
	add(reg.Gauge("hpfnt_critical_path_ns", "Length of the latest epoch's critical message/compute chain (0 without -trace).", nil,
		func() []obs.Sample { return one(float64(skew().CriticalPathNS)) }))
	add(reg.Gauge("hpfnt_straggler_rank", "1-based rank of the heaviest worker (0 before the first observation).", nil,
		func() []obs.Sample { return one(float64(skew().Straggler)) }))

	// Process-level families stay on the unscoped root registry.
	add(interp.RegisterMetrics(root))
	if regErr != nil {
		return nil, regErr
	}

	bound, shutdown, err := root.Serve(addr)
	if err != nil {
		return nil, err
	}
	fmt.Printf("hpfrun[%d]: serving /metrics and /debug/pprof on http://%s/\n", *self, bound)
	return func() int {
		defer shutdown()
		resp, err := http.Get("http://" + bound + "/metrics")
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpfrun[%d]: self-scrape: %v\n", *self, err)
			return 1
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpfrun[%d]: self-scrape: %v\n", *self, err)
			return 1
		}
		n, verr := obs.ValidateExposition(body)
		if verr != nil {
			fmt.Fprintf(os.Stderr, "hpfrun[%d]: /metrics is not valid exposition text: %v\n", *self, verr)
			return 1
		}
		fmt.Printf("hpfrun[%d]: /metrics self-scrape valid: %d samples\n", *self, n)
		return 0
	}, nil
}
