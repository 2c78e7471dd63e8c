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
//	hpfbench -json results.json    # emit per-experiment timings/verdicts
//	hpfbench -repeat 3             # best-of-N timings (stable numbers for regression gating)
//	hpfbench -speedup              # 512² Jacobi replay: sim vs spmd
//	hpfbench -irregular            # sparse CG + edge sweep: schedule-reuse amortization
//	hpfbench -wires                # per-wire micro-benchmarks (latency, ghost exchange, coalescing)
//	hpfbench -cpuprofile cpu.out   # write a pprof CPU profile
//	hpfbench -memprofile mem.out   # write a pprof heap profile
//
// The profiles cover the experiment runs only, so hot-path
// regressions in the mapping and schedule kernels can be diagnosed
// with `go tool pprof`. The -json output is a stable per-experiment
// record (id, title, verdicts, wall-clock) so the bench trajectory
// (BENCH_*.json) can be tracked across PRs; cmd/benchgate compares a
// fresh run against the committed snapshot and fails CI on
// regression (`make bench-gate`).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hpfnt/internal/dist"
	"hpfnt/internal/engine"
	"hpfnt/internal/exper"
	"hpfnt/internal/index"
	"hpfnt/internal/machine"
	"hpfnt/internal/obs"
	"hpfnt/internal/transport"
	"hpfnt/internal/workload"
)

var (
	list       = flag.Bool("list", false, "list experiments without running them")
	engineKind = flag.String("engine", engine.Default, "execution backend: sim (sequential dispatch) or spmd (parallel workers)")
	transportK = flag.String("transport", engine.DefaultTransport, "spmd message transport: inproc (buffered channels), shm (shared-memory rings) or tcp (localhost sockets)")
	jsonOut    = flag.String("json", "", "write a JSON record of per-experiment timings and verdicts to this file (- for stdout)")
	repeat     = flag.Int("repeat", 1, "run each timed section N times and record the best (stable numbers for regression gating)")
	speedup    = flag.Bool("speedup", false, "run the 512² Jacobi schedule-replay speedup comparison (sim vs spmd)")
	irregular  = flag.Bool("irregular", false, "run the irregular workloads (sparse CG gather, mesh edge sweep) and report schedule-reuse amortization")
	wires      = flag.Bool("wires", false, "run the per-wire micro-benchmarks (per-message latency, per-iteration ghost exchange, coalesced frames) over every registered transport")
	cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file")
	traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON of the run (epoch/reduce/remap/checkpoint spans; open in Perfetto) and enable phase timers")
)

// jsonCheck mirrors exper.Check for the JSON record.
type jsonCheck struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// jsonResult is one experiment's record.
type jsonResult struct {
	ID     string      `json:"id"`
	Title  string      `json:"title"`
	Passed bool        `json:"passed"`
	WallMS float64     `json:"wall_ms"`
	Checks []jsonCheck `json:"checks"`
}

// jsonSpeedup records the replay comparison.
type jsonSpeedup struct {
	N       int     `json:"n"`
	NP      int     `json:"np"`
	Iters   int     `json:"iters"`
	SimMS   float64 `json:"sim_ms"`
	SpmdMS  float64 `json:"spmd_ms"`
	Speedup float64 `json:"speedup"`
}

// jsonIrregular records the inspector–executor workloads: the sparse
// CG gather's schedule-reuse amortization (first = inspector + one
// execution, steady = compiled replay) and the mesh edge sweep's
// halo traffic.
type jsonIrregular struct {
	N            int     `json:"n"`
	NNZ          int     `json:"nnz"`
	NP           int     `json:"np"`
	Iters        int     `json:"iters"`
	FirstMS      float64 `json:"first_ms"`
	SteadyMS     float64 `json:"steady_ms"`
	Amortization float64 `json:"amortization"`
	MeshNodes    int     `json:"mesh_nodes"`
	MeshEdges    int     `json:"mesh_edges"`
	MeshMessages int64   `json:"mesh_messages"`
	MeshElements int64   `json:"mesh_elements"`
}

// jsonWire records one transport's micro-benchmarks: the raw
// per-message latency of a rank-pair stream, the per-iteration wall
// of the in-place (non-coalescible) 256² ghost exchange, and the
// physical-vs-logical traffic of one coalesced multi-iteration epoch
// (frames is exact and deterministic: one per active pair).
type jsonWire struct {
	Kind            string  `json:"kind"`
	MsgNS           float64 `json:"msg_ns"`
	GhostIterUS     float64 `json:"ghost_iter_us"`
	CoalesceIters   int     `json:"coalesce_iters"`
	CoalescedFrames int64   `json:"coalesced_frames"`
	LogicalMessages int64   `json:"logical_messages"`
}

// jsonRecord is the full -json payload.
type jsonRecord struct {
	Engine      string         `json:"engine"`
	Transport   string         `json:"transport"`
	GoMaxProcs  int            `json:"gomaxprocs"`
	Repeat      int            `json:"repeat"`
	Experiments []jsonResult   `json:"experiments"`
	Speedup     *jsonSpeedup   `json:"speedup,omitempty"`
	Irregular   *jsonIrregular `json:"irregular,omitempty"`
	Wires       []jsonWire     `json:"wires,omitempty"`
}

// bestOf runs f rep times and returns the smallest duration: timed
// sections record their best-of-N so the committed snapshots (and the
// CI bench gate comparing against them) see scheduler noise, not a
// one-shot outlier.
func bestOf(rep int, f func() (time.Duration, error)) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < rep; i++ {
		d, err := f()
		if err != nil {
			return 0, err
		}
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

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
	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[strings.ToUpper(a)] = true
	}
	sel := map[string]bool{}
	for _, e := range exper.Registry() {
		if want[strings.ToUpper(e.ID)] {
			sel[e.ID] = true
		}
	}
	if len(sel) != len(want) {
		fmt.Fprintf(os.Stderr, "hpfbench: unknown experiment id among %v (see -list)\n", flag.Args())
		return 1
	}
	if *repeat < 1 {
		fmt.Fprintf(os.Stderr, "hpfbench: -repeat must be at least 1, got %d\n", *repeat)
		return 1
	}
	record := jsonRecord{Engine: engine.Default, Transport: engine.DefaultTransport, GoMaxProcs: runtime.GOMAXPROCS(0), Repeat: *repeat}
	failed := 0
	for _, e := range exper.Registry() {
		if len(sel) > 0 && !sel[e.ID] {
			continue
		}
		// Best-of-N: the verdicts are deterministic across repeats
		// (the last result is rendered); only the wall clock varies.
		var r exper.Result
		wall, err := bestOf(*repeat, func() (time.Duration, error) {
			start := time.Now()
			rr, err := e.Run()
			if err != nil {
				return 0, err
			}
			r = rr
			return time.Since(start), nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpfbench: %s: %v\n", e.ID, err)
			return 1
		}
		fmt.Println(r.Render())
		if !r.Passed() {
			failed++
		}
		jr := jsonResult{ID: r.ID, Title: r.Title, Passed: r.Passed(), WallMS: float64(wall.Microseconds()) / 1000}
		for _, c := range r.Checks {
			jr.Checks = append(jr.Checks, jsonCheck{Name: c.Name, Pass: c.Pass, Detail: c.Detail})
		}
		record.Experiments = append(record.Experiments, jr)
	}
	if *speedup {
		sp, err := runSpeedup(*repeat)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpfbench: -speedup: %v\n", err)
			return 1
		}
		record.Speedup = sp
		fmt.Printf("speedup: 512² Jacobi ×%d on %d workers: sim %.1fms, spmd %.1fms (%.2fx, GOMAXPROCS=%d)\n",
			sp.Iters, sp.NP, sp.SimMS, sp.SpmdMS, sp.Speedup, runtime.GOMAXPROCS(0))
	}
	if *irregular {
		ir, err := runIrregular(*repeat)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpfbench: -irregular: %v\n", err)
			return 1
		}
		record.Irregular = ir
		fmt.Printf("irregular: sparse CG %d nnz on %d workers (%s): inspector+execute %.2fms, steady %.3fms/iter (%.1fx amortization)\n",
			ir.NNZ, ir.NP, engine.Default, ir.FirstMS, ir.SteadyMS, ir.Amortization)
		fmt.Printf("irregular: edge sweep %d nodes / %d edges: %d messages, %d halo elements per iteration\n",
			ir.MeshNodes, ir.MeshEdges, ir.MeshMessages, ir.MeshElements)
	}
	if *wires {
		ws, err := runWires(*repeat)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpfbench: -wires: %v\n", err)
			return 1
		}
		record.Wires = ws
		for _, w := range ws {
			fmt.Printf("wire %-8s %8.1f ns/msg   ghost in-place %7.1f µs/iter   coalesced ×%d epoch: %d frames / %d logical messages\n",
				w.Kind+":", w.MsgNS, w.GhostIterUS, w.CoalesceIters, w.CoalescedFrames, w.LogicalMessages)
		}
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, record); err != nil {
			fmt.Fprintf(os.Stderr, "hpfbench: -json: %v\n", err)
			return 1
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "hpfbench: %d experiment(s) had failing checks\n", failed)
		return 1
	}
	return 0
}

// runSpeedup times the 512² row-blocked Jacobi schedule replay on
// both backends, best-of-rep per backend.
func runSpeedup(rep int) (*jsonSpeedup, error) {
	const n, np, iters = 512, 8, 20
	wall := func(kind string) (time.Duration, error) {
		eng, err := engine.New(kind, np, machine.DefaultCost())
		if err != nil {
			return 0, err
		}
		defer eng.Close()
		am, err := workload.BlockRowMapping(n, np)
		if err != nil {
			return 0, err
		}
		bm, err := workload.BlockRowMapping(n, np)
		if err != nil {
			return 0, err
		}
		if _, err := workload.JacobiReplay(eng, n, 1, am, bm); err != nil {
			return 0, err
		}
		return bestOf(rep, func() (time.Duration, error) {
			start := time.Now()
			if _, err := workload.JacobiReplay(eng, n, iters, am, bm); err != nil {
				return 0, err
			}
			return time.Since(start), nil
		})
	}
	simD, err := wall(engine.Sim)
	if err != nil {
		return nil, err
	}
	spmdD, err := wall(engine.SPMD)
	if err != nil {
		return nil, err
	}
	return &jsonSpeedup{
		N: n, NP: np, Iters: iters,
		SimMS:   float64(simD.Microseconds()) / 1000,
		SpmdMS:  float64(spmdD.Microseconds()) / 1000,
		Speedup: float64(simD) / float64(spmdD),
	}, nil
}

// runIrregular runs the inspector–executor workloads on the selected
// engine: the 64k-nonzero sparse CG gather timed for schedule-reuse
// amortization (best-of-rep on both the first-iteration and
// steady-state walls), and the mesh edge sweep for its deterministic
// halo-traffic record (counted once).
func runIrregular(rep int) (*jsonIrregular, error) {
	const n, nnz, np, iters = 8192, 65536, 8, 50
	sys := workload.SparseMatrix(n, nnz, 23)
	var first, steady float64
	for i := 0; i < rep; i++ {
		f, s, err := workload.IrregularAmortization(engine.Default, sys, np, iters)
		if err != nil {
			return nil, err
		}
		if i == 0 || f < first {
			first = f
		}
		if i == 0 || s < steady {
			steady = s
		}
	}
	const meshN, chords = 4096, 2048
	mesh := workload.RingMesh(meshN, chords, 29)
	eng, err := engine.New(engine.Default, np, machine.DefaultCost())
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	valMap, err := workload.Rank1Mapping(meshN, np, dist.Block{})
	if err != nil {
		return nil, err
	}
	accMap, err := workload.PartitionMapping(meshN, np, 31)
	if err != nil {
		return nil, err
	}
	mrep, err := workload.EdgeSweep(eng, mesh, 1, valMap, accMap)
	if err != nil {
		return nil, err
	}
	return &jsonIrregular{
		N: n, NNZ: nnz, NP: np, Iters: iters,
		FirstMS: first, SteadyMS: steady, Amortization: first / steady,
		MeshNodes: meshN, MeshEdges: len(mesh.U),
		MeshMessages: mrep.Messages, MeshElements: mrep.ElementsMoved,
	}, nil
}

// runWires runs the per-wire micro-benchmarks over every registered
// transport (best-of-rep on the timed sections). These are the
// numbers behind the tentpole's acceptance gates: shm's per-message
// latency must stay ≥5× below tcp's, and the coalesced frame count is
// exact (one per active pair), both enforced by cmd/benchgate.
func runWires(rep int) ([]jsonWire, error) {
	out := make([]jsonWire, 0, len(transport.Kinds()))
	for _, kind := range transport.Kinds() {
		w, err := wireBench(kind, rep)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", kind, err)
		}
		out = append(out, w)
	}
	return out, nil
}

// wireBench measures one transport: a 16-element message bounced on a
// single rank-pair stream, the in-place (per-iteration) 256² ghost
// exchange, and the frames-vs-messages count of a coalesced epoch.
func wireBench(kind string, rep int) (jsonWire, error) {
	const (
		msgIters   = 20000
		n, np      = 256, 8
		ghostIters = 50
		coalIters  = 50
	)
	w := jsonWire{Kind: kind, CoalesceIters: coalIters}

	// Raw per-message stream latency.
	msgBest, err := bestOf(rep, func() (time.Duration, error) {
		tr, err := transport.New(kind, 2)
		if err != nil {
			return 0, err
		}
		defer tr.Close()
		msg := make([]float64, 16)
		start := time.Now()
		for i := 0; i < msgIters; i++ {
			tr.Send(1, 2, msg)
			if got := tr.Recv(1, 2); len(got) != len(msg) {
				return 0, fmt.Errorf("message truncated to %d elements", len(got))
			}
		}
		return time.Since(start), nil
	})
	if err != nil {
		return w, err
	}
	w.MsgNS = float64(msgBest.Nanoseconds()) / msgIters

	eng, err := engine.NewOn(engine.SPMD, kind, np, machine.DefaultCost())
	if err != nil {
		return w, err
	}
	defer eng.Close()
	am, err := workload.BlockRowMapping(n, np)
	if err != nil {
		return w, err
	}
	bm, err := workload.BlockRowMapping(n, np)
	if err != nil {
		return w, err
	}
	a, err := eng.NewArray("A", am)
	if err != nil {
		return w, err
	}
	a.Fill(func(t index.Tuple) float64 { return float64((t[0]*t[1])%97) * 1e-4 })
	b, err := eng.NewArray("B", bm)
	if err != nil {
		return w, err
	}
	interior := index.Standard(2, n-1, 2, n-1)
	terms := []engine.Term{
		engine.Read(a, 0.25, -1, 0), engine.Read(a, 0.25, 1, 0),
		engine.Read(a, 0.25, 0, -1), engine.Read(a, 0.25, 0, 1),
	}

	// In-place sweep (A <- A): every iteration ships fresh ghosts, so
	// the per-iteration wall carries the wire's real per-message cost.
	inplace, err := a.NewSchedule(interior, terms)
	if err != nil {
		return w, err
	}
	if err := inplace.Execute(); err != nil {
		return w, err
	}
	ghostBest, err := bestOf(rep, func() (time.Duration, error) {
		start := time.Now()
		if err := inplace.ExecuteN(ghostIters); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	})
	if err != nil {
		return w, err
	}
	w.GhostIterUS = float64(ghostBest.Microseconds()) / ghostIters

	// Coalesced epoch (B <- A): ghost data is epoch-invariant, so the
	// whole multi-iteration epoch ships one frame per active pair while
	// the cost model still charges pairs × iterations logical messages.
	coal, err := b.NewSchedule(interior, terms)
	if err != nil {
		return w, err
	}
	eng.Reset()
	if err := coal.ExecuteN(coalIters); err != nil {
		return w, err
	}
	w.CoalescedFrames = eng.Machine().WireFrames()
	w.LogicalMessages = eng.Stats().Messages
	return w, nil
}

// writeJSON writes the record to path ("-" for stdout).
func writeJSON(path string, record jsonRecord) error {
	data, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
