// Command hpfnode is the multi-process SPMD worker daemon: N
// processes join a named job over a real inter-process wire — tcp
// (length-prefixed frames over localhost sockets, handshake carrying
// process rank range and job generation) or shm (lock-free
// shared-memory rings in one mmap'd file) — and execute the same
// deterministic workloads the in-process engine runs: each process
// hosts its block of the abstract processors, array values live only
// on their hosting process, and ghost, remap, reduction and
// irregular-gather traffic crosses the wire. Usage:
//
//	# one command: spawn a 4-process job on localhost and verify it
//	hpfnode -spawn -procs 4 -np 8 -workload all
//
//	# same job over shared-memory rings instead of sockets
//	hpfnode -spawn -procs 4 -np 8 -transport shm -workload all
//
//	# or launch the processes by hand (e.g. one per terminal/container)
//	hpfnode -job demo -addr 127.0.0.1:9137 -procs 2 -self 0 -np 8 -workload jacobi
//	hpfnode -job demo -addr 127.0.0.1:9137 -procs 2 -self 1 -np 8 -workload jacobi
//
// Every member runs under the elastic recovery driver (package
// elastic): with -checkpoint-every set the job checkpoints its
// distributed arrays at epoch boundaries, and a detected member loss
// (crashed process, frozen host, severed wire) rolls the job back to
// the last checkpoint at a bumped generation instead of killing it.
// The fault path can be exercised for real —
//
//	# SIGKILL worker 2 right after the first checkpoint; the
//	# supervisor respawns it, the job recovers and still verifies
//	hpfnode -spawn -procs 4 -np 8 -workload heat -checkpoint-every 2 \
//	        -retries 4 -kill-proc 2 -heartbeat 25ms
//
// — or deterministically in-process with the chaos wire
// (-chaos-die-proc/-chaos-die-epoch), which tears the victim's
// transport down with no goodbye at a scripted epoch so every other
// member discovers the death through its failure detector.
//
// Process 0 (the leader) binds the rendezvous address, re-runs every
// workload on a single-process in-process engine, and exits non-zero
// unless the distributed run produced identical values and an
// identical machine.Report — the acceptance check that the transport
// (and any recovery along the way) changes where the program runs,
// not what it computes.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"hpfnt/internal/ckpt"
	"hpfnt/internal/elastic"
	"hpfnt/internal/engine"
	"hpfnt/internal/job"
	"hpfnt/internal/machine"
	"hpfnt/internal/obs"
	"hpfnt/internal/transport"
	"hpfnt/internal/workload"
)

var (
	jobName  = flag.String("job", "hpfnt", "job name; all members must agree")
	wire     = flag.String("transport", transport.TCP, "inter-process wire: tcp (localhost sockets) or shm (mmap'd shared-memory rings)")
	addr     = flag.String("addr", "127.0.0.1:0", "tcp leader rendezvous address (host:port); port 0 auto-picks (only useful with -spawn)")
	procs    = flag.Int("procs", 2, "number of OS processes in the job")
	self     = flag.Int("self", 0, "this process's index (0 = leader)")
	np       = flag.Int("np", 8, "abstract processor (worker rank) count, partitioned over the processes")
	wl       = flag.String("workload", "all", "workload to run: jacobi, heat, cg, edgesweep or all")
	size     = flag.Int("n", 64, "problem size")
	iters    = flag.Int("iters", 5, "schedule replay iterations (epochs)")
	gen      = flag.Int("gen", 1, "starting job generation; recovery bumps it, stale-generation workers are refused at the handshake")
	spawn    = flag.Bool("spawn", false, "leader convenience: spawn the other -procs processes of this job on localhost")
	noverify = flag.Bool("noverify", false, "leader: skip the single-process verification run")
	timeout  = flag.Duration("timeout", 30*time.Second, "bootstrap timeout, child-reap bound and per-epoch-chunk watchdog")

	ckptEvery = flag.Int("checkpoint-every", 0, "checkpoint the job's arrays every N epochs (0 = no checkpointing; a member loss then replays from epoch 0)")
	ckptDir   = flag.String("checkpoint-dir", "", "job spill directory for checkpoints and the generation file (default: under the system temp dir, derived from -job)")
	retries   = flag.Int("retries", 0, "recovery attempts (generation bumps) before a member loss is fatal")
	hbEvery   = flag.Duration("heartbeat", 0, "failure-detector heartbeat/liveness-stamp interval (0 = transport default, 250ms)")
	failAfter = flag.Duration("fail-after", 0, "silence after which a member is declared lost (0 = transport default, 8x heartbeat)")

	killProc  = flag.Int("kill-proc", -1, "supervisor (-spawn): SIGKILL this worker process mid-job and respawn a replacement")
	killAfter = flag.Duration("kill-after", 0, "supervisor: kill -kill-proc after this delay (0 = right after the first checkpoint is published)")

	chaosDieProc  = flag.Int("chaos-die-proc", -1, "chaos: this process abruptly kills its transport (no goodbye) at -chaos-die-epoch of the starting generation, then rejoins")
	chaosDieEpoch = flag.Int("chaos-die-epoch", 0, "chaos: epoch at which -chaos-die-proc dies (0 = no chaos)")

	httpAddr  = flag.String("http", "", "serve live Prometheus-text /metrics and /debug/pprof on this address (host:port; port 0 auto-picks); spawned workers bind 127.0.0.1:0")
	tracePath = flag.String("trace", "", "write a Chrome trace-event JSON of the run (open in Perfetto): each process writes <path>.p<self>.json, the leader merges them into <path>")
	verbose   = flag.Bool("verbose", false, "enable phase timers and print the leader's per-worker detail table (load, traffic matrix, phase times) instead of the terse report line")
)

// supervisorFlags mean something only to the process that spawns the
// job; every other flag the user set is forwarded to the workers.
var supervisorFlags = []string{"spawn", "kill-proc", "kill-after"}

func main() { os.Exit(run()) }

func run() int {
	flag.Parse()
	var names []string
	if *wl == "all" {
		names = workload.NodeWorkloads()
	} else {
		names = []string{*wl}
	}
	// Observability: phase timers ride any of the three switches (the
	// verification below compares Logical reports, so measured wall
	// time never perturbs the acceptance check).
	if *verbose || *tracePath != "" || *httpAddr != "" {
		obs.EnableTiming(true)
	}
	if *tracePath != "" {
		traceRec = obs.StartTrace(*self, 1<<14)
	}
	var scrape func() int
	if *httpAddr != "" {
		var err error
		scrape, err = serveMetrics(*httpAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpfnode: -http: %v\n", err)
			return 1
		}
	}
	spill := resolveSpill()
	if err := validateRecoveryFlags(names, spill); err != nil {
		fmt.Fprintf(os.Stderr, "hpfnode: %v\n", err)
		return 1
	}
	rendezvous := *addr
	var sup *job.Supervisor
	jobDone := make(chan struct{})
	if *spawn {
		if *self != 0 {
			fmt.Fprintln(os.Stderr, "hpfnode: -spawn is only valid on the leader (-self 0)")
			return 1
		}
		if spill != "" {
			cleanSpill(spill, names)
		}
		var err error
		if sup, rendezvous, err = launch(rendezvous, spill); err != nil {
			fmt.Fprintf(os.Stderr, "hpfnode: %v\n", err)
			return 1
		}
		if *killProc > 0 {
			go killAndRespawn(sup, *killProc, spillFor(spill, names[0]), jobDone)
		}
	} else if *self == 0 && spill != "" {
		cleanSpill(spill, names)
	}
	code := runMember(rendezvous, spill, names)
	close(jobDone)
	if scrape != nil {
		// Self-scrape while the endpoint is still up: the run fails if
		// its own /metrics does not parse as valid exposition text.
		if c := scrape(); c != 0 && code == 0 {
			code = c
		}
	}
	if sup != nil {
		if code != 0 {
			// Don't leave orphaned workers grinding (or hanging) after
			// the leader has already failed the job.
			sup.KillAll()
		}
		if err := sup.Wait(*timeout); err != nil {
			fmt.Fprintf(os.Stderr, "hpfnode: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}
	if c := finishTrace(); c != 0 && code == 0 {
		code = c
	}
	return code
}

// finishTrace writes this process's trace part and, on the leader
// (after every child has been reaped and has written its own part),
// merges the parts into the final trace file. A missing part is
// tolerated: a SIGKILLed member never wrote one.
func finishTrace() int {
	rec := obs.StopTrace()
	if rec == nil {
		return 0
	}
	part := tracePart(*tracePath, *self)
	if err := obs.WriteTrace(part, rec.Snapshot()); err != nil {
		fmt.Fprintf(os.Stderr, "hpfnode[%d]: writing trace part: %v\n", *self, err)
		return 1
	}
	if *self != 0 {
		return 0
	}
	parts := make([]string, *procs)
	for i := range parts {
		parts[i] = tracePart(*tracePath, i)
	}
	n, err := obs.MergeTraces(*tracePath, parts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpfnode[0]: merging trace: %v\n", err)
		return 1
	}
	fmt.Printf("hpfnode[0]: wrote %d trace events to %s (open in Perfetto)\n", n, *tracePath)
	return 0
}

// tracePart names process idx's trace part file.
func tracePart(base string, idx int) string {
	return fmt.Sprintf("%s.p%d.json", base, idx)
}

// resolveSpill resolves the job's spill directory: the explicit flag,
// or a temp-dir default when checkpointing or kill/chaos recovery is
// requested, or "" when the run needs no spill state at all.
func resolveSpill() string {
	if *ckptDir != "" {
		return *ckptDir
	}
	if *ckptEvery > 0 || *killProc > 0 || *chaosDieEpoch > 0 {
		return filepath.Join(os.TempDir(), "hpfnt-"+*jobName+"-spill")
	}
	return ""
}

// spillFor is the per-workload spill subdirectory ("" stays "").
func spillFor(spill, name string) string {
	if spill == "" {
		return ""
	}
	return filepath.Join(spill, name)
}

// cleanSpill removes stale per-workload spill state (checkpoints and
// generation files) from a previous run of the same job name. Leader
// only, before any member joins.
func cleanSpill(spill string, names []string) {
	for _, name := range names {
		os.RemoveAll(spillFor(spill, name))
	}
}

func validateRecoveryFlags(names []string, spill string) error {
	if *killProc >= 0 {
		if !*spawn {
			return fmt.Errorf("-kill-proc needs -spawn (the supervisor does the killing)")
		}
		if *killProc < 1 || *killProc >= *procs {
			return fmt.Errorf("-kill-proc %d is not a worker index in 1..%d (leader loss is not recoverable)", *killProc, *procs-1)
		}
		if len(names) != 1 {
			return fmt.Errorf("-kill-proc needs a single -workload (the respawned replacement must rejoin the same job)")
		}
		if *retries < 1 {
			return fmt.Errorf("-kill-proc needs -retries >= 1 to recover from the loss")
		}
		if *killAfter <= 0 && *ckptEvery <= 0 {
			return fmt.Errorf("-kill-proc with -kill-after 0 waits for a checkpoint: set -checkpoint-every (or an explicit -kill-after)")
		}
		_ = spill // always non-empty here via resolveSpill
	}
	if *chaosDieEpoch > 0 || *chaosDieProc >= 0 {
		if *chaosDieEpoch <= 0 || *chaosDieProc < 0 {
			return fmt.Errorf("-chaos-die-proc and -chaos-die-epoch must be set together")
		}
		if *chaosDieProc < 1 || *chaosDieProc >= *procs {
			return fmt.Errorf("-chaos-die-proc %d is not a worker index in 1..%d (leader loss is not recoverable)", *chaosDieProc, *procs-1)
		}
		if len(names) != 1 {
			return fmt.Errorf("-chaos-die-proc needs a single -workload")
		}
		if *retries < 1 {
			return fmt.Errorf("-chaos-die-proc needs -retries >= 1 to recover from the scripted death")
		}
	}
	return nil
}

// launch starts the other processes of this job as children of the
// leader, each a re-execution of this binary with the flags the
// user set, and returns their supervisor and the rendezvous address
// they were told.
func launch(rendezvous, spill string) (*job.Supervisor, string, error) {
	bin, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	// The shm wire rendezvouses on the mmap'd file derived from the job
	// name, not on a socket address.
	if *wire == transport.TCP {
		if rendezvous, err = job.ResolveAddr(rendezvous); err != nil {
			return nil, "", err
		}
	}
	set := map[string]string{"addr": rendezvous}
	if spill != "" {
		// The resolved directory: a child cannot re-derive a default
		// that -kill-proc (which it never sees) switched on.
		set["checkpoint-dir"] = spill
	}
	if *httpAddr != "" {
		// Workers auto-pick a port: each process is its own scrape
		// target (per-process /metrics, no cross-process collectives).
		set["http"] = "127.0.0.1:0"
	}
	sup, err := job.Start(*procs, func(idx int) *exec.Cmd {
		set["self"] = strconv.Itoa(idx)
		return job.Command(bin, job.ChildArgs(flag.CommandLine, set, supervisorFlags...)...)
	})
	return sup, rendezvous, err
}

// killAndRespawn is the supervisor-level fault injector: once the
// trigger fires (-kill-after elapsed, or the first checkpoint of the
// workload is published), it has the supervisor SIGKILL worker proc and
// start a replacement process, which learns the current generation
// from the leader's published file and rejoins the recovering job.
func killAndRespawn(sup *job.Supervisor, proc int, wdir string, done <-chan struct{}) {
	if *killAfter > 0 {
		select {
		case <-time.After(*killAfter):
		case <-done:
			return
		}
	} else {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		deadline := time.After(*timeout)
	wait:
		for {
			select {
			case <-done:
				return
			case <-deadline:
				fmt.Fprintln(os.Stderr, "hpfnode: kill trigger: no checkpoint published before timeout")
				return
			case <-tick.C:
				if _, _, err := ckpt.Latest(wdir); err == nil {
					break wait
				}
			}
		}
	}
	select {
	case <-done: // job finished while the trigger was being evaluated
		return
	default:
	}
	if err := sup.Respawn(proc); err != nil {
		fmt.Fprintf(os.Stderr, "hpfnode: %v\n", err)
		return
	}
	fmt.Printf("hpfnode: supervisor sent SIGKILL to worker process %d; respawning a replacement\n", proc)
}

// runMember is one process's life in the job: run each workload under
// the elastic recovery driver in lockstep with the other members, and
// (on the leader) verify against the in-process engine.
func runMember(rendezvous, spill string, names []string) int {
	lo, hi := transport.RanksOf(*np, *procs, *self)
	fmt.Printf("hpfnode[%d]: member of job %q over %s: %d procs, ranks %d..%d of %d, starting generation %d\n",
		*self, *jobName, *wire, *procs, lo, hi, *np, *gen)
	curGen := *gen
	code := 0
	for _, name := range names {
		res, det, eres, err := runWorkload(rendezvous, name, spillFor(spill, name), curGen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpfnode[%d]: %s: %v\n", *self, name, err)
			return 1
		}
		// Recovery bumps the generation job-wide; later workloads of
		// this run continue from the settled one.
		curGen = eres.Generation
		if *self != 0 {
			continue
		}
		if eres.Recovered > 0 {
			fmt.Printf("hpfnode[0]: %-9s survived %d member loss(es): %d attempts, final generation %d, restored epoch %d\n",
				name, eres.Recovered, eres.Attempts, eres.Generation, eres.RestoredEpoch)
		}
		if *verbose {
			fmt.Printf("hpfnode[0]: %-9s n=%d iters=%d:\n%s", name, *size, *iters, det)
		} else {
			fmt.Printf("hpfnode[0]: %-9s n=%d iters=%d: %s\n", name, *size, *iters, res.Report)
		}
		if *noverify {
			continue
		}
		if err := verify(name, res); err != nil {
			fmt.Fprintf(os.Stderr, "hpfnode[0]: %s: VERIFY FAILED: %v\n", name, err)
			code = 1
		} else {
			fmt.Printf("hpfnode[0]: %-9s verified on the %s wire against the in-process engine (values + report identical)\n", name, *wire)
		}
	}
	return code
}

// runWorkload runs one workload fault-tolerantly and returns its
// result, the leader's job-wide detail (zero unless -verbose) and the
// recovery summary. Each attempt's transport and engine are published
// to the live /metrics state as they come up.
func runWorkload(rendezvous, name, wdir string, startGen int) (workload.NodeResult, machine.Detail, elastic.Result, error) {
	var out workload.NodeResult
	var det machine.Detail
	cfg := elastic.Config{
		Dial: func(g int) (transport.Transport, error) {
			tr, err := transport.Join(*wire, transport.Config{
				Job: *jobName, NP: *np, Procs: *procs, Self: *self,
				Generation: g, Addr: rendezvous, Timeout: *timeout,
				Heartbeat: *hbEvery, FailAfter: *failAfter,
			})
			if err == nil {
				live.setTransport(tr)
			}
			return tr, err
		},
		Prepare: func(eng engine.Engine) (elastic.Job, error) {
			live.setEngine(eng, wdir)
			job, err := workload.PrepareNode(eng, name, *size)
			if err != nil {
				return elastic.Job{}, err
			}
			return elastic.Job{
				Arrays: job.Arrays,
				Step:   job.Step,
				Finish: func() error {
					r, err := job.Finish()
					if err != nil {
						return err
					}
					out = r
					if *verbose {
						// Collective, like Stats: every member reaches
						// this same point of its Finish.
						det = eng.Detail()
					}
					return nil
				},
			}, nil
		},
		Cost:            machine.DefaultCost(),
		Self:            *self,
		Iters:           *iters,
		CheckpointEvery: *ckptEvery,
		Dir:             wdir,
		Retries:         *retries,
		StartGen:        startGen,
		EpochTimeout:    *timeout,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "hpfnode[%d]: %s: %s\n", *self, name, fmt.Sprintf(format, args...))
		},
	}
	if *chaosDieEpoch > 0 {
		plan := &transport.ChaosPlan{
			Generation: startGen,
			DieAtEpoch: *chaosDieEpoch, DieProc: *chaosDieProc,
		}
		cfg.Wrap = func(tr transport.Transport, g int) transport.Transport {
			return transport.NewChaos(tr, plan)
		}
	}
	eres, err := elastic.Run(cfg)
	return out, det, eres, err
}

// verify re-runs the workload on a single-process in-process spmd
// engine and demands identical values and an identical machine
// report — recovery included: a job that lost and replaced a member
// mid-run must still land on byte-identical state.
func verify(name string, got workload.NodeResult) error {
	ref, err := engine.NewOn(engine.SPMD, engine.InprocTransport, *np, machine.DefaultCost())
	if err != nil {
		return err
	}
	defer ref.Close()
	want, err := workload.RunNode(ref, name, *size, *iters)
	if err != nil {
		return err
	}
	// Logical counters only: with -verbose or -trace the phase timers
	// charge real (irreproducible) wall time into Report.Phase, which
	// must never fail the equivalence check.
	if got.Report.Logical() != want.Report.Logical() {
		return fmt.Errorf("report mismatch:\n  job        %+v\n  in-process %+v",
			got.Report.Logical(), want.Report.Logical())
	}
	if got.Sum != want.Sum {
		return fmt.Errorf("reduction mismatch: job %g, in-process %g", got.Sum, want.Sum)
	}
	if len(got.Data) != len(want.Data) {
		return fmt.Errorf("value vector length mismatch: job %d, in-process %d", len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			return fmt.Errorf("value mismatch at offset %d: job %g, in-process %g", i, got.Data[i], want.Data[i])
		}
	}
	return nil
}
