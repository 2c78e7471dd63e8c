// Command hpfrun executes a directive-language program — the paper's
// !HPF$ mapping directives plus the executable statement subset of
// package interp (array assignments over sections, FORALL, bounded DO
// loops, indirection-vector gathers, PRINT) — on any engine and any
// wire, printing the program's PRINT output and, on request, the
// machine report the mapping induced.
//
// Usage:
//
//	hpfrun examples/quickstart.hpf
//	hpfrun -engine spmd -transport shm -report prog.hpf
//	hpfrun -np 8 -param N=64,ITERS=10 -  (program on stdin)
//
//	# the same program as a real 4-process job over localhost sockets,
//	# leader verifies against the in-process engine:
//	hpfrun -spawn -procs 4 -transport tcp prog.hpf
//
//	# checkpoint every 2 iterations of the epoch loop, SIGKILL process 2
//	# after the first checkpoint; the job rolls back, the replacement
//	# rejoins, and the leader still verifies:
//	hpfrun -spawn -procs 3 -transport shm -checkpoint-every 2 -retries 2 \
//	       -heartbeat 25ms -kill-proc 2 prog.hpf
//
// Every member of a job runs under the recovery driver (package
// elastic). A program's epoch loop — its first top-level DO whose body
// holds only array assignments — is where it checkpoints: the
// statements before it are the prologue every attempt re-runs, each
// iteration is an epoch, and the statements after it finish the job.
// -http serves live /metrics on every member, -trace writes a merged
// Chrome trace of the job, and -verbose adds the per-worker detail
// table.
//
// A program file may pin its own defaults with an options line:
//
//	!hpfrun: -np 6 -param N=48,ITERS=5
//
// Explicit flags win over the file's options.
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
	"hpfnt/internal/interp"
	"hpfnt/internal/job"
	"hpfnt/internal/machine"
	"hpfnt/internal/obs"
	"hpfnt/internal/transport"
)

var (
	engineKind = flag.String("engine", "", "execution backend: sim or spmd (default: session default)")
	wire       = flag.String("transport", "", "spmd wire: inproc, shm or tcp (default: session default)")
	np         = flag.Int("np", 0, "abstract processor count (default: the program's !hpfrun: line, else 8)")
	params     = flag.String("param", "", "comma-separated NAME=VALUE integer parameters")
	vienna     = flag.Bool("vienna", false, "use the Vienna Fortran BLOCK definition")
	templates  = flag.Bool("templates", false, "enable the HPF baseline TEMPLATE directive")
	report     = flag.Bool("report", false, "print the logical machine report after the run")
	values     = flag.Bool("values", false, "print per-array element counts and checksums after the run")
	maxStmts   = flag.Int("max-statements", 0, "executed-statement budget (0 = default)")
	maxElems   = flag.Int("max-elems", 0, "per-array element cap (0 = default)")

	spawn    = flag.Bool("spawn", false, "run as a real multi-process job: spawn the other -procs processes on localhost")
	procs    = flag.Int("procs", 2, "number of OS processes in the multi-process job")
	self     = flag.Int("self", 0, "this process's index in the job (0 = leader)")
	jobName  = flag.String("job", "hpfrun", "job name; all members must agree. A checkpointing job needs one of its own: it names the spill directory")
	addr     = flag.String("addr", "127.0.0.1:0", "tcp rendezvous address (port 0 auto-picks; only useful with -spawn)")
	timeout  = flag.Duration("timeout", 30*time.Second, "multi-process bootstrap timeout, child-reap bound and no-progress watchdog")
	noverify = flag.Bool("noverify", false, "leader: skip the in-process verification run")

	ckptEvery = flag.Int("checkpoint-every", 0, "checkpoint the arrays every N iterations of the epoch loop (0 = never: a member loss replays from the start)")
	retries   = flag.Int("retries", 0, "recoveries (generation bumps) before a member loss is fatal")
	hbEvery   = flag.Duration("heartbeat", 0, "failure-detector heartbeat interval (0 = transport default, 250ms)")
	killProc  = flag.Int("kill-proc", -1, "supervisor (-spawn): SIGKILL this process once the first checkpoint is published, and respawn it")
	httpAddr  = flag.String("http", "", "serve live Prometheus-text /metrics and /debug/pprof on this address (port 0 auto-picks); spawned peers bind 127.0.0.1:0")
	tracePath = flag.String("trace", "", "write a Chrome trace-event JSON of the job (open in Perfetto): each process writes <path>.p<self>.json, the leader merges them into <path>")
	verbose   = flag.Bool("verbose", false, "enable phase timers and print the per-worker detail table (load, traffic matrix, phase times) after the output")
)

// supervisorFlags mean something only to the process that spawns the
// job; every other flag the user set is forwarded to the peers.
var supervisorFlags = []string{"spawn", "kill-proc"}

func main() { os.Exit(run()) }

func run() int {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hpfrun [flags] program.hpf  (use - for stdin)")
		return 2
	}
	path := flag.Arg(0)
	src, err := interp.ReadSource(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpfrun: %v\n", err)
		return 1
	}
	cfg := interp.Config{
		Name:      "main",
		NP:        *np,
		Engine:    *engineKind,
		Transport: *wire,
		Vienna:    *vienna,
		Templates: *templates,
		Params:    map[string]int{},
		Limits:    interp.Options{MaxStatements: *maxStmts, MaxElems: *maxElems},
	}
	if err := interp.ParseParams(*params, cfg.Params); err != nil {
		fmt.Fprintf(os.Stderr, "hpfrun: %v\n", err)
		return 1
	}
	if err := interp.ScanFileOptions(src, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "hpfrun: %v\n", err)
		return 1
	}
	if *spawn || *self != 0 {
		if path == "-" {
			fmt.Fprintln(os.Stderr, "hpfrun: a multi-process job needs a program file, not stdin (every process re-reads it)")
			return 1
		}
		return runJob(path, src, cfg)
	}
	if *ckptEvery > 0 || *retries > 0 || *hbEvery > 0 || *killProc >= 0 || *httpAddr != "" || *tracePath != "" || *verbose {
		fmt.Fprintln(os.Stderr, "hpfrun: -checkpoint-every, -retries, -heartbeat, -kill-proc, -http, -trace and -verbose need a multi-process job (-spawn)")
		return 1
	}
	res, err := cfg.Run(src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpfrun: %v\n", err)
		return 1
	}
	printResult(res)
	return 0
}

// printResult writes the program's observable output, then the
// optional report and value summaries.
func printResult(res *interp.Result) {
	fmt.Print(res.Output)
	if *values {
		for _, name := range res.SortedNames() {
			sum := 0.0
			for _, v := range res.Values[name] {
				sum += v
			}
			fmt.Printf("array %s n=%d checksum=%.17g\n", name, len(res.Values[name]), sum)
		}
	}
	if *report {
		fmt.Printf("report: %s\n", res.Report.Logical())
	}
}

// runJob executes the program as a real multi-process spmd job over
// the tcp or shm wire: every process interprets the same statement
// stream in lockstep (replicated control), array values live only on
// their hosting process, and all ghost/remap/gather traffic crosses
// the wire. The leader re-runs the program on the in-process engine
// and demands byte-identical output, values and logical report.
func runJob(path, src string, cfg interp.Config) int {
	if *wire != transport.TCP && *wire != transport.Shm {
		fmt.Fprintf(os.Stderr, "hpfrun: a multi-process job needs -transport tcp or shm (got %q)\n", *wire)
		return 1
	}
	if *procs < 2 {
		fmt.Fprintln(os.Stderr, "hpfrun: -procs must be at least 2")
		return 1
	}
	if *spawn && *self != 0 {
		fmt.Fprintln(os.Stderr, "hpfrun: -spawn is only valid on the leader (-self 0)")
		return 1
	}
	if err := checkRecoveryFlags(src); err != nil {
		fmt.Fprintf(os.Stderr, "hpfrun: %v\n", err)
		return 1
	}
	if cfg.NP == 0 {
		cfg.NP = 8
	}
	// The spill directory holds the checkpoints and the generation file
	// a respawned member learns the job's generation from.
	spill := ""
	if *ckptEvery > 0 || *retries > 0 {
		spill = filepath.Join(os.TempDir(), "hpfnt-"+*jobName+"-spill")
		if *self == 0 {
			os.RemoveAll(spill) // a previous run's state, before any member joins
		}
	}
	if *verbose || *tracePath != "" || *httpAddr != "" {
		obs.EnableTiming(true)
	}
	if *tracePath != "" {
		traceRec = obs.StartTrace(*self, 1<<14)
	}
	var scrape func() int
	if *httpAddr != "" {
		var err error
		if scrape, err = serveMetrics(*httpAddr); err != nil {
			fmt.Fprintf(os.Stderr, "hpfrun: -http: %v\n", err)
			return 1
		}
	}
	rendezvous := *addr
	var sup *job.Supervisor
	done := make(chan struct{})
	if *spawn {
		bin, err := os.Executable()
		if err == nil && *wire == transport.TCP {
			rendezvous, err = job.ResolveAddr(rendezvous)
		}
		if err == nil {
			// Peers re-execute this binary with the flags the user set
			// and re-read the program file, so they resolve the same
			// configuration the leader did.
			set := map[string]string{"addr": rendezvous}
			if *httpAddr != "" {
				set["http"] = "127.0.0.1:0" // each process is its own scrape target
			}
			sup, err = job.Start(*procs, func(idx int) *exec.Cmd {
				set["self"] = strconv.Itoa(idx)
				return job.Command(bin, append(job.ChildArgs(flag.CommandLine, set, supervisorFlags...), path)...)
			})
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpfrun: %v\n", err)
			return 1
		}
		if *killProc > 0 {
			go killAndRespawn(sup, *killProc, spill, done)
		}
	}
	code := runMember(src, rendezvous, spill, cfg)
	close(done)
	if scrape != nil {
		// Self-scrape while the endpoint is still up: the run fails if
		// its own /metrics does not parse as valid exposition text.
		if c := scrape(); c != 0 && code == 0 {
			code = c
		}
	}
	if sup != nil {
		if code != 0 {
			sup.KillAll()
		}
		if err := sup.Wait(*timeout); err != nil {
			fmt.Fprintf(os.Stderr, "hpfrun: %v\n", err)
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

// checkRecoveryFlags rejects recovery settings the job cannot honour.
func checkRecoveryFlags(src string) error {
	if *ckptEvery > 0 {
		if err := interp.CheckEpochLoop(src); err != nil {
			return fmt.Errorf("-checkpoint-every needs an epoch loop, a top-level DO whose body holds only array assignments: %v", err)
		}
	}
	if (*ckptEvery > 0 || *retries > 0) && *jobName == flag.Lookup("job").DefValue {
		// Each leader clears the spill directory named after its job:
		// jobs under the default name would delete each other's.
		return fmt.Errorf("-checkpoint-every and -retries need a -job name of their own (it names the checkpoint directory)")
	}
	if *killProc < 0 {
		return nil
	}
	switch {
	case !*spawn:
		return fmt.Errorf("-kill-proc needs -spawn (the supervisor does the killing)")
	case *killProc < 1 || *killProc >= *procs:
		return fmt.Errorf("-kill-proc %d is not a process index in 1..%d (leader loss is not recoverable)", *killProc, *procs-1)
	case *retries < 1:
		return fmt.Errorf("-kill-proc needs -retries >= 1 to recover from the loss")
	case *ckptEvery <= 0:
		return fmt.Errorf("-kill-proc waits for the first checkpoint: set -checkpoint-every")
	}
	return nil
}

// killAndRespawn is the supervisor's fault injector: once the first
// checkpoint is published it has the supervisor SIGKILL process proc
// and start a replacement, which learns the current generation from
// the leader's published file and rejoins the recovering job.
func killAndRespawn(sup *job.Supervisor, proc int, spill string, done <-chan struct{}) {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for _, _, err := ckpt.Latest(spill); err != nil; _, _, err = ckpt.Latest(spill) {
		select {
		case <-done:
			return
		case <-tick.C:
		}
	}
	select {
	case <-done: // the job finished while the trigger was being evaluated
		return
	default:
	}
	if err := sup.Respawn(proc); err != nil {
		fmt.Fprintf(os.Stderr, "hpfrun: %v\n", err)
		return
	}
	fmt.Printf("hpfrun: supervisor sent SIGKILL to process %d; respawning a replacement\n", proc)
}

// runMember is one process's life in the job: under the recovery
// driver, join the wire, build the engine and program over it, and
// interpret the statement stream in lockstep with the other members.
// The leader then prints the result and verifies it.
func runMember(src, rendezvous, spill string, cfg interp.Config) int {
	var res *interp.Result
	var det machine.Detail
	eres, err := elastic.Run(elastic.Config{
		Dial: func(gen int) (transport.Transport, error) {
			tr, err := transport.Join(*wire, transport.Config{
				Job: *jobName, NP: cfg.NP, Procs: *procs, Self: *self,
				Generation: gen, Addr: rendezvous, Timeout: *timeout, Heartbeat: *hbEvery,
			})
			if err == nil {
				live.setTransport(tr)
			}
			return tr, err
		},
		Prepare: func(eng engine.Engine) (elastic.Job, error) {
			live.setEngine(eng, spill)
			j, err := cfg.PrepareOn(eng, src)
			if err != nil {
				return elastic.Job{}, err
			}
			return elastic.Job{Arrays: j.Arrays, Iters: j.Iters, Step: j.Step, Finish: func() (err error) {
				// Values are read to verify or print them.
				if res, err = j.Finish(!*noverify || *values); err == nil && *verbose {
					det = eng.Detail() // a collective: every member reaches it here
				}
				return err
			}}, nil
		},
		Cost:            machine.DefaultCost(),
		Self:            *self,
		CheckpointEvery: *ckptEvery,
		Dir:             spill,
		Retries:         *retries,
		StartGen:        1,
		EpochTimeout:    *timeout,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "hpfrun[%d]: %s\n", *self, fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpfrun[%d]: %v\n", *self, err)
		return 1
	}
	if *self != 0 {
		return 0
	}
	lo, hi := transport.RanksOf(cfg.NP, *procs, *self)
	fmt.Printf("hpfrun[0]: job %q over %s: %d procs, leader hosts ranks %d..%d of %d\n",
		*jobName, *wire, *procs, lo, hi, cfg.NP)
	printResult(res)
	if *verbose {
		fmt.Print(det)
	}
	if eres.Recovered > 0 {
		fmt.Printf("hpfrun[0]: survived %d member loss(es): %d attempts, final generation %d, restored epoch %d\n",
			eres.Recovered, eres.Attempts, eres.Generation, eres.RestoredEpoch)
	}
	if *noverify {
		return 0
	}
	ref := cfg
	ref.Engine, ref.Transport = engine.SPMD, engine.InprocTransport
	want, err := ref.Run(src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpfrun[0]: verification run: %v\n", err)
		return 1
	}
	if err := sameResult(want, res); err != nil {
		fmt.Fprintf(os.Stderr, "hpfrun[0]: VERIFY FAILED: %v\n", err)
		return 1
	}
	fmt.Printf("hpfrun[0]: verified on the %s wire against the in-process engine (output, values and report identical)\n", *wire)
	return 0
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
	part := func(idx int) string { return fmt.Sprintf("%s.p%d.json", *tracePath, idx) }
	if err := obs.WriteTrace(part(*self), rec.Snapshot()); err != nil {
		fmt.Fprintf(os.Stderr, "hpfrun[%d]: writing trace part: %v\n", *self, err)
		return 1
	}
	if *self != 0 {
		return 0
	}
	parts := make([]string, *procs)
	for i := range parts {
		parts[i] = part(i)
	}
	n, err := obs.MergeTraces(*tracePath, parts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpfrun[0]: merging trace: %v\n", err)
		return 1
	}
	fmt.Printf("hpfrun[0]: wrote %d trace events to %s (open in Perfetto)\n", n, *tracePath)
	return 0
}

// sameResult enforces the identity contract between the distributed
// run and the in-process reference.
func sameResult(want, got *interp.Result) error {
	if want.Output != got.Output {
		return fmt.Errorf("output mismatch:\n  in-process:\n%s  job:\n%s", want.Output, got.Output)
	}
	if len(want.Names) != len(got.Names) {
		return fmt.Errorf("materialized %v in-process, %v in the job", want.Names, got.Names)
	}
	for _, name := range want.Names {
		wv, gv := want.Values[name], got.Values[name]
		if len(wv) != len(gv) {
			return fmt.Errorf("%s: %d elements in-process, %d in the job", name, len(wv), len(gv))
		}
		for i := range wv {
			if wv[i] != gv[i] {
				return fmt.Errorf("%s[%d]: in-process %g, job %g", name, i, wv[i], gv[i])
			}
		}
	}
	if wl, gl := want.Report.Logical(), got.Report.Logical(); wl != gl {
		return fmt.Errorf("report mismatch:\n  in-process %+v\n  job        %+v", wl, gl)
	}
	return nil
}
