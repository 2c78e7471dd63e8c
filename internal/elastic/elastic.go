// Package elastic is the failure-recovery layer over the spmd engine:
// it runs a deterministic epoch-structured job fault-tolerantly by
// combining the transport's failure detection (*MemberLostError from
// heartbeats, liveness stamps or dead connections), the engine's
// epoch-aligned checkpoints (package ckpt), and generation-bumped
// rejoin. One detected member loss means a rolled-back epoch, not a
// dead job:
//
//	detect — a member dies (SIGKILL, wedged host, scripted chaos
//	  fault); every survivor's transport latches the same sticky
//	  *MemberLostError and the running epoch aborts.
//	rebuild — each process closes its failed engine, bumps the job
//	  generation and redials the rendezvous with jittered backoff.
//	  The leader publishes the new generation in the spill directory
//	  so a freshly respawned replacement (which has no memory of the
//	  job) joins at the right generation instead of being refused as
//	  stale.
//	restore — the job's deterministic prologue is re-run on the
//	  fresh engine (same arrays, same schedules), the last published
//	  checkpoint is read back — shards are rank-keyed, so the data
//	  remaps onto the new membership for free — and the counter
//	  aggregate is folded in, rolling the whole job back to the
//	  checkpointed epoch.
//	replay — execution resumes from that epoch. Final values and
//	  the logical machine.Report are identical to an uninterrupted
//	  run, which is what cmd/hpfrun verifies against the in-process
//	  engine.
//
// The job is a directive-language program split at its epoch loop
// (interp.Job): the statements before the loop are the prologue, each
// loop iteration is an epoch, and the rest of the program is Finish.
//
// The driver also marks epoch boundaries on transports that accept
// them (transport.EpochMarker), which is how the chaos wire injects
// its scripted faults deterministically in ordinary go tests.
package elastic

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hpfnt/internal/engine"
	"hpfnt/internal/machine"
	"hpfnt/internal/obs"
	"hpfnt/internal/transport"
)

// Job is one prepared epoch-structured computation: the arrays in
// checkpoint order, its epoch count, a Step function running epochs
// epoch+1 .. epoch+k, and a Finish computing the result collectives
// (whose outputs the caller captures by closure). Prepare must be
// deterministic — re-running it on a fresh engine must rebuild
// identical arrays and schedules — so a checkpoint restored into
// Arrays reproduces the exact mid-job state.
type Job struct {
	Arrays []engine.Array
	Iters  int
	Step   func(epoch, k int) error
	Finish func() error
}

// Config drives one fault-tolerant job.
type Config struct {
	// Dial joins the job's wire at the given generation (e.g. a
	// transport.Join closure, or NewInproc for a single-process job).
	// Called once per attempt.
	Dial func(gen int) (transport.Transport, error)
	// Wrap optionally wraps each attempt's transport, e.g. with
	// transport.NewChaos for fault injection. gen is the attempt's
	// generation. Nil means no wrapping.
	Wrap func(tr transport.Transport, gen int) transport.Transport
	// Prepare re-runs the job's deterministic prologue on a fresh
	// engine.
	Prepare func(eng engine.Engine) (Job, error)
	// Cost is the engine's counter cost model.
	Cost machine.CostModel
	// Self is this process's index (0 is the leader, which publishes
	// generation bumps in Dir).
	Self int
	// CheckpointEvery checkpoints after every N epochs (0 disables
	// checkpointing; a member loss then replays from epoch 0).
	CheckpointEvery int
	// Dir is the job's spill directory (checkpoints + the generation
	// file). Required for recovery across processes; empty disables
	// both checkpointing and the generation file.
	Dir string
	// Retries bounds recovery attempts (generation bumps). 0 means
	// fail on the first loss.
	Retries int
	// StartGen is the first generation to dial.
	StartGen int
	// EpochTimeout is the per-chunk watchdog: a chunk of epochs that
	// makes no progress for this long fails the transport (and the
	// attempt) instead of hanging the job. Progress is a dispatch
	// starting, a statement iteration computed or a frame arriving, so
	// a long chunk that keeps dispatching or replaying runs on; one
	// silent iteration longer than the timeout still trips it. 0
	// disables.
	EpochTimeout time.Duration
	// Logf receives recovery progress lines (nil discards).
	Logf func(format string, args ...any)
}

// Result summarizes a fault-tolerant run.
type Result struct {
	// Generation is the final (successful) generation.
	Generation int
	// Attempts is the number of attempts made (1 = no failure).
	Attempts int
	// Recovered is the number of member-loss recoveries performed.
	Recovered int
	// RestoredEpoch is the epoch restored from checkpoint on the
	// final attempt (-1 when the final attempt started from scratch).
	RestoredEpoch int
}

func (cfg *Config) logf(format string, args ...any) {
	if cfg.Logf != nil {
		cfg.Logf(format, args...)
	}
}

// genFile is the leader-published current-generation file in Dir.
const genFile = "generation"

// WriteGeneration atomically publishes gen as the job's current
// generation in the spill directory (leader only).
func WriteGeneration(dir string, gen int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(dir, genFile+".tmp")
	if err := os.WriteFile(tmp, []byte(strconv.Itoa(gen)+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, genFile))
}

// ReadGeneration returns the published current generation, or ok
// false when none has been published.
func ReadGeneration(dir string) (gen int, ok bool) {
	b, err := os.ReadFile(filepath.Join(dir, genFile))
	if err != nil {
		return 0, false
	}
	g, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil {
		return 0, false
	}
	return g, true
}

// Retryable reports whether err is a failure the elastic layer can
// recover from by rebuilding at a bumped generation: a detected
// member loss, a chaos-scripted abrupt kill of this process (the
// in-test analogue of being SIGKILLed and respawned), or the epoch
// watchdog.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if _, ok := transport.AsMemberLost(err); ok {
		return true
	}
	return errors.Is(err, transport.ErrChaosKilled) || errors.Is(err, errWatchdog)
}

var errWatchdog = errors.New("elastic: epoch watchdog expired")

// retries counts member-loss recoveries performed by this process
// across all elastic runs — the recovery-retry counter the /metrics
// endpoint exposes.
var retries atomic.Int64

// Retries reports the process-wide recovery retry count.
func Retries() int64 { return retries.Load() }

// Run executes the job fault-tolerantly: dial, prepare, restore any
// published checkpoint, then alternate epoch chunks with checkpoints
// until the job's Iters epochs have completed and Finish succeeds. On a
// retryable failure it closes the attempt's engine, bumps the
// generation and tries again, up to Retries times.
func Run(cfg Config) (Result, error) {
	res := Result{RestoredEpoch: -1}
	gen := cfg.StartGen
	for attempt := 0; ; attempt++ {
		if cfg.Dir != "" {
			// A respawned replacement process (or a survivor racing
			// the leader's bump) learns the current generation from
			// the leader's published file.
			if g, ok := ReadGeneration(cfg.Dir); ok && g > gen {
				gen = g
			}
		}
		res.Attempts++
		res.Generation = gen
		err := runAttempt(&cfg, gen, &res)
		if err == nil {
			return res, nil
		}
		if !Retryable(err) || attempt >= cfg.Retries {
			return res, err
		}
		// Structured retry line: every recovery decision on one line —
		// the failed generation, the cause (naming the lost peer when
		// one was detected), where the replay will roll back to, and
		// how long this process backs off before redialing.
		backoff := transport.Backoff(attempt, 20*time.Millisecond, 500*time.Millisecond)
		cause := fmt.Sprintf("cause=%q", err)
		if proc, ok := transport.AsMemberLost(err); ok {
			cause = fmt.Sprintf("lost-peer=%d cause=%q", proc, err)
		}
		rollback := "scratch"
		if cfg.CheckpointEvery > 0 && cfg.Dir != "" {
			rollback = "last-checkpoint"
		}
		cfg.logf("elastic: retry attempt=%d generation=%d %s rollback=%s next-generation=%d backoff=%v",
			attempt+1, gen, cause, rollback, gen+1, backoff)
		obs.Instant("recovery", fmt.Sprintf("generation %d failed: %v", gen, err), 0)
		res.Recovered++
		retries.Add(1)
		gen++
		if cfg.Dir != "" && cfg.Self == 0 {
			if werr := WriteGeneration(cfg.Dir, gen); werr != nil {
				return res, fmt.Errorf("elastic: publishing generation %d: %w", gen, werr)
			}
		}
		// Jittered backoff keeps a fleet of rejoining survivors from
		// hammering the rendezvous in lockstep.
		time.Sleep(backoff)
	}
}

// runAttempt runs one generation of the job to completion or failure.
func runAttempt(cfg *Config, gen int, res *Result) error {
	tr, err := cfg.Dial(gen)
	if err != nil {
		// A failed rendezvous usually means the membership is still
		// settling (a replacement not yet up, the leader not yet
		// rebound); it is worth another attempt.
		return &transport.MemberLostError{Proc: -1, Cause: "rendezvous failed", Err: err}
	}
	if cfg.Wrap != nil {
		tr = cfg.Wrap(tr, gen)
	}
	marker, _ := tr.(transport.EpochMarker)
	// Re-seat the process-wide trace epoch at a generation-derived
	// base: a respawned replacement starts its counter at zero while
	// survivors are far ahead, and the replay's dispatches only stay
	// aligned across processes (one epoch number per collective step,
	// everywhere) if every member re-bases on the agreed generation
	// before the first dispatch of the attempt.
	obs.SetEpoch(int64(gen) << 20)
	eng, err := engine.NewSPMDOn(tr, cfg.Cost)
	if err != nil {
		return err
	}
	if gen > cfg.StartGen {
		obs.Instant("recovery", fmt.Sprintf("rejoined at generation %d", gen), 0)
	}
	defer eng.Close()
	eng.Reset()
	job, err := cfg.Prepare(eng)
	if err != nil {
		return err
	}
	epoch := 0
	res.RestoredEpoch = -1
	if cfg.Dir != "" {
		switch e, rerr := eng.Restore(cfg.Dir, job.Arrays); {
		case rerr == nil:
			epoch = e
			res.RestoredEpoch = e
			cfg.logf("elastic: generation %d restored checkpoint at epoch %d", gen, e)
			obs.Instant("recovery", fmt.Sprintf("generation %d rolled back to epoch %d", gen, e), 0)
		case errors.Is(rerr, engine.ErrNoCheckpoint):
			// First attempt, or loss before the first checkpoint:
			// replay from scratch.
		default:
			return rerr
		}
	}
	for epoch < job.Iters {
		k := job.Iters - epoch
		if cfg.CheckpointEvery > 0 && k > cfg.CheckpointEvery {
			k = cfg.CheckpointEvery
		}
		if marker != nil {
			marker.MarkEpoch(epoch + 1)
		}
		if err := stepWatched(cfg, tr, job, epoch, k); err != nil {
			return err
		}
		epoch += k
		if cfg.CheckpointEvery > 0 && epoch < job.Iters {
			if err := eng.Checkpoint(cfg.Dir, epoch, job.Arrays); err != nil {
				return err
			}
		}
	}
	if marker != nil {
		marker.MarkEpoch(job.Iters + 1)
	}
	return job.Finish()
}

// stepWatched runs one epoch chunk under the watchdog: a chunk that
// neither completes, fails nor makes progress for EpochTimeout fails
// the transport (unblocking every worker) and the attempt.
func stepWatched(cfg *Config, tr transport.Transport, job Job, epoch, k int) error {
	if cfg.EpochTimeout <= 0 {
		return job.Step(epoch, k)
	}
	done := make(chan error, 1)
	go func() { done <- job.Step(epoch, k) }()
	tick := time.NewTicker(max(cfg.EpochTimeout/8, time.Millisecond))
	defer tick.Stop()
	seen, last := progress(tr), time.Now()
	for {
		select {
		case err := <-done:
			return err
		case now := <-tick.C:
			if p := progress(tr); p != seen {
				seen, last = p, now
			} else if now.Sub(last) >= cfg.EpochTimeout {
				err := fmt.Errorf("%w: no progress in %v", errWatchdog, cfg.EpochTimeout)
				tr.Fail(err)
				<-done // Step observes the sticky failure and returns
				return err
			}
		}
	}
}

// progress is what the watchdog watches: the process's dispatch and
// iteration counts and the frames its wire has received.
func progress(tr transport.Transport) [3]int64 {
	p := [3]int64{obs.CurrentEpoch(), obs.Iterations()}
	if wc, ok := tr.(transport.WireCounter); ok {
		p[2] = wc.Wire().FramesRecv
	}
	return p
}
