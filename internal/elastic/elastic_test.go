package elastic

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hpfnt/internal/engine"
	"hpfnt/internal/machine"
	"hpfnt/internal/transport"
	"hpfnt/internal/workload"
)

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// reference runs the workload uninterrupted on a fresh in-process
// engine.
func reference(t *testing.T, name string, np, n, iters int) workload.NodeResult {
	t.Helper()
	eng, err := engine.NewOn(engine.SPMD, engine.InprocTransport, np, machine.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := workload.RunNode(eng, name, n, iters)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// nodeConfig adapts a node workload to an elastic Config, capturing
// the result via the Finish closure.
func nodeConfig(name string, n int, out *workload.NodeResult) Config {
	return Config{
		Prepare: func(eng engine.Engine) (Job, error) {
			job, err := workload.PrepareNode(eng, name, n)
			if err != nil {
				return Job{}, err
			}
			return Job{
				Arrays: job.Arrays,
				Step:   job.Step,
				Finish: func() error {
					r, err := job.Finish()
					if err != nil {
						return err
					}
					*out = r
					return nil
				},
			}, nil
		},
		Cost: machine.DefaultCost(),
	}
}

func checkIdentical(t *testing.T, got, want workload.NodeResult) {
	t.Helper()
	if got.Report != want.Report {
		t.Fatalf("report after recovery differs:\n  recovered %+v\n  reference %+v", got.Report, want.Report)
	}
	if got.Sum != want.Sum {
		t.Fatalf("reduction after recovery: got %g, want %g", got.Sum, want.Sum)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("value at offset %d after recovery: got %g, want %g", i, got.Data[i], want.Data[i])
		}
	}
}

// TestRunCleanInproc is the no-fault baseline: the elastic driver on
// a healthy single-process wire must be invisible — one attempt,
// identical results, with and without checkpointing.
func TestRunCleanInproc(t *testing.T) {
	const np, n, iters = 4, 24, 6
	want := reference(t, "heat", np, n, iters)
	for _, every := range []int{0, 2} {
		t.Run(fmt.Sprintf("checkpointEvery=%d", every), func(t *testing.T) {
			var got workload.NodeResult
			cfg := nodeConfig("heat", n, &got)
			cfg.Dial = func(gen int) (transport.Transport, error) { return transport.New(transport.Inproc, np) }
			cfg.Iters = iters
			cfg.CheckpointEvery = every
			if every > 0 {
				cfg.Dir = t.TempDir()
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempts != 1 || res.Recovered != 0 {
				t.Fatalf("clean run took %d attempts, %d recoveries", res.Attempts, res.Recovered)
			}
			checkIdentical(t, got, want)
		})
	}
}

// TestRunChaosRecoveryInproc scripts an abrupt death mid-job on the
// inproc wire. Inproc carries no generation, so the test gates the
// chaos wrapper through the Wrap hook — the documented pattern for
// generation-less wires — and the driver must roll back to the last
// checkpoint, replay, and land on results identical to an
// uninterrupted run.
func TestRunChaosRecoveryInproc(t *testing.T) {
	const np, n, iters = 4, 24, 6
	want := reference(t, "heat", np, n, iters)
	plan := &transport.ChaosPlan{DieAtEpoch: 5, DieProc: 0}
	var got workload.NodeResult
	cfg := nodeConfig("heat", n, &got)
	cfg.Dial = func(gen int) (transport.Transport, error) { return transport.New(transport.Inproc, np) }
	cfg.Wrap = func(tr transport.Transport, gen int) transport.Transport {
		if gen != cfg.StartGen {
			return tr // the fault fires only in the first generation
		}
		return transport.NewChaos(tr, plan)
	}
	cfg.Iters = iters
	cfg.CheckpointEvery = 2
	cfg.Dir = t.TempDir()
	cfg.Retries = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovered != 1 {
		t.Fatalf("recoveries = %d, want 1", res.Recovered)
	}
	if res.RestoredEpoch != 4 {
		t.Fatalf("restored epoch = %d, want 4 (death at 5, checkpoints every 2)", res.RestoredEpoch)
	}
	checkIdentical(t, got, want)
}

// TestRunChaosRecoveryMesh is the full recovery scenario on both
// multi-process wires, inside one test binary: three members run the
// heat job under the elastic driver, member 1 dies abruptly at a
// scripted epoch, every member (including the victim) rejoins at the
// bumped generation, restores the checkpoint and replays — and the
// final result is identical to an uninterrupted in-process run.
func TestRunChaosRecoveryMesh(t *testing.T) {
	const np, procs, n, iters = 6, 3, 24, 6
	want := reference(t, "heat", np, n, iters)
	for _, wire := range []string{transport.TCP, transport.Shm} {
		t.Run(wire, func(t *testing.T) {
			dir := t.TempDir()
			spill := t.TempDir()
			var addr string
			if wire == transport.TCP {
				addr = freeAddr(t)
			}
			plan := &transport.ChaosPlan{Generation: 1, DieAtEpoch: 3, DieProc: 1}
			results := make([]workload.NodeResult, procs)
			runs := make([]Result, procs)
			errs := make([]error, procs)
			var wg sync.WaitGroup
			for i := 0; i < procs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					cfg := nodeConfig("heat", n, &results[i])
					cfg.Dial = func(gen int) (transport.Transport, error) {
						return transport.Join(wire, transport.Config{Job: "elastic-test", NP: np, Procs: procs, Self: i,
							Generation: gen, Addr: addr, Dir: dir, Timeout: 10 * time.Second, Heartbeat: 20 * time.Millisecond})
					}
					cfg.Wrap = func(tr transport.Transport, gen int) transport.Transport {
						return transport.NewChaos(tr, plan)
					}
					cfg.Self = i
					cfg.Iters = iters
					cfg.CheckpointEvery = 2
					cfg.Dir = spill
					cfg.Retries = 3
					cfg.StartGen = 1
					cfg.Logf = t.Logf
					runs[i], errs[i] = Run(cfg)
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("member %d: %v", i, err)
				}
			}
			for i := 0; i < procs; i++ {
				if runs[i].Recovered < 1 {
					t.Fatalf("member %d recovered %d times, want >= 1", i, runs[i].Recovered)
				}
				if runs[i].Generation < 2 {
					t.Fatalf("member %d finished at generation %d, want >= 2", i, runs[i].Generation)
				}
				if runs[i].RestoredEpoch != 2 {
					t.Fatalf("member %d restored epoch %d, want 2 (death at 3, checkpoints every 2)", i, runs[i].RestoredEpoch)
				}
				checkIdentical(t, results[i], want)
			}
			// Every member must have settled on the same generation.
			for i := 1; i < procs; i++ {
				if runs[i].Generation != runs[0].Generation {
					t.Fatalf("generations diverged: %d vs %d", runs[i].Generation, runs[0].Generation)
				}
			}
		})
	}
}

// TestRunRecoveryWithoutCheckpoints: a loss with no checkpoint
// published replays from epoch 0 and still lands on identical
// results.
func TestRunRecoveryWithoutCheckpoints(t *testing.T) {
	const np, n, iters = 4, 24, 5
	want := reference(t, "heat", np, n, iters)
	// No checkpointing means the job runs as one chunk, so the only
	// epoch mark inside the loop is 1 — script the death there.
	plan := &transport.ChaosPlan{DieAtEpoch: 1, DieProc: 0}
	var got workload.NodeResult
	cfg := nodeConfig("heat", n, &got)
	cfg.Dial = func(gen int) (transport.Transport, error) { return transport.New(transport.Inproc, np) }
	cfg.Wrap = func(tr transport.Transport, gen int) transport.Transport {
		if gen != cfg.StartGen {
			return tr
		}
		return transport.NewChaos(tr, plan)
	}
	cfg.Iters = iters
	cfg.Retries = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovered != 1 || res.RestoredEpoch != -1 {
		t.Fatalf("recovered=%d restoredEpoch=%d, want 1 and -1 (replay from scratch)", res.Recovered, res.RestoredEpoch)
	}
	checkIdentical(t, got, want)
}

// TestRunRetriesExhausted: a fault that fires in every generation
// must surface the retryable error once Retries is spent.
func TestRunRetriesExhausted(t *testing.T) {
	const np = 2
	var got workload.NodeResult
	cfg := nodeConfig("heat", 16, &got)
	cfg.Dial = func(gen int) (transport.Transport, error) { return transport.New(transport.Inproc, np) }
	cfg.Wrap = func(tr transport.Transport, gen int) transport.Transport {
		// Unconditional: the fault re-fires after every rejoin.
		return transport.NewChaos(tr, &transport.ChaosPlan{DieAtEpoch: 1, DieProc: 0})
	}
	cfg.Iters = 4
	cfg.Retries = 2
	res, err := Run(cfg)
	if err == nil {
		t.Fatal("run succeeded despite a fault firing in every generation")
	}
	if !Retryable(err) {
		t.Fatalf("surfaced error %v is not the retryable failure", err)
	}
	if res.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", res.Attempts)
	}
}

// TestRunWatchdog: a chunk that stops making progress must be failed
// by the epoch watchdog instead of hanging the job.
func TestRunWatchdog(t *testing.T) {
	const np = 2
	var tr transport.Transport
	cfg := Config{
		Dial: func(gen int) (transport.Transport, error) { return transport.New(transport.Inproc, np) },
		Wrap: func(inner transport.Transport, gen int) transport.Transport { tr = inner; return inner },
		Prepare: func(eng engine.Engine) (Job, error) {
			return Job{
				Step: func(k int) error {
					// A wedged chunk: blocks until the transport is
					// failed (as a real engine collective would).
					for tr.Err() == nil {
						time.Sleep(time.Millisecond)
					}
					return tr.Err()
				},
				Finish: func() error { return nil },
			}, nil
		},
		Cost:         machine.DefaultCost(),
		Iters:        1,
		EpochTimeout: 50 * time.Millisecond,
	}
	start := time.Now()
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("wedged job completed")
	}
	if !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("error %v, want the watchdog", err)
	}
	if !Retryable(err) {
		t.Fatal("watchdog expiry must be retryable")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("watchdog took %v to fire", elapsed)
	}
}

// TestGenerationFile pins the leader-published generation protocol.
func TestGenerationFile(t *testing.T) {
	dir := t.TempDir()
	if _, ok := ReadGeneration(dir); ok {
		t.Fatal("empty dir reports a generation")
	}
	if err := WriteGeneration(dir, 3); err != nil {
		t.Fatal(err)
	}
	if g, ok := ReadGeneration(dir); !ok || g != 3 {
		t.Fatalf("ReadGeneration = (%d, %v), want (3, true)", g, ok)
	}
	if err := WriteGeneration(dir, 4); err != nil {
		t.Fatal(err)
	}
	if g, _ := ReadGeneration(dir); g != 4 {
		t.Fatalf("generation not overwritten: %d", g)
	}
}

// TestRetryable pins the recovery classification.
func TestRetryable(t *testing.T) {
	if Retryable(nil) {
		t.Fatal("nil is retryable")
	}
	if Retryable(errors.New("plain")) {
		t.Fatal("a plain error is retryable")
	}
	if !Retryable(&transport.MemberLostError{Proc: 1, Cause: "test"}) {
		t.Fatal("member loss is not retryable")
	}
	if !Retryable(fmt.Errorf("wrapped: %w", transport.ErrChaosKilled)) {
		t.Fatal("chaos kill is not retryable")
	}
}
