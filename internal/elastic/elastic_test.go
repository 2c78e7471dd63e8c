package elastic

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hpfnt/internal/engine"
	"hpfnt/internal/interp"
	"hpfnt/internal/machine"
	"hpfnt/internal/obs"
	"hpfnt/internal/transport"
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

// heat2d loads the corpus program the recovery tests run — an
// in-place stencil whose every iteration reads the last, so a wrong
// restore changes the values — with ITERS set to iters.
func heat2d(t *testing.T, iters int) (interp.Config, string) {
	t.Helper()
	src, err := interp.ReadSource(filepath.Join("..", "interp", "testdata", "programs", "heat2d.hpf"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := interp.Config{Name: "heat2d", Engine: engine.SPMD, Transport: engine.InprocTransport,
		Params: map[string]int{"ITERS": iters}}
	if err := interp.ScanFileOptions(src, &cfg); err != nil {
		t.Fatal(err)
	}
	return cfg, src
}

// reference runs the program uninterrupted on a fresh in-process
// engine.
func reference(t *testing.T, cfg interp.Config, src string) *interp.Result {
	t.Helper()
	res, err := cfg.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// jobConfig runs the program as the job the interpreter splits it
// into, capturing the result via the Finish closure.
func jobConfig(cfg interp.Config, src string, out **interp.Result) Config {
	return Config{
		Prepare: func(eng engine.Engine) (Job, error) {
			j, err := cfg.PrepareOn(eng, src)
			if err != nil {
				return Job{}, err
			}
			return Job{Arrays: j.Arrays, Iters: j.Iters, Step: j.Step, Finish: func() (err error) {
				*out, err = j.Finish(true)
				return err
			}}, nil
		},
		Cost: machine.DefaultCost(),
	}
}

func checkIdentical(t *testing.T, got, want *interp.Result) {
	t.Helper()
	if got.Output != want.Output {
		t.Fatalf("output after recovery:\n%s\nwant:\n%s", got.Output, want.Output)
	}
	if got.Report != want.Report {
		t.Fatalf("report after recovery differs:\n  recovered %+v\n  reference %+v", got.Report, want.Report)
	}
	for _, name := range want.Names {
		for i, w := range want.Values[name] {
			if g := got.Values[name][i]; g != w {
				t.Fatalf("%s[%d] after recovery: got %g, want %g", name, i, g, w)
			}
		}
	}
}

// TestRunCleanInproc is the no-fault baseline: the elastic driver on
// a healthy single-process wire must be invisible — one attempt,
// identical results, with and without checkpointing.
func TestRunCleanInproc(t *testing.T) {
	prog, src := heat2d(t, 6)
	want := reference(t, prog, src)
	for _, every := range []int{0, 2} {
		t.Run(fmt.Sprintf("checkpointEvery=%d", every), func(t *testing.T) {
			var got *interp.Result
			cfg := jobConfig(prog, src, &got)
			cfg.Dial = func(gen int) (transport.Transport, error) { return transport.New(transport.Inproc, prog.NP) }
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
	prog, src := heat2d(t, 6)
	want := reference(t, prog, src)
	plan := &transport.ChaosPlan{DieAtEpoch: 5, DieProc: 0}
	var got *interp.Result
	cfg := jobConfig(prog, src, &got)
	cfg.Dial = func(gen int) (transport.Transport, error) { return transport.New(transport.Inproc, prog.NP) }
	cfg.Wrap = func(tr transport.Transport, gen int) transport.Transport {
		if gen != cfg.StartGen {
			return tr // the fault fires only in the first generation
		}
		return transport.NewChaos(tr, plan)
	}
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
// heat2d program under the elastic driver, member 1 dies abruptly at a
// scripted epoch, every member (including the victim) rejoins at the
// bumped generation, restores the checkpoint and replays — and the
// final result is identical to an uninterrupted in-process run.
func TestRunChaosRecoveryMesh(t *testing.T) {
	const procs = 3
	prog, src := heat2d(t, 6)
	want := reference(t, prog, src)
	for _, wire := range []string{transport.TCP, transport.Shm} {
		t.Run(wire, func(t *testing.T) {
			dir := t.TempDir()
			spill := t.TempDir()
			var addr string
			if wire == transport.TCP {
				addr = freeAddr(t)
			}
			plan := &transport.ChaosPlan{Generation: 1, DieAtEpoch: 3, DieProc: 1}
			results := make([]*interp.Result, procs)
			runs := make([]Result, procs)
			errs := make([]error, procs)
			var wg sync.WaitGroup
			for i := 0; i < procs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					cfg := jobConfig(prog, src, &results[i])
					cfg.Dial = func(gen int) (transport.Transport, error) {
						return transport.Join(wire, transport.Config{Job: "elastic-test", NP: prog.NP, Procs: procs, Self: i,
							Generation: gen, Addr: addr, Dir: dir, Timeout: 10 * time.Second, Heartbeat: 20 * time.Millisecond})
					}
					cfg.Wrap = func(tr transport.Transport, gen int) transport.Transport {
						return transport.NewChaos(tr, plan)
					}
					cfg.Self = i
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
	prog, src := heat2d(t, 5)
	want := reference(t, prog, src)
	// No checkpointing means the job runs as one chunk, so the only
	// epoch mark inside the loop is 1 — script the death there.
	plan := &transport.ChaosPlan{DieAtEpoch: 1, DieProc: 0}
	var got *interp.Result
	cfg := jobConfig(prog, src, &got)
	cfg.Dial = func(gen int) (transport.Transport, error) { return transport.New(transport.Inproc, prog.NP) }
	cfg.Wrap = func(tr transport.Transport, gen int) transport.Transport {
		if gen != cfg.StartGen {
			return tr
		}
		return transport.NewChaos(tr, plan)
	}
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
	prog, src := heat2d(t, 4)
	prog.Params["N"] = 16
	var got *interp.Result
	cfg := jobConfig(prog, src, &got)
	cfg.Dial = func(gen int) (transport.Transport, error) { return transport.New(transport.Inproc, prog.NP) }
	cfg.Wrap = func(tr transport.Transport, gen int) transport.Transport {
		// Unconditional: the fault re-fires after every rejoin.
		return transport.NewChaos(tr, &transport.ChaosPlan{DieAtEpoch: 1, DieProc: 0})
	}
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
				Iters: 1,
				Step: func(epoch, k int) error {
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

// TestWatchdogSparesProgress: a chunk that runs for three watchdog
// periods while making progress must complete — whether it dispatches
// every few milliseconds, or is one dispatch that replays a statement
// (heat.hpf's invariant loop body runs as a single RunN whose ghosts
// cross the wire once).
func TestWatchdogSparesProgress(t *testing.T) {
	const timeout = 50 * time.Millisecond
	watched := func(t *testing.T, np int, prepare func(eng engine.Engine) (Job, error)) {
		t.Helper()
		cfg := Config{
			Dial:         func(gen int) (transport.Transport, error) { return transport.New(transport.Inproc, np) },
			Prepare:      prepare,
			Cost:         machine.DefaultCost(),
			EpochTimeout: timeout,
		}
		if _, err := Run(cfg); err != nil {
			t.Fatalf("a job that kept making progress failed: %v", err)
		}
	}

	t.Run("dispatches", func(t *testing.T) {
		prog, src := heat2d(t, 1)
		watched(t, prog.NP, func(eng engine.Engine) (Job, error) {
			j, err := prog.PrepareOn(eng, src)
			if err != nil {
				return Job{}, err
			}
			return Job{
				Arrays: j.Arrays,
				Iters:  1,
				Step: func(epoch, k int) error {
					for end := time.Now().Add(3 * timeout); time.Now().Before(end); time.Sleep(3 * time.Millisecond) {
						if err := j.Step(0, 1); err != nil { // one sweep: one dispatch
							return err
						}
					}
					return nil
				},
				Finish: func() error { return nil },
			}, nil
		})
	})

	t.Run("one replay", func(t *testing.T) {
		src, err := interp.ReadSource(filepath.Join("..", "interp", "testdata", "programs", "heat.hpf"))
		if err != nil {
			t.Fatal(err)
		}
		prog := interp.Config{Name: "heat", Engine: engine.SPMD, Transport: engine.InprocTransport, Params: map[string]int{}}
		if err := interp.ScanFileOptions(src, &prog); err != nil {
			t.Fatal(err)
		}
		// Size the loop so that its one dispatch outlasts three
		// watchdog periods, however fast the host runs it.
		var want, got *interp.Result
		for {
			start := time.Now()
			want = reference(t, prog, src)
			if time.Since(start) >= 3*timeout {
				break
			}
			prog.Params["ITERS"] *= 4
		}
		watched(t, prog.NP, func(eng engine.Engine) (Job, error) {
			j, err := prog.PrepareOn(eng, src)
			if err != nil {
				return Job{}, err
			}
			return Job{
				Arrays: j.Arrays,
				Iters:  j.Iters,
				Step: func(epoch, k int) error {
					start, before := time.Now(), obs.CurrentEpoch()
					if err := j.Step(epoch, k); err != nil {
						return err
					}
					if d := obs.CurrentEpoch() - before; d != 1 {
						return fmt.Errorf("the loop took %d dispatches, want one", d)
					}
					if el := time.Since(start); el < timeout {
						return fmt.Errorf("the dispatch took %v, shorter than the %v watchdog", el, timeout)
					}
					return nil
				},
				Finish: func() (err error) {
					got, err = j.Finish(true)
					return err
				},
			}, nil
		})
		checkIdentical(t, got, want)
	})
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
