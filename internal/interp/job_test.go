package interp_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hpfnt/internal/elastic"
	"hpfnt/internal/engine"
	"hpfnt/internal/interp"
	"hpfnt/internal/machine"
	"hpfnt/internal/transport"
)

// TestEpochLoopSelection: the epoch loop is the first top-level DO
// whose body holds only array assignments. A body with a directive,
// PRINT, FORALL or nested DO disqualifies its loop, and a program with
// no epoch loop cannot be checkpointed: the error names the line.
func TestEpochLoopSelection(t *testing.T) {
	const head = "PROCESSORS P(2)\nREAL A(1:8), B(1:8)\n!HPF$ DISTRIBUTE (BLOCK) :: A, B\nFORALL (I = 1:8) A(I) = I\n"
	for _, tc := range []struct {
		name, body string
		iters      int    // the selected loop's trip count
		err        string // CheckEpochLoop's error, "" for none
	}{
		{"assignments", "DO K = 1, 3\n  B(2:8) = A(1:7)\n  A(1:8) = B(1:8)\nEND DO\n", 3, ""},
		{"loop-variable", "DO K = 2, 7\n  B(K:K) = A(K-1:K-1)\nEND DO\n", 6, ""},
		{"second-loop", "DO K = 1, 3\n  PRINT SUM(A)\nEND DO\nDO K = 1, 4\n  B(1:8) = A(1:8)\nEND DO\n", 4, ""},
		{"directive", "DO K = 1, 3\n  B(1:8) = A(1:8)\n  REAL C(1:4)\nEND DO\n", 0,
			"line 7: the DO at line 5 is no epoch loop: its body holds a directive"},
		{"print", "DO K = 1, 3\n  PRINT SUM(A)\nEND DO\n", 0, "line 6: the DO at line 5 is no epoch loop: its body holds a PRINT"},
		{"forall", "DO K = 1, 3\n  FORALL (I = 1:8) B(I) = I\nEND DO\n", 0, "line 6: the DO at line 5 is no epoch loop: its body holds a FORALL"},
		{"nested-do", "DO K = 1, 3\n  DO J = 1, 2\n    B(1:8) = A(1:8)\n  END DO\nEND DO\n", 0,
			"line 6: the DO at line 5 is no epoch loop: its body holds a nested DO"},
		{"no-do", "B(1:8) = A(1:8)\nPRINT SUM(B)\n", 0, "line 6: no epoch loop: the program has no top-level DO"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := head + tc.body
			err := interp.CheckEpochLoop(src)
			if got := fmt.Sprint(err); (err == nil) != (tc.err == "") || !strings.Contains(got, tc.err) {
				t.Fatalf("CheckEpochLoop = %v, want %q", err, tc.err)
			}
			prog, err := interp.Config{NP: 2}.NewProgram()
			if err != nil {
				t.Fatal(err)
			}
			defer prog.Close()
			j, err := interp.New(prog).Prepare(src)
			if err != nil {
				t.Fatal(err)
			}
			if j.Iters != tc.iters {
				t.Errorf("Iters = %d, want %d", j.Iters, tc.iters)
			}
		})
	}
}

// TestJobMatchesRun: every corpus program with an epoch loop, run as a
// job under the recovery driver at every checkpoint interval from 1 to
// Iters — and made to lose its only member just before Finish, so it
// restores the last checkpoint and replays the rest — gives the output
// bytes, values and Logical() report of Interp.Run.
func TestJobMatchesRun(t *testing.T) {
	for _, path := range loadCorpus(t) {
		src, err := interp.ReadSource(path)
		if err != nil {
			t.Fatal(err)
		}
		if interp.CheckEpochLoop(src) != nil {
			continue
		}
		name := strings.TrimSuffix(filepath.Base(path), ".hpf")
		t.Run(name, func(t *testing.T) {
			cfg := interp.Config{Name: name, NP: 8, Engine: engine.SPMD, Transport: engine.InprocTransport}
			if err := interp.ScanFileOptions(src, &cfg); err != nil {
				t.Fatal(err)
			}
			want, err := cfg.Run(src)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := cfg.NewProgram()
			if err != nil {
				t.Fatal(err)
			}
			j, err := interp.NewWith(prog, cfg.Limits).Prepare(src)
			prog.Close()
			if err != nil {
				t.Fatal(err)
			}
			for every, iters := 1, j.Iters; every <= iters; every++ {
				var got *interp.Result
				res, err := elastic.Run(elastic.Config{
					Dial: func(gen int) (transport.Transport, error) { return transport.New(transport.Inproc, cfg.NP) },
					Wrap: func(tr transport.Transport, gen int) transport.Transport {
						if gen != 0 {
							return tr // the fault fires only in the first generation
						}
						return transport.NewChaos(tr, &transport.ChaosPlan{DieAtEpoch: iters + 1})
					},
					Prepare: func(eng engine.Engine) (elastic.Job, error) {
						j, err := cfg.PrepareOn(eng, src)
						if err != nil {
							return elastic.Job{}, err
						}
						return elastic.Job{Arrays: j.Arrays, Iters: j.Iters, Step: j.Step, Finish: func() (err error) {
							got, err = j.Finish(true)
							return err
						}}, nil
					},
					Cost:            machine.DefaultCost(),
					CheckpointEvery: every,
					Dir:             t.TempDir(),
					Retries:         1,
				})
				if err != nil {
					t.Fatalf("every %d: %v", every, err)
				}
				if res.Recovered != 1 {
					t.Fatalf("every %d: %d recoveries, want 1", every, res.Recovered)
				}
				sameResult(t, fmt.Sprintf("%s checkpointed every %d", name, every), want, got)
			}
		})
	}
}

// TestFinishReadsValuesOnRequest: in a 2-process shm job whose last
// statement is its epoch loop, Finish without values puts on the wire
// only the frames of the report's collective (what one more Stats
// sends); with values, each member's segment crosses it too and both
// members return the whole array.
func TestFinishReadsValuesOnRequest(t *testing.T) {
	const src = "PROCESSORS P(2)\nREAL A(1:64)\n!HPF$ DISTRIBUTE A(BLOCK) TO P\nFORALL (I = 1:64) A(I) = I\n" +
		"DO K = 1, 3\n  A(2:64) = A(1:63)\nEND DO\n"
	for _, values := range []bool{false, true} {
		dir := t.TempDir()
		var wg sync.WaitGroup
		sent, stats, got, errs := make([]int64, 2), make([]int64, 2), make([][]float64, 2), make([]error, 2)
		for self := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tr, err := transport.Join(transport.Shm, transport.Config{Job: "finish-test", NP: 2, Procs: 2, Self: self,
					Dir: dir, Timeout: 10 * time.Second, Heartbeat: 10 * time.Second})
				if err != nil {
					errs[self] = err
					return
				}
				eng, err := engine.NewSPMDOn(tr, machine.DefaultCost())
				if err != nil {
					errs[self] = err
					return
				}
				defer eng.Close()
				j, err := interp.Config{Name: "finish", NP: 2}.PrepareOn(eng, src)
				if err == nil {
					err = j.Step(0, j.Iters)
				}
				if err != nil {
					errs[self] = err
					return
				}
				frames := func() int64 { return tr.(transport.WireCounter).Wire().FramesSent }
				before := frames()
				res, err := j.Finish(values)
				if err != nil {
					errs[self] = err
					return
				}
				sent[self], got[self], before = frames()-before, res.Values["A"], frames()
				eng.Stats()
				stats[self] = frames() - before
			}()
		}
		wg.Wait()
		for self, err := range errs {
			if err != nil {
				t.Fatalf("values=%v: member %d: %v", values, self, err)
			}
		}
		switch {
		case !values && (!slices.Equal(sent, stats) || got[0] != nil || got[1] != nil):
			t.Errorf("Finish(false): %v frames sent, %v for the report, values %v", sent, stats, got)
		case values && (sent[0]+sent[1] <= stats[0]+stats[1] || len(got[0]) != 64 || !slices.Equal(got[0], got[1])):
			t.Errorf("Finish(true): %v frames sent, %v for the report, values %v and %v", sent, stats, got[0], got[1])
		}
	}
}
