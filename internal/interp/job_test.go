package interp_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

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
							got, err = j.Finish()
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
