package workload

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"hpfnt/internal/engine"
	"hpfnt/internal/interp"
	"hpfnt/internal/machine"
)

// newEngine builds a fresh backend for the checkpoint tests.
func newEngine(t *testing.T, kind string, np int) engine.Engine {
	t.Helper()
	eng, err := engine.NewOn(kind, engine.InprocTransport, np, machine.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// jobPrograms are the corpus programs of package interp that stand for
// the jobs: the two-statement Jacobi relaxation, the in-place heat2d
// smoothing, and ringsweep, whose loop gathers through an inspector
// schedule and updates an INDIRECT-mapped array. The sparse CG gather
// and the mesh edge sweep have no program form (the language has no
// multi-term gather and no scatter-accumulate); the irregular tests
// drive NewSparseCG and RingMesh directly.
var jobPrograms = []string{"jacobi", "heat2d", "ringsweep"}

// corpusProgram loads a corpus program with its file options and ITERS
// set to iters.
func corpusProgram(t *testing.T, name string, iters int) (interp.Config, string) {
	t.Helper()
	src, err := interp.ReadSource(filepath.Join("..", "interp", "testdata", "programs", name+".hpf"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := interp.Config{Name: name, Params: map[string]int{"ITERS": iters}}
	if err := interp.ScanFileOptions(src, &cfg); err != nil {
		t.Fatal(err)
	}
	return cfg, src
}

// prepare builds the program's job on eng.
func prepare(t *testing.T, cfg interp.Config, src string, eng engine.Engine) *interp.Job {
	t.Helper()
	j, err := cfg.PrepareOn(eng, src)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// sameResult asserts identical output, values and machine report.
func sameResult(t *testing.T, label string, got, want *interp.Result) {
	t.Helper()
	if got.Output != want.Output {
		t.Fatalf("%s: output\n%s\nwant\n%s", label, got.Output, want.Output)
	}
	if got.Report.Logical() != want.Report.Logical() {
		t.Fatalf("%s: report differs:\n  got  %+v\n  want %+v", label, got.Report.Logical(), want.Report.Logical())
	}
	for _, name := range want.Names {
		if len(got.Values[name]) != len(want.Values[name]) {
			t.Fatalf("%s: %s has %d values, want %d", label, name, len(got.Values[name]), len(want.Values[name]))
		}
		for i, w := range want.Values[name] {
			if g := got.Values[name][i]; g != w {
				t.Fatalf("%s: %s[%d] = %g, want %g", label, name, i, g, w)
			}
		}
	}
}

// TestCheckpointRestoreRoundtrip is the rollback-correctness test on
// both backends and every job program: run k1 epochs, checkpoint, run
// k2 more; then rebuild from the checkpoint on a FRESH engine, replay
// the remaining k2 epochs, and demand output, values and machine
// report identical to the uninterrupted run. heat2d is the
// load-bearing case: its values depend on the full epoch history, so a
// wrong restore shows up in the data, not just the counters.
func TestCheckpointRestoreRoundtrip(t *testing.T) {
	const k1, k2 = 3, 4
	for _, kind := range engine.Kinds() {
		for _, name := range jobPrograms {
			t.Run(kind+"/"+name, func(t *testing.T) {
				dir := t.TempDir()
				cfg, src := corpusProgram(t, name, k1+k2)

				// Uninterrupted reference run.
				ref := prepare(t, cfg, src, newEngine(t, kind, cfg.NP))
				if err := ref.Step(0, k1+k2); err != nil {
					t.Fatal(err)
				}
				want, err := ref.Finish(true)
				if err != nil {
					t.Fatal(err)
				}

				// Interrupted run: checkpoint at epoch k1, then abandon
				// the engine mid-job (as a failure would).
				eng := newEngine(t, kind, cfg.NP)
				j := prepare(t, cfg, src, eng)
				if err := j.Step(0, k1); err != nil {
					t.Fatal(err)
				}
				if err := eng.Checkpoint(dir, k1, j.Arrays); err != nil {
					t.Fatal(err)
				}

				// Recovery: fresh engine, deterministic prologue, restore,
				// replay the remaining epochs.
				eng2 := newEngine(t, kind, cfg.NP)
				j2 := prepare(t, cfg, src, eng2)
				epoch, err := eng2.Restore(dir, j2.Arrays)
				if err != nil {
					t.Fatal(err)
				}
				if epoch != k1 {
					t.Fatalf("restored epoch %d, want %d", epoch, k1)
				}
				if err := j2.Step(k1, k2); err != nil {
					t.Fatal(err)
				}
				got, err := j2.Finish(true)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, "after recovery", got, want)
				if got.Report != want.Report {
					t.Fatalf("report after recovery differs:\n  recovered %+v\n  reference %+v", got.Report, want.Report)
				}
			})
		}
	}
}

// TestRestoreErrors pins the failure modes: no checkpoint published,
// and a checkpoint whose arrays disagree with the restoring job's in
// size or in number.
func TestRestoreErrors(t *testing.T) {
	for _, kind := range engine.Kinds() {
		t.Run(kind, func(t *testing.T) {
			cfg, src := corpusProgram(t, "heat2d", 2)
			eng := newEngine(t, kind, cfg.NP)
			j := prepare(t, cfg, src, eng)
			if _, err := eng.Restore(t.TempDir(), j.Arrays); !errors.Is(err, engine.ErrNoCheckpoint) {
				t.Fatalf("Restore from empty dir = %v, want ErrNoCheckpoint", err)
			}

			// Checkpoint heat2d at N=24, then try restoring into the
			// same program at N=16: must be refused, not mangled.
			dir := t.TempDir()
			if err := j.Step(0, 1); err != nil {
				t.Fatal(err)
			}
			if err := eng.Checkpoint(dir, 1, j.Arrays); err != nil {
				t.Fatal(err)
			}
			small, _ := corpusProgram(t, "heat2d", 2)
			small.Params["N"] = 16
			eng2 := newEngine(t, kind, small.NP)
			other := prepare(t, small, src, eng2)
			if _, err := eng2.Restore(dir, other.Arrays); err == nil || !strings.Contains(err.Error(), "checkpoint array 0 is A[576]") {
				t.Fatalf("restore of A[576] into A[256] = %v, want the size refused", err)
			}

			// Restore heat2d's one array into jacobi's two, on heat2d's
			// np so that the array count is what refuses it.
			jcfg, jsrc := corpusProgram(t, "jacobi", 2)
			jcfg.NP = cfg.NP
			eng3 := newEngine(t, kind, jcfg.NP)
			two := prepare(t, jcfg, jsrc, eng3)
			if _, err := eng3.Restore(dir, two.Arrays); err == nil || !strings.Contains(err.Error(), "checkpoint holds 1 arrays, restore got 2") {
				t.Fatalf("restore of 1 array into 2 = %v, want the count refused", err)
			}
		})
	}
}
