package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommand builds the command and drives it as a user would: -list
// names every experiment, an unknown id fails naming itself, and a
// selected experiment runs and prints its claim checks.
func TestCommand(t *testing.T) {
	bin := build(t)
	exitCode := func(err error) int {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return ee.ExitCode()
		}
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return 0
	}

	out, err := exec.Command(bin, "-list").CombinedOutput()
	if code := exitCode(err); code != 0 {
		t.Fatalf("-list exited %d:\n%s", code, out)
	}
	var ids []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		ids = append(ids, strings.Fields(line)[0])
	}
	want := "E1 E2 E2b E3 E4 E5 E6 E7 E8 E9 E10 E11 E12 E13"
	if got := strings.Join(ids, " "); got != want {
		t.Errorf("-list ids = %s, want %s", got, want)
	}

	out, err = exec.Command(bin, "E1", "E99").CombinedOutput()
	if code := exitCode(err); code != 1 || !strings.Contains(string(out), `"E99"`) {
		t.Errorf("unknown id: exit %d, want 1 naming \"E99\":\n%s", code, out)
	}

	out, err = exec.Command(bin, "e1").CombinedOutput()
	if code := exitCode(err); code != 0 {
		t.Fatalf("E1 exited %d:\n%s", code, out)
	}
	if !strings.Contains(string(out), "== E1:") || !strings.Contains(string(out), "[PASS]") || strings.Contains(string(out), "[FAIL]") {
		t.Errorf("E1 did not print its passing checks:\n%s", out)
	}
}

// TestExperimentsGolden: the full E1–E13 output is deterministic and
// the same on both engine kinds, byte for byte that of
// testdata/experiments.golden. A change that moves a count, a
// placement or a message in any experiment shows here. Regenerate
// with go run ./cmd/hpfbench > cmd/hpfbench/testdata/experiments.golden
// after checking the difference is intended.
func TestExperimentsGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "experiments.golden"))
	if err != nil {
		t.Fatal(err)
	}
	bin := build(t)
	for _, kind := range []string{"sim", "spmd"} {
		out, err := exec.Command(bin, "-engine", kind).Output()
		if err != nil {
			t.Fatalf("-engine %s: %v", kind, err)
		}
		if !bytes.Equal(out, want) {
			t.Errorf("-engine %s output differs from testdata/experiments.golden:\n%s", kind, out)
		}
	}
}

// build compiles the command into a temporary directory.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hpfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}
