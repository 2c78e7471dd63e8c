package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// firstReal finds a program's first REAL declaration's first array.
var firstReal = regexp.MustCompile(`(?m)^REAL\s+(\w+)`)

// TestMapCorpusGolden maps every corpus program, with the owner table
// of its first REAL array, and compares the whole report with its
// golden in testdata/.
func TestMapCorpusGolden(t *testing.T) {
	progs, err := filepath.Glob("../../internal/interp/testdata/programs/*.hpf")
	if err != nil || len(progs) == 0 {
		t.Fatalf("no corpus programs: %v", err)
	}
	for _, path := range progs {
		name := strings.TrimSuffix(filepath.Base(path), ".hpf")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			first := firstReal.FindSubmatch(src)
			if first == nil {
				t.Fatal("no REAL declaration")
			}
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			if err := run(&b, path, 0, "", string(first[1]), false, false); err != nil {
				t.Fatal(err)
			}
			if got := b.String(); got != string(want) {
				t.Errorf("report differs from testdata/%s.golden:\n%s", name, got)
			}
		})
	}
}

// TestMapCorpusProgram maps a corpus program end to end and checks
// the owner output: hpfmap must honor the file's embedded !hpfrun:
// options and report every declared array's mapping.
func TestMapCorpusProgram(t *testing.T) {
	var b strings.Builder
	err := run(&b, "../../internal/interp/testdata/programs/jacobi.hpf", 0, "", "", false, false)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"U", "V", "per-processor elements:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	// jacobi pins -np 4 in its !hpfrun: line; BLOCK rows over 32 gives
	// 8 rows x 32 cols = 256 elements on each of the 4 processors.
	if !strings.Contains(out, "1:256 2:256 3:256 4:256") {
		t.Errorf("expected 4-way block counts in output:\n%s", out)
	}
}

// TestMapOwnersTable checks the per-element owner table path on an
// INDIRECT-distributed corpus program.
func TestMapOwnersTable(t *testing.T) {
	var b strings.Builder
	err := run(&b, "../../internal/interp/testdata/programs/gather.hpf", 0, "", "X", false, false)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "owner table of X") {
		t.Fatalf("missing owner table:\n%s", out)
	}
	// OWN = (/1,3,2,4,.../) pins element 1 to processor 1 and element
	// 2 to processor 3.
	if !strings.Contains(out, "(1) -> [1]") || !strings.Contains(out, "(2) -> [3]") {
		t.Errorf("owner table does not reflect the INDIRECT map:\n%s", out)
	}
}

// TestMapExplicitFlagsWin checks that an explicit -np overrides the
// file's !hpfrun: line.
func TestMapExplicitFlagsWin(t *testing.T) {
	var b strings.Builder
	err := run(&b, "../../internal/interp/testdata/programs/align.hpf", 8, "", "", false, false)
	if err != nil {
		t.Fatal(err)
	}
	// The file pins -np 4; the explicit 8 must win (P(4) still fits,
	// BLOCK over the 4-processor arrangement gives 16 elements each).
	if !strings.Contains(b.String(), "1:16 2:16 3:16 4:16") {
		t.Errorf("expected 4-way split of A(1:64) under -np 8:\n%s", b.String())
	}
}
