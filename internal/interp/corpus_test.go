package interp_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpfnt/hpf"
	"hpfnt/internal/engine"
	"hpfnt/internal/interp"
)

var update = flag.Bool("update", false, "rewrite the corpus golden fixtures from the element-wise oracle")

// oracleEngine selects runOracle in runCorpusProgram; it is not an
// engine kind.
const oracleEngine = "oracle"

// runOracle interprets src as cfg describes, but on the element-wise
// reference executor (engine.NewOracle) instead of an engine kind.
func runOracle(cfg interp.Config, src string) (*interp.Result, error) {
	np := cfg.NP
	if np == 0 {
		np = 8 // interp.Config's default
	}
	eng, err := engine.NewOracle(np, hpf.DefaultCost())
	if err != nil {
		return nil, err
	}
	prog, err := hpf.NewProgramOn(cfg.Name, eng)
	if err != nil {
		return nil, err
	}
	defer prog.Close()
	cfg.Apply(prog)
	return interp.NewWith(prog, cfg.Limits).Run(src)
}

// loadCorpus returns the corpus program paths.
func loadCorpus(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "programs", "*.hpf"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 6 {
		t.Fatalf("corpus has %d programs, want at least 6", len(paths))
	}
	return paths
}

// runCorpusProgram runs one corpus file on an explicit backend,
// honoring the file's embedded !hpfrun: options.
func runCorpusProgram(t *testing.T, path, engineKind, transportKind string) *interp.Result {
	t.Helper()
	src, err := interp.ReadSource(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := interp.Config{
		Name:      strings.TrimSuffix(filepath.Base(path), ".hpf"),
		Engine:    engineKind,
		Transport: transportKind,
	}
	if err := interp.ScanFileOptions(src, &cfg); err != nil {
		t.Fatal(err)
	}
	run := cfg.Run
	if engineKind == oracleEngine {
		run = func(src string) (*interp.Result, error) { return runOracle(cfg, src) }
	}
	res, err := run(src)
	if err != nil {
		t.Fatalf("%s on %s/%s: %v", path, engineKind, transportKind, err)
	}
	return res
}

// describeResult renders a result in the stable text form stored in
// the .golden fixtures: the PRINT output, then per-array checksums.
func describeResult(r *interp.Result) string {
	var b strings.Builder
	b.WriteString(r.Output)
	for _, name := range r.SortedNames() {
		sum := 0.0
		for _, v := range r.Values[name] {
			sum += v
		}
		fmt.Fprintf(&b, "array %s n=%d checksum=%s\n", name, len(r.Values[name]), formatChecksum(sum))
	}
	return b.String()
}

func formatChecksum(v float64) string { return strings.TrimSpace(fmt.Sprintf("%.17g", v)) }

// sameResult asserts the full identity contract between two runs:
// byte-identical PRINT output, element-identical values for every
// materialized array, and equal logical machine reports.
func sameResult(t *testing.T, label string, want, got *interp.Result) {
	t.Helper()
	if want.Output != got.Output {
		t.Errorf("%s: output differs\noracle:\n%s\ngot:\n%s", label, want.Output, got.Output)
	}
	if len(want.Names) != len(got.Names) {
		t.Fatalf("%s: oracle materialized %v, got %v", label, want.Names, got.Names)
	}
	for i := range want.Names {
		if want.Names[i] != got.Names[i] {
			t.Fatalf("%s: materialization order differs: oracle %v, got %v", label, want.Names, got.Names)
		}
	}
	for _, name := range want.Names {
		wv, gv := want.Values[name], got.Values[name]
		if len(wv) != len(gv) {
			t.Fatalf("%s: %s has %d elements on oracle, %d here", label, name, len(wv), len(gv))
		}
		for i := range wv {
			if wv[i] != gv[i] {
				t.Fatalf("%s: %s[%d] = %v on oracle, %v here", label, name, i, wv[i], gv[i])
			}
		}
	}
	if wl, gl := want.Report.Logical(), got.Report.Logical(); wl != gl {
		t.Errorf("%s: logical report differs\noracle: %+v\ngot:    %+v", label, wl, gl)
	}
}

// TestCorpusGolden checks every corpus program against its .golden
// fixture on the element-wise oracle, then asserts the full identity
// contract for every engine × transport combination. Regenerate
// fixtures with: go test ./internal/interp -run TestCorpusGolden -update
func TestCorpusGolden(t *testing.T) {
	for _, path := range loadCorpus(t) {
		name := strings.TrimSuffix(filepath.Base(path), ".hpf")
		t.Run(name, func(t *testing.T) {
			oracle := runCorpusProgram(t, path, oracleEngine, "")
			goldenPath := strings.TrimSuffix(path, ".hpf") + ".golden"
			text := describeResult(oracle)
			if *update {
				if err := os.WriteFile(goldenPath, []byte(text), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden fixture (run with -update): %v", err)
			}
			if string(want) != text {
				t.Errorf("golden mismatch for %s\nwant:\n%s\ngot:\n%s", name, want, text)
			}
			for _, engineKind := range hpf.Engines() {
				for _, transportKind := range hpf.Transports() {
					label := engineKind + "/" + transportKind
					t.Run(label, func(t *testing.T) {
						got := runCorpusProgram(t, path, engineKind, transportKind)
						sameResult(t, name+" on "+label, oracle, got)
					})
				}
			}
		})
	}
}

// TestTemplateCorpusCopyIsLocal runs template.hpf up to its B = A copy
// on every engine × transport: B is aligned to A through a template
// chain, so the copy must make no remote reference.
func TestTemplateCorpusCopyIsLocal(t *testing.T) {
	path := filepath.Join("testdata", "programs", "template.hpf")
	src, err := interp.ReadSource(path)
	if err != nil {
		t.Fatal(err)
	}
	const copyStmt = "B(1:N) = A(1:N)\n"
	cut := strings.Index(src, copyStmt)
	if cut < 0 {
		t.Fatalf("%s has no line %q", path, copyStmt)
	}
	src = src[:cut+len(copyStmt)]
	for _, engineKind := range hpf.Engines() {
		for _, transportKind := range hpf.Transports() {
			cfg := interp.Config{Name: "template-copy", Engine: engineKind, Transport: transportKind}
			if err := interp.ScanFileOptions(src, &cfg); err != nil {
				t.Fatal(err)
			}
			res, err := cfg.Run(src)
			if err != nil {
				t.Fatalf("%s/%s: %v", engineKind, transportKind, err)
			}
			if r := res.Report; r.RemoteRefs != 0 || r.LocalRefs == 0 {
				t.Errorf("%s/%s: B = A made %d remote and %d local refs, want 0 remote", engineKind, transportKind, r.RemoteRefs, r.LocalRefs)
			}
		}
	}
}
