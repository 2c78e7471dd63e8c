package interp_test

import (
	"runtime"
	"strings"
	"testing"

	"hpfnt/hpf"
	"hpfnt/internal/engine"
	"hpfnt/internal/interp"
	"hpfnt/internal/machine"
)

// TestInterpMatchesHandwritten is the oracle entry for the front end:
// the interpreted Jacobi program must produce exactly the values and
// logical report of the same computation written by hand against the
// hpf API. Interpretation must add zero model-level overhead — both
// paths build the same schedules on the same program.
func TestInterpMatchesHandwritten(t *testing.T) {
	const n, np, iters = 24, 4, 8
	src := `
PROCESSORS P(4)
PARAMETER N = 24
REAL U(1:N,1:N), V(1:N,1:N)
!HPF$ DISTRIBUTE (BLOCK,:) :: U, V
FORALL (I = 1:N, J = 1:N) U(I,J) = MOD(I*7 + J*3, 11)
FORALL (I = 1:N, J = 1:N) V(I,J) = 0
DO K = 1, 8
  V(2:N-1,2:N-1) = 0.25*U(1:N-2,2:N-1) + 0.25*U(3:N,2:N-1) + 0.25*U(2:N-1,1:N-2) + 0.25*U(2:N-1,3:N)
  U(2:N-1,2:N-1) = V(2:N-1,2:N-1)
END DO
`
	got, err := interp.Config{NP: np, Engine: "sim", Transport: "inproc"}.Run(src)
	if err != nil {
		t.Fatal(err)
	}

	// The same computation by hand.
	prog, err := hpf.NewProgramTransport("hand", "sim", "inproc", np, hpf.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	defer prog.Close()
	if err := prog.Exec(`
PROCESSORS P(4)
PARAMETER N = 24
REAL U(1:N,1:N), V(1:N,1:N)
!HPF$ DISTRIBUTE (BLOCK,:) :: U, V
`); err != nil {
		t.Fatal(err)
	}
	u, err := prog.NewArray("U")
	if err != nil {
		t.Fatal(err)
	}
	v, err := prog.NewArray("V")
	if err != nil {
		t.Fatal(err)
	}
	u.Fill(func(tp hpf.Tuple) float64 { return float64((tp[0]*7 + tp[1]*3) % 11) })
	v.Fill(func(hpf.Tuple) float64 { return 0 })
	inner := hpf.Shape(2, n-1, 2, n-1)
	for k := 0; k < iters; k++ {
		if err := v.Assign(inner,
			hpf.Read(u, 0.25, -1, 0), hpf.Read(u, 0.25, 1, 0),
			hpf.Read(u, 0.25, 0, -1), hpf.Read(u, 0.25, 0, 1)); err != nil {
			t.Fatal(err)
		}
		if err := u.Assign(inner, hpf.Read(v, 1, 0, 0)); err != nil {
			t.Fatal(err)
		}
	}

	for name, want := range map[string][]float64{"U": u.Data(), "V": v.Data()} {
		gv := got.Values[name]
		if len(gv) != len(want) {
			t.Fatalf("%s: %d elements interpreted, %d by hand", name, len(gv), len(want))
		}
		for i := range want {
			if gv[i] != want[i] {
				t.Fatalf("%s[%d]: interpreted %v, by hand %v", name, i, gv[i], want[i])
			}
		}
	}
	if wl, gl := prog.Stats().Logical(), got.Report.Logical(); wl != gl {
		t.Errorf("logical report differs\nby hand:     %+v\ninterpreted: %+v", wl, gl)
	}
}

// TestInterpErrors checks that malformed programs fail with
// positioned, descriptive errors — never panics.
func TestInterpErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown statement", "FROBNICATE A\n", "unknown statement"},
		{"unterminated DO", "PROCESSORS P(2)\nDO K = 1, 3\n", "DO without a matching END DO"},
		{"stray END DO", "END DO\n", "END DO without a matching DO"},
		{"out-of-range subscript", "PROCESSORS P(2)\nREAL A(1:8)\n!HPF$ DISTRIBUTE A(BLOCK) TO P\nA(1:9) = A(1:9)\n", "outside"},
		{"count mismatch", "PROCESSORS P(2)\nREAL A(1:8), B(1:8)\n!HPF$ DISTRIBUTE (BLOCK) :: A, B\nA(1:4) = B(1:6)\n", "elements"},
		{"stride mismatch", "PROCESSORS P(2)\nREAL A(1:8), B(1:16)\n!HPF$ DISTRIBUTE (BLOCK) :: A, B\nA(1:4) = B(1:8:2)\n", "stride"},
		{"unknown array", "A(1:4) = A(1:4)\n", "unknown array"},
		{"unknown identifier", "PROCESSORS P(2)\nREAL A(1:8)\n!HPF$ DISTRIBUTE A(BLOCK) TO P\nA(1:Q) = A(1:Q)\n", "unknown identifier"},
		{"zero DO step", "PROCESSORS P(2)\nDO K = 1, 3, 0\nEND DO\n", "step must be nonzero"},
		{"bad redistribute target", "PROCESSORS P(2)\nREAL A(1:8)\n!HPF$ DYNAMIC A\n!HPF$ DISTRIBUTE A(BLOCK) TO P\n!HPF$ REDISTRIBUTE A(CYCLIC) TO\n", "line 5"},
		{"forall partial range", "PROCESSORS P(2)\nREAL A(1:8)\n!HPF$ DISTRIBUTE A(BLOCK) TO P\nFORALL (I = 2:8) A(I) = I\n", "span"},
		{"print outside", "PROCESSORS P(2)\nREAL A(1:8)\n!HPF$ DISTRIBUTE A(BLOCK) TO P\nFORALL (I = 1:8) A(I) = I\nPRINT A(9)\n", "outside"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := interp.Config{NP: 2, Engine: "sim"}.Run(tc.src)
			if err == nil {
				t.Fatalf("program accepted, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestStatementBudget bounds runaway loops.
func TestStatementBudget(t *testing.T) {
	src := `
PROCESSORS P(2)
REAL A(1:8)
!HPF$ DISTRIBUTE A(BLOCK) TO P
FORALL (I = 1:8) A(I) = I
DO K = 1, 1000000
  PRINT SUM(A)
END DO
`
	cfg := interp.Config{NP: 2, Engine: "sim", Limits: interp.Options{MaxStatements: 100}}
	_, err := cfg.Run(src)
	if err == nil || !strings.Contains(err.Error(), "statement budget") {
		t.Fatalf("want statement-budget error, got %v", err)
	}
}

// TestElemCap bounds materialization size.
func TestElemCap(t *testing.T) {
	src := `
PROCESSORS P(2)
REAL A(1:4096)
!HPF$ DISTRIBUTE A(BLOCK) TO P
FORALL (I = 1:4096) A(I) = I
`
	cfg := interp.Config{NP: 2, Engine: "sim", Limits: interp.Options{MaxElems: 64}}
	_, err := cfg.Run(src)
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("want element-cap error, got %v", err)
	}
}

// TestCheck exercises the parse-only entry point.
func TestCheck(t *testing.T) {
	if err := interp.Check("PROCESSORS P(2)\nDO K = 1, 3\nEND DO\n"); err != nil {
		t.Fatal(err)
	}
	if err := interp.Check("DO K = 1\n"); err == nil {
		t.Fatal("malformed DO header accepted")
	}
}

// TestScanFileOptions covers the embedded !hpfrun: options line.
func TestScanFileOptions(t *testing.T) {
	src := "! comment\n!hpfrun: -np 6 -param N=48,ITERS=5 -vienna\nPROCESSORS P(6)\n"
	var cfg interp.Config
	if err := interp.ScanFileOptions(src, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.NP != 6 || !cfg.Vienna || cfg.Params["N"] != 48 || cfg.Params["ITERS"] != 5 {
		t.Fatalf("bad parsed config: %+v", cfg)
	}
	// Explicit values win over the file's.
	cfg2 := interp.Config{NP: 3, Params: map[string]int{"N": 8}}
	if err := interp.ScanFileOptions(src, &cfg2); err != nil {
		t.Fatal(err)
	}
	if cfg2.NP != 3 || cfg2.Params["N"] != 8 || cfg2.Params["ITERS"] != 5 {
		t.Fatalf("explicit config overridden: %+v", cfg2)
	}
	if err := interp.ScanFileOptions("!hpfrun: -np nope\n", &interp.Config{}); err == nil {
		t.Fatal("bad -np accepted")
	}
}

// TestParseParams covers the NAME=VALUE list parser.
func TestParseParams(t *testing.T) {
	params := map[string]int{}
	if err := interp.ParseParams("n=4, M=9", params); err != nil {
		t.Fatal(err)
	}
	if params["N"] != 4 || params["M"] != 9 {
		t.Fatalf("bad params: %v", params)
	}
	if err := interp.ParseParams("N", params); err == nil {
		t.Fatal("bad list accepted")
	}
}

// TestRedistributeMovesSchedules checks that mapping directives drop
// compiled schedules and remap materialized arrays mid-run (values
// must reflect the statement stream regardless of when the remap
// happened).
func TestRedistributeMovesSchedules(t *testing.T) {
	src := `
PROCESSORS P(4)
PARAMETER N = 32
REAL A(1:N), B(1:N)
!HPF$ DYNAMIC A
!HPF$ DISTRIBUTE A(BLOCK) TO P
!HPF$ DISTRIBUTE B(BLOCK) TO P
FORALL (I = 1:N) A(I) = I
FORALL (I = 1:N) B(I) = 0
B(2:N) = A(1:N-1)
!HPF$ REDISTRIBUTE A(CYCLIC) TO P
B(2:N) = A(1:N-1)
PRINT SUM(B)
`
	sim, err := interp.Config{NP: 4, Engine: "sim"}.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	spmd, err := interp.Config{NP: 4, Engine: "spmd"}.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Output != spmd.Output {
		t.Fatalf("outputs differ: sim %q spmd %q", sim.Output, spmd.Output)
	}
	// B(i) = i-1 for i in 2..N after either assignment.
	b := sim.Values["B"]
	for i := 1; i < len(b); i++ {
		if b[i] != float64(i) {
			t.Fatalf("B[%d] = %v, want %v", i, b[i], float64(i))
		}
	}
}

// TestRedistributeLeavesBystandersAlone: every REDISTRIBUTE line remaps
// all materialized arrays, and an array whose mapping the line did not
// change must cost nothing — no new layout, no segment, no copy, no
// traffic. B is 18 000 times A's size; redistributing A three times
// must allocate less than two of B's value vectors (one is the result
// of Run; rebuilding B's layout and segments alone would take three
// and a half per line), charge exactly what the same program without B
// charges, and leave B's values where they were.
func TestRedistributeLeavesBystandersAlone(t *testing.T) {
	const m = 384
	declare := func(withB bool) string {
		src := "PROCESSORS P(4)\nPARAMETER N = 8, M = 384\nREAL A(1:N)\n!HPF$ DYNAMIC A\n!HPF$ DISTRIBUTE A(BLOCK) TO P\n" +
			"FORALL (I = 1:N) A(I) = I\n"
		if withB {
			src += "REAL B(1:M,1:M)\n!HPF$ DISTRIBUTE B(BLOCK,:) TO P\nFORALL (I = 1:M, J = 1:M) B(I,J) = I + 1000*J\n"
		}
		return src
	}
	const body = "!HPF$ REDISTRIBUTE A(CYCLIC) TO P\n!HPF$ REDISTRIBUTE A(BLOCK) TO P\n!HPF$ REDISTRIBUTE A(CYCLIC) TO P\nPRINT SUM(A)\n"
	type outcome struct {
		res    *interp.Result
		frames int64
		bytes  uint64
	}
	run := func(kind string, withB bool) outcome {
		eng, err := engine.New(kind, 4, machine.DefaultCost())
		if err != nil {
			t.Fatal(err)
		}
		prog, err := hpf.NewProgramOn("main", eng)
		if err != nil {
			t.Fatal(err)
		}
		defer prog.Close()
		ip := interp.New(prog)
		if _, err := ip.Run(declare(withB)); err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := ip.Run(body)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{res, eng.Detail().WireFrames, m1.TotalAlloc - m0.TotalAlloc}
	}
	alone, both, sim := run(engine.SPMD, false), run(engine.SPMD, true), run(engine.Sim, true)
	if both.res.Output != alone.res.Output || both.res.Output != sim.res.Output {
		t.Errorf("output %q with B, %q without, %q on sim", both.res.Output, alone.res.Output, sim.res.Output)
	}
	if got, want := both.res.Report.Logical(), alone.res.Report.Logical(); got != want {
		t.Errorf("report with the bystander\n got  %+v\n want %+v", got, want)
	}
	if got, want := both.res.Report.Logical(), sim.res.Report.Logical(); got != want {
		t.Errorf("report on spmd\n got  %+v\n sim  %+v", got, want)
	}
	if both.frames != alone.frames || both.frames == 0 {
		t.Errorf("%d wire frames with the bystander, %d without", both.frames, alone.frames)
	}
	if both.bytes > 2*8*m*m {
		t.Errorf("three REDISTRIBUTE A lines allocate %d bytes beside a B of %d", both.bytes, 8*m*m)
	}
	b := both.res.Values["B"]
	for j := 1; j <= m; j++ {
		for i := 1; i <= m; i++ {
			if got, want := b[(j-1)*m+i-1], float64(i+1000*j); got != want {
				t.Fatalf("B(%d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
}
