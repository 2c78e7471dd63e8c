package hpf

import (
	"strings"
	"testing"
)

func newProg(t *testing.T, np int) *Program {
	t.Helper()
	p, err := NewProgram("test", np)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestQuickstartFlow(t *testing.T) {
	prog := newProg(t, 8)
	prog.SetParam("N", 32)
	err := prog.Exec(`
		PROCESSORS P(8)
		REAL A(1:N,1:N), B(1:N,1:N)
		!HPF$ DISTRIBUTE (BLOCK,:) TO P :: A, B
	`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := prog.NewArray("A")
	if err != nil {
		t.Fatal(err)
	}
	b, err := prog.NewArray("B")
	if err != nil {
		t.Fatal(err)
	}
	a.Fill(func(tu Tuple) float64 { return float64(tu[0]) })
	interior := Shape(2, 31, 2, 31)
	err = b.Assign(interior,
		Read(a, 0.25, -1, 0), Read(a, 0.25, 1, 0),
		Read(a, 0.25, 0, -1), Read(a, 0.25, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Laplacian of f(i)=i is i again.
	if got := b.At(TupleOf(10, 10)); got != 10 {
		t.Fatalf("B(10,10) = %f", got)
	}
	r := prog.Stats()
	if r.RemoteRefs == 0 || r.Messages == 0 {
		t.Fatalf("expected boundary communication, got %+v", r)
	}
}

func TestProgrammaticAPI(t *testing.T) {
	prog := newProg(t, 4)
	tg, err := prog.Processors("P", Shape(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Declare("A", Shape(1, 16)); err != nil {
		t.Fatal(err)
	}
	if err := prog.Distribute("A", []Format{BLOCK}, tg); err != nil {
		t.Fatal(err)
	}
	info, err := prog.Inquire("A")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Direct || info.NP != 4 {
		t.Fatalf("info = %+v", info)
	}
	tg2, err := prog.TargetOf("P")
	if err != nil || !tg2.Equal(tg) {
		t.Fatalf("TargetOf: %v", err)
	}
	if _, err := prog.TargetOf("NOPE"); err == nil {
		t.Fatal("unknown arrangement must fail")
	}
}

func TestSectionTargetAPI(t *testing.T) {
	prog := newProg(t, 8)
	if _, err := prog.Processors("Q", Shape(1, 8)); err != nil {
		t.Fatal(err)
	}
	sp, err := Span(1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := prog.SectionTarget("Q", sp)
	if err != nil {
		t.Fatal(err)
	}
	if tg.NP() != 4 {
		t.Fatalf("NP = %d", tg.NP())
	}
	if _, err := prog.SectionTarget("NOPE", sp); err == nil {
		t.Fatal("unknown arrangement must fail")
	}
}

func TestRemapAfterRedistribute(t *testing.T) {
	prog := newProg(t, 4)
	err := prog.Exec(`
		PROCESSORS P(4)
		REAL A(16)
		!HPF$ DYNAMIC A
		!HPF$ DISTRIBUTE A(BLOCK) TO P
	`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := prog.NewArray("A")
	if err != nil {
		t.Fatal(err)
	}
	a.Fill(func(tu Tuple) float64 { return float64(tu[0] * 10) })
	if err := prog.Exec("!HPF$ REDISTRIBUTE A(CYCLIC) TO P"); err != nil {
		t.Fatal(err)
	}
	moved, err := a.Remap()
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("remap must move elements")
	}
	if a.At(TupleOf(7)) != 70 {
		t.Fatal("values must survive remap")
	}
	r := prog.Stats()
	if r.ElementsMoved != int64(moved) {
		t.Fatalf("machine recorded %d, remap reported %d", r.ElementsMoved, moved)
	}
	prog.ResetStats()
	if prog.Stats().ElementsMoved != 0 {
		t.Fatal("ResetStats failed")
	}
}

func TestAssignMixed(t *testing.T) {
	prog := newProg(t, 4)
	err := prog.Exec(`
		PROCESSORS P(4)
		REAL D(8,4), E(8,4), A(8)
		!HPF$ DISTRIBUTE (BLOCK,:) TO P :: D, E
		!HPF$ ALIGN A(:) WITH D(:,*)
	`)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := prog.NewArray("D")
	e, _ := prog.NewArray("E")
	a, err := prog.NewArray("A")
	if err != nil {
		t.Fatal(err)
	}
	d.Fill(func(tu Tuple) float64 { return float64(tu[0] + tu[1]) })
	a.Fill(func(tu Tuple) float64 { return float64(100 * tu[0]) })
	err = e.Assign(e.Shape(), Read(d, 1, 0, 0),
		AssignTerm{Src: a, Coeff: 1, Access: Access{{Dim: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.At(TupleOf(3, 2)); got != 3+2+300 {
		t.Fatalf("E(3,2) = %f", got)
	}
}

func TestCallThroughFacade(t *testing.T) {
	prog := newProg(t, 8)
	err := prog.Exec(`
		PROCESSORS P(8)
		REAL A(100)
		!HPF$ DISTRIBUTE A(CYCLIC) TO P
	`)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := prog.Call("SUB", []DummySpec{{Name: "X", Mode: Inherit}}, []Actual{{Name: "A"}})
	if err != nil {
		t.Fatal(err)
	}
	if fr.Bindings[0].RemapIn != 0 {
		t.Fatal("inherit must be free")
	}
	if err := fr.Return(); err != nil {
		t.Fatal(err)
	}
}

func TestEnableTemplatesAndViennaToggle(t *testing.T) {
	prog := newProg(t, 4)
	prog.EnableTemplates()
	prog.UseViennaBlock(true)
	err := prog.Exec(`
		PROCESSORS P(4)
		REAL A(9)
		!HPF$ TEMPLATE T(9)
		!HPF$ ALIGN A(I) WITH T(I)
		!HPF$ DISTRIBUTE T(BLOCK) TO P
	`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := prog.MappingOf("A")
	if err != nil {
		t.Fatal(err)
	}
	os, err := m.AppendOwners(nil, TupleOf(9))
	if err != nil {
		t.Fatal(err)
	}
	if os[0] != 4 {
		t.Fatalf("A(9) on %v", os)
	}
	if !strings.Contains(m.Describe(), "template") {
		t.Fatalf("Describe = %q", m.Describe())
	}
}

// TestInquireTemplateAligned: an array aligned to a template, directly
// or through a chain, is described by the composed mapping that
// resolves its owners: held by all four processors, and aligned.
func TestInquireTemplateAligned(t *testing.T) {
	prog := newProg(t, 4)
	prog.EnableTemplates()
	err := prog.Exec(`
		PROCESSORS P(4)
		REAL A(1:32), B(1:32), C(1:32)
		!HPF$ TEMPLATE T(1:65)
		!HPF$ ALIGN A(I) WITH T(2*I+1)
		!HPF$ ALIGN B(I) WITH A(I)
		!HPF$ ALIGN C(I) WITH T(I)
		!HPF$ DISTRIBUTE T(BLOCK) TO P
	`)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"A", "B", "C"} {
		info, err := prog.Inquire(name)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(info.Render(), "np=4 aligned") || info.Direct || info.Replicated {
			t.Errorf("%s: %s, want np=4 aligned", name, info.Render())
		}
	}
}

func TestFormatConstructors(t *testing.T) {
	if CYCLICK(3).String() != "CYCLIC(3)" {
		t.Fatal("CYCLICK wrong")
	}
	if GENERALBLOCK(4, 8).String() != "GENERAL_BLOCK(/4,8/)" {
		t.Fatal("GENERALBLOCK wrong")
	}
	if BLOCK.String() != "BLOCK" || COLON.String() != ":" || CYCLIC.String() != "CYCLIC" {
		t.Fatal("format constants wrong")
	}
	if BLOCKVienna.Kind().String() != "BLOCK" {
		t.Fatal("Vienna block kind wrong")
	}
}

func TestDimSpanShape(t *testing.T) {
	d := Dim(2, 6)
	if d.Count() != 5 {
		t.Fatalf("Dim count = %d", d.Count())
	}
	if _, err := Span(1, 10, 0); err == nil {
		t.Fatal("zero stride must fail")
	}
	sh := Shape(0, 4, 1, 3)
	if sh.Rank() != 2 || sh.Size() != 15 {
		t.Fatalf("Shape = %v", sh)
	}
}

func TestNewProgramValidation(t *testing.T) {
	if _, err := NewProgram("x", 0); err == nil {
		t.Fatal("np=0 must fail")
	}
}

func TestReduceThroughFacade(t *testing.T) {
	prog := newProg(t, 4)
	err := prog.Exec(`
		PROCESSORS P(4)
		REAL A(100)
		!HPF$ DISTRIBUTE A(BLOCK) TO P
	`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := prog.NewArray("A")
	if err != nil {
		t.Fatal(err)
	}
	a.Fill(func(tu Tuple) float64 { return float64(tu[0]) })
	sum, err := a.Reduce(Sum)
	if err != nil || sum != 5050 {
		t.Fatalf("sum = %f, %v", sum, err)
	}
	max, err := a.Reduce(Max)
	if err != nil || max != 100 {
		t.Fatalf("max = %f, %v", max, err)
	}
	if prog.Stats().Messages == 0 {
		t.Fatal("reduction must record combine messages")
	}
}

func TestScheduleThroughFacade(t *testing.T) {
	prog := newProg(t, 4)
	prog.SetParam("N", 32)
	err := prog.Exec(`
		PROCESSORS P(4)
		REAL A(1:N,1:N), B(1:N,1:N)
		!HPF$ DISTRIBUTE (BLOCK,:) TO P :: A, B
	`)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := prog.NewArray("A")
	b, err := prog.NewArray("B")
	if err != nil {
		t.Fatal(err)
	}
	a.Fill(func(tu Tuple) float64 { return float64(tu[0]) })
	sched, err := b.NewSchedule(Shape(2, 31, 2, 31),
		Read(a, 0.25, -1, 0), Read(a, 0.25, 1, 0),
		Read(a, 0.25, 0, -1), Read(a, 0.25, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if sched.GhostElements() == 0 {
		t.Fatal("expected boundary ghost elements")
	}
	for i := 0; i < 3; i++ {
		if err := sched.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.At(TupleOf(10, 10)); got != 10 {
		t.Fatalf("B(10,10) = %f", got)
	}
	r := prog.Stats()
	if r.ElementsMoved != int64(3*sched.GhostElements()) {
		t.Fatalf("moved %d, want 3x%d", r.ElementsMoved, sched.GhostElements())
	}
}

func TestIndirectThroughFacade(t *testing.T) {
	f, err := INDIRECT([]int{1, 2, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	prog := newProg(t, 2)
	tg, err := prog.Processors("P", Shape(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Declare("A", Shape(1, 4)); err != nil {
		t.Fatal(err)
	}
	if err := prog.Distribute("A", []Format{f}, tg); err != nil {
		t.Fatal(err)
	}
	m, _ := prog.MappingOf("A")
	os, err := m.AppendOwners(nil, TupleOf(3))
	if err != nil || os[0] != 1 {
		t.Fatalf("A(3) on %v, %v", os, err)
	}
	if _, err := INDIRECT([]int{0}); err == nil {
		t.Fatal("invalid owner vector must fail")
	}
}

// runJacobiProgram is TestQuickstartFlow's core, parameterized by
// backend, returning the computed checksum and the machine report.
func runJacobiProgram(t *testing.T, kind string) (float64, Report) {
	t.Helper()
	prog, err := NewProgramEngine("both", kind, 8, DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	defer prog.Close()
	prog.SetParam("N", 32)
	err = prog.Exec(`
		PROCESSORS P(8)
		REAL A(1:N,1:N), B(1:N,1:N)
		!HPF$ DISTRIBUTE (BLOCK,:) TO P :: A, B
	`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := prog.NewArray("A")
	if err != nil {
		t.Fatal(err)
	}
	b, err := prog.NewArray("B")
	if err != nil {
		t.Fatal(err)
	}
	a.Fill(func(tu Tuple) float64 { return float64(tu[0]*3 + tu[1]) })
	sched, err := b.NewSchedule(Shape(2, 31, 2, 31),
		Read(a, 0.25, -1, 0), Read(a, 0.25, 1, 0),
		Read(a, 0.25, 0, -1), Read(a, 0.25, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.RunN(4); err != nil {
		t.Fatal(err)
	}
	sum, err := b.Reduce(Sum)
	if err != nil {
		t.Fatal(err)
	}
	return sum, prog.Stats()
}

// TestEnginesProduceIdenticalResults runs the same program on both
// backends and requires identical values and statistics.
func TestEnginesProduceIdenticalResults(t *testing.T) {
	simSum, simRep := runJacobiProgram(t, "sim")
	spmdSum, spmdRep := runJacobiProgram(t, "spmd")
	if simSum != spmdSum {
		t.Fatalf("sums differ: sim %g, spmd %g", simSum, spmdSum)
	}
	if simRep != spmdRep {
		t.Fatalf("reports differ:\n sim  %+v\n spmd %+v", simRep, spmdRep)
	}
}

// TestReplicatedRemapSpreadsSenders remaps a partially replicated
// array (ALIGN A(:) WITH D(:,*)) to a direct block mapping on both
// backends: moved counts and statistics must match, and the remap
// traffic must originate from more than one replica holder (the
// per-destination sender choice).
func TestReplicatedRemapSpreadsSenders(t *testing.T) {
	run := func(kind string) (int, Report, int) {
		prog, err := NewProgramEngine("repremap", kind, 8, DefaultCost())
		if err != nil {
			t.Fatal(err)
		}
		defer prog.Close()
		err = prog.Exec(`
			PROCESSORS G(2,4)
			PROCESSORS Q(8)
			REAL D(16,8), A(16), B(16)
			!HPF$ DISTRIBUTE D(BLOCK,BLOCK) TO G
			!HPF$ ALIGN A(:) WITH D(:,*)
			!HPF$ DISTRIBUTE B(CYCLIC) TO Q
		`)
		if err != nil {
			t.Fatal(err)
		}
		a, err := prog.NewArray("A")
		if err != nil {
			t.Fatal(err)
		}
		if !a.Replicated() {
			t.Fatal("A must be replicated across the collapsed grid dimension")
		}
		a.Fill(func(tu Tuple) float64 { return float64(tu[0] * 4) })
		bm, err := prog.MappingOf("B")
		if err != nil {
			t.Fatal(err)
		}
		moved, err := a.RemapTo(bm)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 16; i++ {
			if a.At(TupleOf(i)) != float64(i*4) {
				t.Fatalf("%s: A(%d) changed across remap", kind, i)
			}
		}
		senders := map[int]bool{}
		for _, e := range prog.Machine.TrafficMatrix() {
			senders[e.Src] = true
		}
		return moved, prog.Stats(), len(senders)
	}
	simMoved, simRep, simSenders := run("sim")
	spmdMoved, spmdRep, spmdSenders := run("spmd")
	if simMoved != spmdMoved {
		t.Fatalf("moved: sim %d, spmd %d", simMoved, spmdMoved)
	}
	if simRep != spmdRep {
		t.Fatalf("reports differ:\n sim  %+v\n spmd %+v", simRep, spmdRep)
	}
	if simSenders < 2 || spmdSenders < 2 {
		t.Fatalf("remap traffic must spread over replica holders: sim %d senders, spmd %d", simSenders, spmdSenders)
	}
}

// TestIrregularGatherScatter drives the inspector–executor facade:
// an INDIRECT-distributed source gathered through an indirection
// vector, scatter-add back, and schedule reuse with RunN.
func TestIrregularGatherScatter(t *testing.T) {
	const n, np = 30, 5
	prog := newProg(t, np)
	owner := make([]int, n)
	for i := range owner {
		owner[i] = (i*3)%np + 1
	}
	indir, err := INDIRECT(owner)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := prog.Processors("P", Shape(1, np))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"X", "Y", "Z"} {
		if err := prog.Declare(name, Shape(1, n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := prog.Distribute("X", []Format{indir}, tg); err != nil {
		t.Fatal(err)
	}
	if err := prog.Distribute("Y", []Format{BLOCK}, tg); err != nil {
		t.Fatal(err)
	}
	if err := prog.Distribute("Z", []Format{CYCLIC}, tg); err != nil {
		t.Fatal(err)
	}
	x, err := prog.NewArray("X")
	if err != nil {
		t.Fatal(err)
	}
	y, err := prog.NewArray("Y")
	if err != nil {
		t.Fatal(err)
	}
	z, err := prog.NewArray("Z")
	if err != nil {
		t.Fatal(err)
	}
	x.Fill(func(tu Tuple) float64 { return float64(10 * tu[0]) })

	// Gather: Y(i) = X(V(i)) with V(i) = (i*7 mod n) + 1.
	idx, writes := make([]int, n), make([]int, n)
	for i := range idx {
		idx[i], writes[i] = (i*7)%n+1, i+1
	}
	sched, err := y.NewIrregular(x, writes, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if got := y.At(TupleOf(i)); got != float64(10*idx[i-1]) {
			t.Fatalf("Y(%d) = %g, want %g", i, got, float64(10*idx[i-1]))
		}
	}

	// Scatter-add: Z(W(i)) = Σ Y(i) over duplicate targets.
	w := make([]int, n)
	for i := range w {
		w[i] = i/2 + 1 // each target named twice
	}
	scatter, err := z.NewIrregular(y, w, writes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := scatter.Run(); err != nil {
		t.Fatal(err)
	}
	for j := 1; j <= n/2; j++ {
		want := y.At(TupleOf(2*j-1)) + y.At(TupleOf(2*j))
		if got := z.At(TupleOf(j)); got != want {
			t.Fatalf("Z(%d) = %g, want %g", j, got, want)
		}
	}
	for j := n/2 + 1; j <= n; j++ {
		if got := z.At(TupleOf(j)); got != 0 {
			t.Fatalf("Z(%d) = %g, want untouched 0", j, got)
		}
	}

	// Schedule reuse: replaying the compiled irregular gather leaves
	// values fixed and needs no re-analysis.
	if sched.GhostElements() == 0 || sched.Messages() == 0 {
		t.Fatalf("irregular gather should communicate: ghost %d, msgs %d", sched.GhostElements(), sched.Messages())
	}
	if err := sched.RunN(4); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if got := y.At(TupleOf(i)); got != float64(10*idx[i-1]) {
			t.Fatalf("replayed Y(%d) = %g", i, got)
		}
	}

	// Remap invalidates; rebuild works.
	if _, err := x.RemapTo(y.Mapping()); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(); err == nil || !strings.Contains(err.Error(), "invalidated by remap") {
		t.Fatalf("stale irregular schedule ran: %v", err)
	}
	sched2, err := y.NewIrregular(x, writes, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched2.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestIrregularAPIErrors covers the facade validation: rank, index
// bounds, and length mismatches.
func TestIrregularAPIErrors(t *testing.T) {
	prog := newProg(t, 2)
	tg, err := prog.Processors("P", Shape(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Declare("M", Shape(1, 4, 1, 4)); err != nil {
		t.Fatal(err)
	}
	if err := prog.Declare("V", Shape(1, 8)); err != nil {
		t.Fatal(err)
	}
	if err := prog.Distribute("M", []Format{BLOCK, COLON}, tg); err != nil {
		t.Fatal(err)
	}
	if err := prog.Distribute("V", []Format{BLOCK}, tg); err != nil {
		t.Fatal(err)
	}
	m, err := prog.NewArray("M")
	if err != nil {
		t.Fatal(err)
	}
	v, err := prog.NewArray("V")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.NewIrregular(v, []int{1}, []int{1}, nil); err == nil {
		t.Fatal("rank-2 lhs accepted")
	}
	if _, err := v.NewIrregular(v, []int{1, 2}, []int{1}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := v.NewIrregular(v, []int{9}, []int{1}, nil); err == nil {
		t.Fatal("out-of-domain write accepted")
	}
	if _, err := v.NewIrregular(v, []int{1}, []int{0}, nil); err == nil {
		t.Fatal("out-of-domain read accepted")
	}
	if _, err := v.NewIrregular(v, []int{1}, []int{1}, []float64{1, 2}); err == nil {
		t.Fatal("coefficient length mismatch accepted")
	}
}
