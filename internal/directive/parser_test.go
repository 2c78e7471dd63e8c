package directive

import (
	"strings"
	"testing"

	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/index"
	"hpfnt/internal/inquiry"
	"hpfnt/internal/proc"
	"hpfnt/internal/template"
)

func newInterp(t *testing.T, np int) *Interp {
	t.Helper()
	sys, err := proc.NewSystem(np)
	if err != nil {
		t.Fatal(err)
	}
	return New(core.NewUnit("MAIN", sys))
}

func exec(t *testing.T, ip *Interp, src string) {
	t.Helper()
	if err := ip.ExecProgram(src); err != nil {
		t.Fatalf("ExecProgram: %v", err)
	}
}

func owners(t *testing.T, ip *Interp, name string, i ...int) []int {
	t.Helper()
	m, err := ip.MappingOf(name)
	if err != nil {
		t.Fatal(err)
	}
	os, err := m.Owners(index.Tuple(i))
	if err != nil {
		t.Fatal(err)
	}
	return os
}

func TestPaperSection4Examples(t *testing.T) {
	// The four DISTRIBUTE examples of §4 verbatim.
	ip := newInterp(t, 32)
	ip.SetParam("NOP", 8)
	ip.SetParamArray("S", []int{10, 30, 60, 100, 150, 250, 500})
	exec(t, ip, `
		PROCESSORS Q(8), R(32)
		REAL A(100), B(64), C(1000), E(32,32), F(32,32)
		!HPF$ DISTRIBUTE A(BLOCK)
		!HPF$ DISTRIBUTE B(CYCLIC) TO Q(1:NOP:2)
		!HPF$ DISTRIBUTE C(GENERAL_BLOCK(S)) TO Q
		!HPF$ DISTRIBUTE (BLOCK, :) :: E,F
	`)
	// A: implicit target, BLOCK over 32 procs: q = ceil(100/32) = 4.
	if os := owners(t, ip, "A", 5); os[0] != 2 {
		t.Fatalf("A(5) on %v", os)
	}
	// B: cyclic over Q(1:8:2) = APs {1,3,5,7}.
	for i := 1; i <= 8; i++ {
		os := owners(t, ip, "B", i)
		if os[0]%2 == 0 {
			t.Fatalf("B(%d) on even processor %v (outside section)", i, os)
		}
	}
	// C: general block bounds 10,30,...: C(15) in block 2 -> AP 2.
	if os := owners(t, ip, "C", 15); os[0] != 2 {
		t.Fatalf("C(15) on %v", os)
	}
	if os := owners(t, ip, "C", 900); os[0] != 8 {
		t.Fatalf("C(900) on %v", os)
	}
	// E and F: (BLOCK,:) — rows blocked, columns local, both same.
	oe := owners(t, ip, "E", 17, 3)
	of := owners(t, ip, "F", 17, 3)
	if oe[0] != of[0] {
		t.Fatalf("E and F must be identically distributed: %v vs %v", oe, of)
	}
}

func TestPaperSection51Examples(t *testing.T) {
	// REAL A(1:N), D(1:N,1:M); ALIGN A(:) WITH D(:,*)
	ip := newInterp(t, 4)
	ip.SetParam("N", 8)
	ip.SetParam("M", 4)
	exec(t, ip, `
		PROCESSORS P(4)
		REAL A(1:N), D(1:N,1:M)
		!HPF$ DISTRIBUTE D(BLOCK,:) TO P
		!HPF$ ALIGN A(:) WITH D(:,*)
	`)
	// D is (BLOCK,:) so columns are collapsed; the replication over
	// columns makes A single-owner anyway (all copies co-resident).
	if os := owners(t, ip, "A", 3); len(os) != 1 || os[0] != 2 {
		t.Fatalf("A(3) on %v", os)
	}

	// REAL B(1:N,1:M), E(1:N); ALIGN B(:,*) WITH E(:)
	ip2 := newInterp(t, 4)
	ip2.SetParam("N", 8)
	ip2.SetParam("M", 4)
	exec(t, ip2, `
		PROCESSORS P(4)
		REAL B(1:N,1:M), E(1:N)
		!HPF$ DISTRIBUTE E(BLOCK) TO P
		!HPF$ ALIGN B(:,*) WITH E(:)
	`)
	// B(i,*) collocated with E(i): whole rows on one processor.
	for j := 1; j <= 4; j++ {
		ob := owners(t, ip2, "B", 3, j)
		oe := owners(t, ip2, "E", 3)
		if ob[0] != oe[0] {
			t.Fatalf("B(3,%d) on %v, E(3) on %v", j, ob, oe)
		}
	}
}

// TestPaperSection6Example runs the allocatable example of §6
// verbatim (modulo the REALIGN timing note in the paper's own text).
func TestPaperSection6Example(t *testing.T) {
	ip := newInterp(t, 32)
	ip.SetParam("M", 2)
	ip.SetParam("N", 4)
	exec(t, ip, `
		REAL,ALLOCATABLE(:,:) :: A,B
		REAL,ALLOCATABLE(:) :: C,D
		!HPF$ PROCESSORS PR(32)
		!HPF$ DISTRIBUTE A(CYCLIC,BLOCK)
		!HPF$ DISTRIBUTE(BLOCK) :: C,D
		!HPF$ DYNAMIC B,C

		READ 6,M,N
		ALLOCATE(A(N*M,N*M))
		ALLOCATE(B(N,N))
		!HPF$ REALIGN B(:,:) WITH A(M::M,1::M)
		ALLOCATE(C(10000), D(10000))
		!HPF$ REDISTRIBUTE C(CYCLIC) TO PR
	`)
	u := ip.Unit
	// A allocated 8x8 with (CYCLIC,BLOCK).
	a, _ := u.Array("A")
	if !a.Created || a.Dom.Size() != 64 {
		t.Fatalf("A = %+v", a)
	}
	// B is aligned to A: B(i,j) with A(M*i, 1+(j-1)*M) = A(2i, 2j-1).
	if u.BaseOf("B") != "A" {
		t.Fatalf("B base = %q", u.BaseOf("B"))
	}
	ob := owners(t, ip, "B", 2, 3)
	oa := owners(t, ip, "A", 4, 5)
	if ob[0] != oa[0] {
		t.Fatalf("B(2,3) on %v but A(4,5) on %v", ob, oa)
	}
	// C redistributed to CYCLIC over PR.
	info, err := inquiryOf(ip, "C")
	if err != nil {
		t.Fatal(err)
	}
	if info.Dims[0].Format != dist.KindCyclic {
		t.Fatalf("C format = %v", info.Dims[0].Format)
	}
	// D still BLOCK.
	infoD, _ := inquiryOf(ip, "D")
	if infoD.Dims[0].Format != dist.KindBlock {
		t.Fatalf("D format = %v", infoD.Dims[0].Format)
	}
}

func inquiryOf(ip *Interp, name string) (inquiry.Info, error) {
	m, err := ip.MappingOf(name)
	if err != nil {
		return inquiry.Info{}, err
	}
	return inquiry.Describe(m), nil
}

// TestTholeTemplateExample parses the §8.1.1 template code against
// the baseline model.
func TestTholeTemplateExample(t *testing.T) {
	ip := newInterp(t, 16)
	ip.AttachTemplates(template.NewModel(ip.Unit.Sys))
	ip.SetParam("N", 8)
	exec(t, ip, `
		PROCESSORS G(4,4)
		REAL U(0:N,1:N), V(1:N,0:N), P(1:N,1:N)
		!HPF$ TEMPLATE T(0:2*N,0:2*N)
		!HPF$ ALIGN P(I,J) WITH T(2*I-1,2*J-1)
		!HPF$ ALIGN U(I,J) WITH T(2*I,2*J-1)
		!HPF$ ALIGN V(I,J) WITH T(2*I-1,2*J)
		!HPF$ DISTRIBUTE T(CYCLIC,CYCLIC) TO G
	`)
	// The worst possible effect: P(i,j) and U(i,j) always on
	// different processors.
	for i := 1; i <= 8; i++ {
		for j := 1; j <= 8; j++ {
			po := owners(t, ip, "P", i, j)
			uo := owners(t, ip, "U", i, j)
			if po[0] == uo[0] {
				t.Fatalf("P(%d,%d) and U(%d,%d) collocated under (CYCLIC,CYCLIC) template", i, j, i, j)
			}
		}
	}
}

func TestTemplateDirectiveRejectedWithoutBaseline(t *testing.T) {
	ip := newInterp(t, 4)
	err := ip.ExecProgram(`!HPF$ TEMPLATE T(100)`)
	if err == nil || !strings.Contains(err.Error(), "removes template") {
		t.Fatalf("expected template rejection, got %v", err)
	}
}

func TestViennaBlockToggle(t *testing.T) {
	// With N=65 over 8 procs, HPF BLOCK gives q=9 (proc 8 gets 2),
	// Vienna gives 9,8,8,... — element 10 lands differently.
	src := `
		PROCESSORS P(8)
		REAL A(65)
		!HPF$ DISTRIBUTE A(BLOCK) TO P
	`
	hpf := newInterp(t, 8)
	exec(t, hpf, src)
	vienna := newInterp(t, 8)
	vienna.ViennaBlock = true
	exec(t, vienna, src)
	oh := owners(t, hpf, "A", 10)
	ov := owners(t, vienna, "A", 10)
	if oh[0] != 2 {
		t.Fatalf("HPF A(10) on %v, want 2", oh)
	}
	if ov[0] != 2 {
		t.Fatalf("Vienna A(10) on %v, want 2", ov)
	}
	// Element 63: HPF ceil(63/9)=7, Vienna: 9+8*6=57 -> 63 in block 8? 9+8*7=65, block boundaries 9,17,25,33,41,49,57,65 -> 63 in block 8.
	oh = owners(t, hpf, "A", 63)
	ov = owners(t, vienna, "A", 63)
	if oh[0] == ov[0] {
		t.Fatalf("expected variants to differ at element 63: HPF %v Vienna %v", oh, ov)
	}
}

func TestParameterForms(t *testing.T) {
	ip := newInterp(t, 4)
	exec(t, ip, `
		PARAMETER N = 16
		PARAMETER(M=4, K=2*N+M)
		PARAMETER S = (/1, 2, 3/)
		REAL A(K)
	`)
	a, ok := ip.Unit.Array("A")
	if !ok || a.Dom.Size() != 36 {
		t.Fatalf("A = %+v", a)
	}
	if got := ip.ParamArrays["S"]; len(got) != 3 || got[2] != 3 {
		t.Fatalf("S = %v", got)
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	ip := newInterp(t, 4)
	exec(t, ip, `
		! a full-line comment
		REAL A(8)   ! trailing comment

		!HPF$ DISTRIBUTE A(BLOCK)  ! directive with comment
	`)
	if os := owners(t, ip, "A", 1); len(os) != 1 {
		t.Fatalf("owners = %v", os)
	}
}

func TestCaseInsensitivity(t *testing.T) {
	ip := newInterp(t, 4)
	exec(t, ip, `
		processors p(4)
		real a(16)
		!hpf$ distribute a(block) to p
	`)
	if os := owners(t, ip, "A", 16); os[0] != 4 {
		t.Fatalf("owners = %v", os)
	}
}

func TestErrorLineNumbers(t *testing.T) {
	ip := newInterp(t, 4)
	err := ip.ExecProgram("REAL A(8)\nREAL A(8)")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("expected line-2 error, got %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ src, wantSub string }{
		{"FROBNICATE A", "unknown statement"},
		{"REAL A", "requires bounds"},
		{"DISTRIBUTE A(BLOCK)", "unknown array"},
		{"REAL A(8)\n!HPF$ DISTRIBUTE A(WEIRD)", "unknown distribution format"},
		{"REAL A(8)\n!HPF$ DISTRIBUTE A(BLOCK) TO NOWHERE", "unknown processor arrangement"},
		{"REAL A(8)\n!HPF$ ALIGN A(I) WITH B(I)", "unknown alignment base"},
		{"REAL A(8)\nREAD X", "no input value"},
		{"PROCESSORS P(2)\nREAL A(8)\n!HPF$ DISTRIBUTE A(CYCLIC(0)) TO P", "CYCLIC argument"},
		{"REAL A(8), B(8)\n!HPF$ ALIGN A(I) WITH B(I/2)", "division"},
		{"REAL A(8)\n!HPF$ DISTRIBUTE A(BLOCK) EXTRA", "trailing"},
		{"REAL A(8 8)", "expected"},
	}
	for _, c := range cases {
		ip := newInterp(t, 4)
		err := ip.ExecProgram(c.src)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("src %q: want error containing %q, got %v", c.src, c.wantSub, err)
		}
	}
}

func TestUnknownIdentifierInExpr(t *testing.T) {
	ip := newInterp(t, 4)
	err := ip.ExecProgram("REAL A(NN)")
	if err == nil || !strings.Contains(err.Error(), "unknown identifier") {
		t.Fatalf("got %v", err)
	}
}

func TestLexerErrors(t *testing.T) {
	ip := newInterp(t, 4)
	if err := ip.ExecLine("REAL A(8); B(8)"); err == nil {
		t.Fatal("semicolon must fail to lex")
	}
}

func TestDynamicAndRedistribute(t *testing.T) {
	ip := newInterp(t, 4)
	exec(t, ip, `
		PROCESSORS P(4)
		REAL A(16)
		!HPF$ DISTRIBUTE A(BLOCK) TO P
		!HPF$ DYNAMIC A
		!HPF$ REDISTRIBUTE A(CYCLIC) TO P
	`)
	if os := owners(t, ip, "A", 2); os[0] != 2 {
		t.Fatalf("A(2) after redistribute on %v", os)
	}
	// Without DYNAMIC it must fail.
	ip2 := newInterp(t, 4)
	err := ip2.ExecProgram(`
		PROCESSORS P(4)
		REAL B(16)
		!HPF$ DISTRIBUTE B(BLOCK) TO P
		!HPF$ REDISTRIBUTE B(CYCLIC) TO P
	`)
	if err == nil || !strings.Contains(err.Error(), "DYNAMIC") {
		t.Fatalf("got %v", err)
	}
}

func TestAlignWithIntrinsics(t *testing.T) {
	ip := newInterp(t, 4)
	exec(t, ip, `
		PROCESSORS P(4)
		REAL A(8), B(8)
		!HPF$ DISTRIBUTE B(BLOCK) TO P
		!HPF$ ALIGN A(I) WITH B(MAX(I-1,1))
	`)
	oa := owners(t, ip, "A", 1)
	ob := owners(t, ip, "B", 1)
	if oa[0] != ob[0] {
		t.Fatalf("A(1) on %v, B(1) on %v", oa, ob)
	}
}

func TestScalarSubscriptInSection(t *testing.T) {
	ip := newInterp(t, 8)
	exec(t, ip, `
		PROCESSORS G(4,2)
		REAL A(16)
		!HPF$ DISTRIBUTE A(BLOCK) TO G(1:4,2)
	`)
	// Section G(1:4,2) = APs 5..8.
	for i := 1; i <= 16; i++ {
		os := owners(t, ip, "A", i)
		if os[0] < 5 {
			t.Fatalf("A(%d) on %v, expected APs 5..8", i, os)
		}
	}
}

func TestGeneralBlockLiteral(t *testing.T) {
	ip := newInterp(t, 4)
	exec(t, ip, `
		PROCESSORS P(4)
		REAL C(16)
		!HPF$ DISTRIBUTE C(GENERAL_BLOCK((/4,10,12/))) TO P
	`)
	if os := owners(t, ip, "C", 11); os[0] != 3 {
		t.Fatalf("C(11) on %v", os)
	}
}

func TestDeallocateStatement(t *testing.T) {
	ip := newInterp(t, 4)
	exec(t, ip, `
		REAL, ALLOCATABLE(:) :: A
		ALLOCATE(A(16))
		DEALLOCATE(A)
	`)
	a, _ := ip.Unit.Array("A")
	if a.Created {
		t.Fatal("A must be deallocated")
	}
}

func TestIndirectFormat(t *testing.T) {
	// Extension: user-defined distributions through the directive
	// language (the paper's generality point 3).
	ip := newInterp(t, 4)
	ip.SetParamArray("MAP", []int{1, 3, 1, 3, 2, 4, 2, 4})
	exec(t, ip, `
		PROCESSORS P(4)
		REAL A(8), B(8)
		!HPF$ DISTRIBUTE A(INDIRECT(MAP)) TO P
		!HPF$ DISTRIBUTE B(INDIRECT((/1,1,2,2,3,3,4,4/))) TO P
	`)
	want := []int{1, 3, 1, 3, 2, 4, 2, 4}
	for i := 1; i <= 8; i++ {
		if os := owners(t, ip, "A", i); os[0] != want[i-1] {
			t.Fatalf("A(%d) on %v, want %d", i, os, want[i-1])
		}
	}
	if os := owners(t, ip, "B", 5); os[0] != 3 {
		t.Fatalf("B(5) on %v", os)
	}
}

func TestIndirectFormatErrors(t *testing.T) {
	ip := newInterp(t, 4)
	err := ip.ExecProgram(`
		PROCESSORS P(4)
		REAL A(8)
		!HPF$ DISTRIBUTE A(INDIRECT(NOPE)) TO P
	`)
	if err == nil || !strings.Contains(err.Error(), "INDIRECT argument") {
		t.Fatalf("got %v", err)
	}
	ip2 := newInterp(t, 4)
	err = ip2.ExecProgram(`
		PROCESSORS P(4)
		REAL A(8)
		!HPF$ DISTRIBUTE A(INDIRECT((/1,2/))) TO P
	`)
	if err == nil {
		t.Fatal("length mismatch must fail")
	}
}

func TestExpressionGrammar(t *testing.T) {
	// Unary operators, parentheses, MAX/MIN/LBOUND/UBOUND/SIZE and
	// constant folding through the full grammar.
	ip := newInterp(t, 8)
	ip.SetParam("N", 10)
	exec(t, ip, `
		PROCESSORS P(8)
		REAL A(-(-N)), B(+N), C( (2+3)*2 )
		REAL X(N), Y(N)
		!HPF$ DISTRIBUTE Y(BLOCK) TO P
		!HPF$ ALIGN X(I) WITH Y(MIN(MAX(I-1,1),UBOUND(Y,1)))
	`)
	for _, name := range []string{"A", "B", "C"} {
		arr, ok := ip.Unit.Array(name)
		if !ok || arr.Dom.Size() != 10 {
			t.Fatalf("%s = %+v", name, arr)
		}
	}
	// X(1) aligned with Y(MAX(0,1)=1).
	xo := owners(t, ip, "X", 1)
	yo := owners(t, ip, "Y", 1)
	if xo[0] != yo[0] {
		t.Fatalf("X(1) on %v, Y(1) on %v", xo, yo)
	}
}

func TestLBoundSizeIntrinsics(t *testing.T) {
	ip := newInterp(t, 4)
	exec(t, ip, `
		PROCESSORS P(4)
		REAL Y(0:9), X(10)
		!HPF$ DISTRIBUTE Y(BLOCK) TO P
		!HPF$ ALIGN X(I) WITH Y(MAX(I-1,LBOUND(Y,1)))
	`)
	xo := owners(t, ip, "X", 1)
	yo := owners(t, ip, "Y", 0)
	if xo[0] != yo[0] {
		t.Fatalf("X(1) on %v, Y(0) on %v", xo, yo)
	}
}

func TestExpressionErrors(t *testing.T) {
	cases := []string{
		"REAL A(MAX(3))",                   // MAX needs >= 2 args
		"REAL A(LBOUND)",                   // intrinsic without parens
		"REAL A(3/0)",                      // division by zero
		"REAL A(*)",                        // stray Token
		"PARAMETER N = (/1,2/)\nREAL A(N)", // array param in scalar context
	}
	for _, src := range cases {
		ip := newInterp(t, 4)
		if err := ip.ExecProgram(src); err == nil {
			t.Errorf("src %q: expected error", src)
		}
	}
}

// TestExpressionNestingCap: the one expression grammar caps
// parenthesis nesting for directives as for executable statements.
func TestExpressionNestingCap(t *testing.T) {
	nested := func(depth int) string {
		return "REAL A(" + strings.Repeat("(", depth) + "8" + strings.Repeat(")", depth) + ")"
	}
	ip := newInterp(t, 4)
	exec(t, ip, nested(64))
	if arr, _ := ip.Unit.Array("A"); arr.Dom.Size() != 8 {
		t.Fatalf("A = %+v", arr)
	}
	err := newInterp(t, 4).ExecProgram(nested(65))
	if want := "line 1: directive: expression nested deeper than 64"; err == nil || err.Error() != want {
		t.Fatalf("65 parentheses: got %v, want %q", err, want)
	}
}

// TestAlignBoundsFixedAtDirective: LBOUND/UBOUND/SIZE in an alignment
// function are read once, when the directive takes effect. A later
// reallocation of the array they name moves no element, and every
// element's owner agrees with its owner tile before and after, also
// once that array is gone.
func TestAlignBoundsFixedAtDirective(t *testing.T) {
	ip := newInterp(t, 3)
	exec(t, ip, `
		PROCESSORS P(3)
		REAL, ALLOCATABLE(:) :: C
		REAL A(12), B(30)
		!HPF$ DISTRIBUTE B(BLOCK) TO P
		ALLOCATE(C(5:9))
		!HPF$ ALIGN A(I) WITH B(I+LBOUND(C,1))
	`)
	check := func(stage string) {
		t.Helper()
		m, err := ip.MappingOf("A")
		if err != nil {
			t.Fatal(err)
		}
		tiles, err := core.OwnerTiles(m, index.Standard(1, 12))
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		for _, tile := range tiles {
			tile.Region.ForEach(func(i index.Tuple) bool {
				// A(I) sits with B(I+5): B(1:10) is on 1, B(11:20) on 2.
				want := 1 + (i[0]+5-1)/10
				if os := owners(t, ip, "A", i...); len(os) != 1 || os[0] != tile.Proc || tile.Proc != want {
					t.Fatalf("%s: A%v owned by %v, its tile by %d, want %d", stage, i, os, tile.Proc, want)
				}
				return true
			})
		}
	}
	check("at the ALIGN")
	exec(t, ip, "DEALLOCATE(C)\nALLOCATE(C(11:20))")
	check("after C is reallocated")
	exec(t, ip, "DEALLOCATE(C)")
	check("after C is deallocated")
}

func TestScalarProcessorsDeclaration(t *testing.T) {
	ip := newInterp(t, 4)
	exec(t, ip, `PROCESSORS SCAL`)
	a, ok := ip.Unit.Sys.Lookup("SCAL")
	if !ok || !a.Scalar {
		t.Fatalf("SCAL = %+v", a)
	}
}

func TestLeadingDoubleColonSection(t *testing.T) {
	// "::2" — lower and upper default, stride 2.
	ip := newInterp(t, 8)
	exec(t, ip, `
		PROCESSORS Q(8)
		REAL B(8)
		!HPF$ DISTRIBUTE B(CYCLIC) TO Q(::2)
	`)
	for i := 1; i <= 8; i++ {
		if os := owners(t, ip, "B", i); os[0]%2 == 0 {
			t.Fatalf("B(%d) on %v", i, os)
		}
	}
}

func TestAlignTripletDefaults(t *testing.T) {
	// ":" as a base subscript is the full-dimension triplet.
	ip := newInterp(t, 4)
	exec(t, ip, `
		PROCESSORS P(4)
		REAL A(8), B(8)
		!HPF$ DISTRIBUTE B(BLOCK) TO P
		!HPF$ ALIGN A(:) WITH B(:)
	`)
	for i := 1; i <= 8; i += 3 {
		ao := owners(t, ip, "A", i)
		bo := owners(t, ip, "B", i)
		if ao[0] != bo[0] {
			t.Fatalf("A(%d) on %v, B(%d) on %v", i, ao, i, bo)
		}
	}
}

func TestDeferredAlignToAllocatable(t *testing.T) {
	// Both alignee and base allocatable: the §6 deferral path with a
	// plain expression alignment.
	ip := newInterp(t, 4)
	exec(t, ip, `
		REAL, ALLOCATABLE(:) :: BASE, X
		!HPF$ DISTRIBUTE BASE(BLOCK)
		!HPF$ ALIGN X(I) WITH BASE(I)
		ALLOCATE(BASE(32))
		ALLOCATE(X(32))
	`)
	xo := owners(t, ip, "X", 20)
	bo := owners(t, ip, "BASE", 20)
	if xo[0] != bo[0] {
		t.Fatalf("X(20) on %v, BASE(20) on %v", xo, bo)
	}
}

func TestTokenKindStrings(t *testing.T) {
	kinds := []TokKind{TokEOF, TokIdent, TokNumber, TokLParen, TokRParen,
		TokComma, TokColon, TokDoubleColon, TokStar, TokPlus, TokMinus,
		TokSlash, TokAssign, TokSlashParen, TokParenSlash}
	for _, k := range kinds {
		if k.String() == "?" {
			t.Fatalf("kind %d has no string", int(k))
		}
	}
}
