package exper

import (
	"fmt"
	"strings"

	"hpfnt/hpf"
	"hpfnt/internal/inquiry"
)

// E10Replication reproduces §5.1 example 1: ALIGN A(:) WITH D(:,*)
// aligns a copy of A with every column of D. With D distributed by
// columns, a statement E(i,j) = D(i,j) + A(i) reads A locally
// everywhere when A is replicated, but fetches A remotely from the
// single owner column otherwise.
func E10Replication(n, np int) (Result, error) {
	repRep, repFlag, err := runReplication(n, np, true)
	if err != nil {
		return Result{}, err
	}
	oneRep, oneFlag, err := runReplication(n, np, false)
	if err != nil {
		return Result{}, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "E(i,j) = D(i,j) + A(i); D,E (:,BLOCK) over %d procs; N=%d\n", np, n)
	fmt.Fprintf(&b, "%-34s %12s %12s %10s\n", "alignment of A", "remote-refs", "elems-moved", "replicated")
	fmt.Fprintf(&b, "%-34s %12d %12d %10v\n", "ALIGN A(:) WITH D(:,*)", repRep.RemoteRefs, repRep.ElementsMoved, repFlag)
	fmt.Fprintf(&b, "%-34s %12d %12d %10v\n", "ALIGN A(:) WITH D(:,1)", oneRep.RemoteRefs, oneRep.ElementsMoved, oneFlag)
	checks := []Check{
		{
			Name:   "replicated alignment makes every read of A local (§5.1 example 1)",
			Pass:   repFlag && repRep.RemoteRefs == 0,
			Detail: fmt.Sprintf("remote refs %d", repRep.RemoteRefs),
		},
		{
			Name:   "single-copy alignment forces remote fetches of A from the owner column",
			Pass:   !oneFlag && oneRep.RemoteRefs > 0,
			Detail: fmt.Sprintf("remote refs %d", oneRep.RemoteRefs),
		},
	}
	return Result{ID: "E10", Title: "replication via ALIGN A(:) WITH D(:,*) (§5.1 ex. 1)", Table: b.String(), Checks: checks}, nil
}

// runReplication builds the §5.1-example-1 scenario with A either
// replicated over all columns of D (star) or aligned with column 1,
// then executes a 2-D statement that reads A once per (i,j) through a
// rank-2 proxy array AA(i,j) holding A's mapping per column.
func runReplication(n, np int, star bool) (hpf.Report, bool, error) {
	prog, err := hpf.NewProgram("replication", np)
	if err != nil {
		return hpf.Report{}, false, err
	}
	sub := "(:,*)"
	if !star {
		sub = "(:,1)"
	}
	prog.SetParam("N", n)
	prog.SetParam("M", np)
	err = prog.Exec(fmt.Sprintf(`
		PROCESSORS P(%d)
		REAL A(1:N), D(1:N,1:M), E(1:N,1:M)
		!HPF$ DISTRIBUTE (:,BLOCK) TO P :: D, E
		!HPF$ ALIGN A(:) WITH D%s
	`, np, sub))
	if err != nil {
		return hpf.Report{}, false, err
	}
	info, err := prog.Inquire("A")
	if err != nil {
		return hpf.Report{}, false, err
	}
	a, err := prog.NewArray("A")
	if err != nil {
		return hpf.Report{}, false, err
	}
	d, err := prog.NewArray("D")
	if err != nil {
		return hpf.Report{}, false, err
	}
	e, err := prog.NewArray("E")
	if err != nil {
		return hpf.Report{}, false, err
	}
	a.Fill(func(t hpf.Tuple) float64 { return float64(t[0]) })
	d.Fill(func(t hpf.Tuple) float64 { return float64(t[0] + 2*t[1]) })
	// E(i,j) = D(i,j) + A(i), executed as a 2-D statement over E's
	// domain with a rank-reducing read of A (its access reads i, not j).
	if err := e.Assign(e.Shape(), hpf.Read(d, 1, 0, 0), rowOf(a)); err != nil {
		return hpf.Report{}, false, err
	}
	return prog.Stats(), info.Replicated, nil
}

// rowOf is the rank-reducing term v(i) of a statement over (i,j): the
// A(i) of E(i,j) = D(i,j) + A(i).
func rowOf(v *hpf.DistArray) hpf.AssignTerm {
	return hpf.AssignTerm{Src: v, Coeff: 1, Access: hpf.Access{{Dim: 0}}}
}

// E11Collapse reproduces §5.1 example 2: ALIGN B(:,*) WITH E(:)
// collapses B's second dimension so whole rows are co-resident with
// E's elements; a statement C(i,j) = B(i,j) + E(i) then runs with
// zero communication, whereas distributing B (BLOCK,BLOCK) splits
// rows across processors and forces remote reads of E.
func E11Collapse(n, np int) (Result, error) {
	run := func(collapse bool) (hpf.Report, error) {
		prog, err := hpf.NewProgram("collapse", np)
		if err != nil {
			return hpf.Report{}, err
		}
		prog.SetParam("N", n)
		prog.SetParam("M", 8)
		var src string
		if collapse {
			src = fmt.Sprintf(`
				PROCESSORS P(%d)
				REAL B(1:N,1:M), C(1:N,1:M), E(1:N)
				!HPF$ DISTRIBUTE E(BLOCK) TO P
				!HPF$ ALIGN B(:,*) WITH E(:)
				!HPF$ ALIGN C(:,*) WITH E(:)
			`, np)
		} else {
			r, c := grid2(np)
			src = fmt.Sprintf(`
				PROCESSORS P(%d), G(%d,%d)
				REAL B(1:N,1:M), C(1:N,1:M), E(1:N)
				!HPF$ DISTRIBUTE E(BLOCK) TO P
				!HPF$ DISTRIBUTE (BLOCK,BLOCK) TO G :: B, C
			`, np, r, c)
		}
		if err := prog.Exec(src); err != nil {
			return hpf.Report{}, err
		}
		b, err := prog.NewArray("B")
		if err != nil {
			return hpf.Report{}, err
		}
		c, err := prog.NewArray("C")
		if err != nil {
			return hpf.Report{}, err
		}
		e, err := prog.NewArray("E")
		if err != nil {
			return hpf.Report{}, err
		}
		b.Fill(func(t hpf.Tuple) float64 { return float64(t[0]*3 + t[1]) })
		e.Fill(func(t hpf.Tuple) float64 { return float64(t[0]) })
		if err := c.Assign(c.Shape(), hpf.Read(b, 1, 0, 0), rowOf(e)); err != nil {
			return hpf.Report{}, err
		}
		return prog.Stats(), nil
	}
	colRep, err := run(true)
	if err != nil {
		return Result{}, err
	}
	blkRep, err := run(false)
	if err != nil {
		return Result{}, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "C(i,j) = B(i,j) + E(i); N=%d, M=8, NP=%d\n", n, np)
	fmt.Fprintf(&b, "%-36s %12s %12s\n", "mapping of B,C", "remote-refs", "elems-moved")
	fmt.Fprintf(&b, "%-36s %12d %12d\n", "ALIGN B(:,*) WITH E(:) (collapse)", colRep.RemoteRefs, colRep.ElementsMoved)
	fmt.Fprintf(&b, "%-36s %12d %12d\n", "(BLOCK,BLOCK) direct", blkRep.RemoteRefs, blkRep.ElementsMoved)
	checks := []Check{
		{
			Name:   "collapsed alignment makes the row-wise statement fully local (§5.1 ex. 2)",
			Pass:   colRep.RemoteRefs == 0,
			Detail: fmt.Sprintf("remote refs %d", colRep.RemoteRefs),
		},
		{
			Name:   "splitting the collapsed dimension forces communication for E",
			Pass:   blkRep.RemoteRefs > 0,
			Detail: fmt.Sprintf("remote refs %d", blkRep.RemoteRefs),
		},
	}
	return Result{ID: "E11", Title: "collapse via ALIGN B(:,*) WITH E(:) (§5.1 ex. 2)", Table: b.String(), Checks: checks}, nil
}

func grid2(np int) (int, int) {
	r := 1
	for d := 1; d*d <= np; d++ {
		if np%d == 0 {
			r = d
		}
	}
	return np / r, r
}

// E12TemplateLimitations makes the §8.2 criticisms executable: the
// baseline template model rejects allocatable templates and
// template passing, while the paper's model handles both situations
// (deferred-shape alignment at ALLOCATE; inherited mappings plus
// inquiry at procedure boundaries).
func E12TemplateLimitations() (Result, error) {
	prog, err := hpf.NewProgram("limits", 8)
	if err != nil {
		return Result{}, err
	}
	tm := prog.EnableTemplates()

	allocErr := tm.AllocatableTemplate("T", 2)
	passErr := tm.PassTemplate("T", "SUB")

	// The paper's model: allocatable alignee, deferred alignment,
	// applied at ALLOCATE with run-time extents.
	err = prog.Exec(`
		PROCESSORS P(8)
		REAL, ALLOCATABLE(:) :: BASE, X
		!HPF$ DISTRIBUTE BASE(BLOCK) TO P
		!HPF$ ALIGN X(I) WITH BASE(I)
		ALLOCATE(BASE(512))
		ALLOCATE(X(512))
	`)
	if err != nil {
		return Result{}, err
	}
	xo, err := prog.Unit.Owners("X", hpf.TupleOf(100))
	if err != nil {
		return Result{}, err
	}
	bo, _ := prog.Unit.Owners("BASE", hpf.TupleOf(100))

	// Procedure boundary without templates: inherit + inquiry.
	fr, err := prog.Call("SUB",
		[]hpf.DummySpec{{Name: "Y", Mode: hpf.Inherit}},
		[]hpf.Actual{{Name: "X"}})
	if err != nil {
		return Result{}, err
	}
	ym, err := fr.Callee.MappingOf("Y")
	if err != nil {
		return Result{}, err
	}
	info := inquiry.Describe(ym)

	var b strings.Builder
	fmt.Fprintf(&b, "HPF baseline (template model):\n")
	fmt.Fprintf(&b, "  allocatable template: %v\n", allocErr)
	fmt.Fprintf(&b, "  pass template to SUB: %v\n", passErr)
	fmt.Fprintf(&b, "template-free model:\n")
	fmt.Fprintf(&b, "  allocatable alignment at ALLOCATE: X(100) on %d, BASE(100) on %d\n", xo[0], bo[0])
	fmt.Fprintf(&b, "  inherited dummy inquiry: %s\n", info.Render())

	checks := []Check{
		{
			Name:   "§8.2 problem 1: templates cannot handle allocatable arrays (baseline rejects)",
			Pass:   allocErr != nil,
			Detail: fmt.Sprint(allocErr),
		},
		{
			Name:   "§8.2 problem 2: templates cannot be passed across procedure boundaries (baseline rejects)",
			Pass:   passErr != nil,
			Detail: fmt.Sprint(passErr),
		},
		{
			Name:   "the template-free model aligns allocatables with run-time shapes",
			Pass:   xo[0] == bo[0],
			Detail: fmt.Sprintf("X(100) on %d, BASE(100) on %d", xo[0], bo[0]),
		},
		{
			Name:   "inherited mappings cross procedure boundaries and are fully inquirable",
			Pass:   info.Inherited && info.NP == 8,
			Detail: info.Render(),
		},
	}
	return Result{ID: "E12", Title: "template limitations made executable (§8.2)", Table: b.String(), Checks: checks}, nil
}
