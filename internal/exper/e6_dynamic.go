package exper

import (
	"fmt"
	"strings"

	"hpfnt/hpf"
)

// E6RedistributeBundling reproduces §4.2: alignment as a bundling
// mechanism. A primary array B with k secondaries is REDISTRIBUTEd
// from BLOCK to CYCLIC; every secondary must follow so that the
// alignment relation stays invariant, and the moved data volume
// scales with the number of bundled arrays.
func E6RedistributeBundling(n, np, k int) (Result, error) {
	build := func(secondaries int) (*hpf.Program, []*hpf.DistArray, error) {
		prog, err := hpf.NewProgram("bundle", np)
		if err != nil {
			return nil, nil, err
		}
		var src strings.Builder
		fmt.Fprintf(&src, "PROCESSORS P(%d)\nREAL B(%d)\n", np, n)
		for i := 0; i < secondaries; i++ {
			fmt.Fprintf(&src, "REAL S%d(%d)\n", i, n)
		}
		fmt.Fprintf(&src, "!HPF$ DYNAMIC B\n!HPF$ DISTRIBUTE B(BLOCK) TO P\n")
		for i := 0; i < secondaries; i++ {
			fmt.Fprintf(&src, "!HPF$ ALIGN S%d(I) WITH B(I)\n", i)
		}
		if err := prog.Exec(src.String()); err != nil {
			return nil, nil, err
		}
		arrays := make([]*hpf.DistArray, 0, secondaries+1)
		ba, err := prog.NewArray("B")
		if err != nil {
			return nil, nil, err
		}
		arrays = append(arrays, ba)
		for i := 0; i < secondaries; i++ {
			sa, err := prog.NewArray(fmt.Sprintf("S%d", i))
			if err != nil {
				return nil, nil, err
			}
			arrays = append(arrays, sa)
		}
		return prog, arrays, nil
	}

	type row struct {
		secondaries int
		moved       int
		invariant   bool
	}
	var rows []row
	for _, sc := range []int{0, 1, k} {
		prog, arrays, err := build(sc)
		if err != nil {
			return Result{}, err
		}
		if err := prog.Exec(fmt.Sprintf("!HPF$ REDISTRIBUTE B(CYCLIC) TO P")); err != nil {
			return Result{}, err
		}
		total := 0
		for _, a := range arrays {
			moved, err := a.Remap()
			if err != nil {
				return Result{}, err
			}
			total += moved
		}
		// Verify the invariant: every secondary element collocated
		// with its base element after the move.
		inv := true
		bm, _ := prog.MappingOf("B")
		for i := 0; i < sc; i++ {
			sm, err := prog.MappingOf(fmt.Sprintf("S%d", i))
			if err != nil {
				return Result{}, err
			}
			for j := 1; j <= n; j += 7 {
				so, err1 := sm.AppendOwners(nil, hpf.TupleOf(j))
				bo, err2 := bm.AppendOwners(nil, hpf.TupleOf(j))
				if err1 != nil || err2 != nil || so[0] != bo[0] {
					inv = false
				}
			}
		}
		rows = append(rows, row{sc, total, inv})
	}

	var b strings.Builder
	fmt.Fprintf(&b, "B(%d) BLOCK -> CYCLIC on P(%d), with aligned secondaries following (§4.2)\n", n, np)
	fmt.Fprintf(&b, "%-14s %14s %12s\n", "secondaries", "elems-moved", "invariant")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14d %14d %12v\n", r.secondaries, r.moved, r.invariant)
	}
	perArray := rows[0].moved
	checks := []Check{
		{
			Name:   "alignment relation kept invariant under REDISTRIBUTE of the primary",
			Pass:   rows[1].invariant && rows[2].invariant,
			Detail: fmt.Sprintf("checked %d and %d secondaries", rows[1].secondaries, rows[2].secondaries),
		},
		{
			Name:   "moved volume scales linearly with the number of bundled arrays",
			Pass:   perArray > 0 && rows[1].moved == 2*perArray && rows[2].moved == (k+1)*perArray,
			Detail: fmt.Sprintf("%d / %d / %d elements for 0/1/%d secondaries", rows[0].moved, rows[1].moved, rows[2].moved, k),
		},
	}
	return Result{ID: "E6", Title: "REDISTRIBUTE with aligned followers (§4.2)", Table: b.String(), Checks: checks}, nil
}

// E7RealignSurgery reproduces the §5.2 forest surgery: realigning a
// primary with secondaries promotes the secondaries to degenerate
// trees frozen at their current distribution; realigning a secondary
// moves it between bases; the height-1 invariant holds throughout.
func E7RealignSurgery(n, np int) (Result, error) {
	prog, err := hpf.NewProgram("surgery", np)
	if err != nil {
		return Result{}, err
	}
	err = prog.Exec(fmt.Sprintf(`
		PROCESSORS P(%d)
		REAL A(%d), B(%d), C(%d), D(%d)
		!HPF$ DYNAMIC A, D
		!HPF$ DISTRIBUTE B(BLOCK) TO P
		!HPF$ DISTRIBUTE C(CYCLIC) TO P
		!HPF$ ALIGN D(I) WITH A(I)
	`, np, n, n, n, n))
	if err != nil {
		return Result{}, err
	}
	u := prog.Unit
	var b strings.Builder
	fmt.Fprintf(&b, "forest before: %v\n", u.Forest())

	// D's owners before the surgery (A implicit BLOCK).
	dBefore := map[int]int{}
	for i := 1; i <= n; i += 5 {
		os, err := u.Owners("D", hpf.TupleOf(i))
		if err != nil {
			return Result{}, err
		}
		dBefore[i] = os[0]
	}
	// Step 1+2+3: REALIGN the primary A (which has child D) to B.
	if err := prog.Exec("!HPF$ REALIGN A(I) WITH B(I)"); err != nil {
		return Result{}, err
	}
	fmt.Fprintf(&b, "after REALIGN A WITH B: %v\n", u.Forest())
	promoted := u.IsPrimary("D")
	frozen := true
	for i, want := range dBefore {
		os, err := u.Owners("D", hpf.TupleOf(i))
		if err != nil || os[0] != want {
			frozen = false
		}
	}
	// Realign the (now secondary) A to C.
	if err := prog.Exec("!HPF$ REALIGN A(I) WITH C(I)"); err != nil {
		return Result{}, err
	}
	fmt.Fprintf(&b, "after REALIGN A WITH C: %v\n", u.Forest())
	moved := u.BaseOf("A") == "C" && len(u.SecondariesOf("B")) == 0
	invErr := u.CheckInvariants()
	// A follows C.
	ao, _ := u.Owners("A", hpf.TupleOf(3))
	co, _ := u.Owners("C", hpf.TupleOf(3))

	checks := []Check{
		{
			Name:   "step 1: secondaries of a realigned primary become degenerate trees with their current distribution",
			Pass:   promoted && frozen,
			Detail: fmt.Sprintf("promoted=%v frozen=%v", promoted, frozen),
		},
		{
			Name:   "step 1': a realigned secondary is disconnected from its old base",
			Pass:   moved,
			Detail: fmt.Sprintf("A base = %q", u.BaseOf("A")),
		},
		{
			Name:   "steps 2-3: δ_A = CONSTRUCT(α, δ_C) and forest height stays ≤ 1",
			Pass:   invErr == nil && ao[0] == co[0],
			Detail: fmt.Sprintf("invariants: %v; A(3) on %d, C(3) on %d", invErr, ao[0], co[0]),
		},
	}
	return Result{ID: "E7", Title: "REALIGN forest surgery (§5.2)", Table: b.String(), Checks: checks}, nil
}

// E8Allocatables runs the §6 example program verbatim through the
// directive front end and checks the resulting forest and mappings.
func E8Allocatables() (Result, error) {
	prog, err := hpf.NewProgram("alloc", 32)
	if err != nil {
		return Result{}, err
	}
	prog.SetParam("M", 2)
	prog.SetParam("N", 4)
	err = prog.Exec(`
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
	if err != nil {
		return Result{}, err
	}
	u := prog.Unit
	var b strings.Builder
	b.WriteString(u.Describe())

	infoC, err := prog.Inquire("C")
	if err != nil {
		return Result{}, err
	}
	infoD, err := prog.Inquire("D")
	if err != nil {
		return Result{}, err
	}
	// B(i,j) aligned with A(M*i, 1+(j-1)*M).
	bo, err := u.Owners("B", hpf.TupleOf(2, 3))
	if err != nil {
		return Result{}, err
	}
	ao, err := u.Owners("A", hpf.TupleOf(4, 5))
	if err != nil {
		return Result{}, err
	}
	// DEALLOCATE B and re-enter.
	if err := prog.Exec("DEALLOCATE(B)"); err != nil {
		return Result{}, err
	}
	arrB, _ := u.Array("B")

	checks := []Check{
		{
			Name:   "deferred spec-part attributes applied at ALLOCATE (§6)",
			Pass:   infoD.Direct && infoD.Dims[0].Format.String() == "BLOCK",
			Detail: "D: " + infoD.Render(),
		},
		{
			Name:   "executable REDISTRIBUTE gives C a cyclic distribution (§6 example)",
			Pass:   infoC.Direct && strings.HasPrefix(infoC.Dims[0].Format.String(), "CYCLIC"),
			Detail: "C: " + infoC.Render(),
		},
		{
			Name:   "B enters the forest via executable REALIGN, collocated with A through the strided alignment",
			Pass:   bo[0] == ao[0],
			Detail: fmt.Sprintf("B(2,3) on %d, A(4,5) on %d", bo[0], ao[0]),
		},
		{
			Name:   "DEALLOCATE removes the array from the forest",
			Pass:   arrB != nil && !arrB.Created && u.CheckInvariants() == nil,
			Detail: fmt.Sprintf("B created=%v", arrB.Created),
		},
	}
	return Result{ID: "E8", Title: "allocatable arrays (§6 example, verbatim)", Table: b.String(), Checks: checks}, nil
}
