package exper

import (
	"fmt"
	"strings"

	"hpfnt/internal/align"
	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/expr"
	"hpfnt/internal/index"
	"hpfnt/internal/partition"
	"hpfnt/internal/proc"
)

// E13GeneralDistributions exercises the paper's generalization 3:
// "The concept of distribution functions has been defined in a
// general way so that future language standards may easily
// incorporate more general mappings" (and §9's pointer to the
// user-defined distribution functions of Kali and Vienna Fortran).
// A partitioner-style INDIRECT owner vector plugs into the same
// Format interface: the whole model — direct distribution, alignment,
// CONSTRUCT collocation — composes with it unchanged. The workload
// has two disjoint hot regions, which no contiguous (GENERAL_BLOCK)
// partition can balance without the imbalance INDIRECT avoids.
func E13GeneralDistributions(n, np int) (Result, error) {
	// Weights: two hot plateaus at the two ends, cold middle.
	w := make([]float64, n)
	for i := range w {
		switch {
		case i < n/8 || i >= n-n/8:
			w[i] = 16
		default:
			w[i] = 1
		}
	}
	// A contiguous balanced partition (the best GENERAL_BLOCK can do).
	gb, err := partition.Balance(w, np)
	if err != nil {
		return Result{}, err
	}
	// An indirect partition pairing hot and cold indices: processor
	// p receives an equal share of each plateau (what a mesh
	// partitioner with a global view produces).
	owner := make([]int, n)
	hotSeen, coldSeen := 0, 0
	hotTotal := 0
	for i := range w {
		if w[i] == 16 {
			hotTotal++
		}
	}
	for i := range w {
		if w[i] == 16 {
			owner[i] = hotSeen*np/hotTotal + 1
			hotSeen++
		} else {
			owner[i] = coldSeen*np/(n-hotTotal) + 1
			coldSeen++
		}
	}
	ind, err := dist.NewIndirect(owner)
	if err != nil {
		return Result{}, err
	}
	if err := ind.Validate(n, np); err != nil {
		return Result{}, err
	}

	imbBlock := partition.FormatImbalance(dist.Block{}, w, np)
	imbGB := partition.FormatImbalance(gb, w, np)
	imbInd := partition.FormatImbalance(ind, w, np)

	// Composition: align a secondary to an INDIRECT-distributed base
	// and verify CONSTRUCT collocation still holds.
	sys, err := proc.NewSystem(np)
	if err != nil {
		return Result{}, err
	}
	arr, err := sys.DeclareArray("P", index.Standard(1, np))
	if err != nil {
		return Result{}, err
	}
	u := core.NewUnit("E13", sys)
	if _, err := u.DeclareArray("BASE", index.Standard(1, n)); err != nil {
		return Result{}, err
	}
	if _, err := u.DeclareArray("SEC", index.Standard(1, n/2)); err != nil {
		return Result{}, err
	}
	if err := u.Distribute("BASE", []dist.Format{ind}, proc.Whole(arr)); err != nil {
		return Result{}, err
	}
	if err := u.Align(align.Spec{
		Alignee: "SEC", Axes: []align.Axis{align.DummyAxis("I")},
		Base: "BASE", Subs: []align.Subscript{align.ExprSub(expr.Affine(2, "I", 0))},
	}); err != nil {
		return Result{}, err
	}
	collocated := true
	for i := 1; i <= n/2; i += 3 {
		so, err := u.Owners("SEC", index.Tuple{i})
		if err != nil {
			return Result{}, err
		}
		bo, _ := u.Owners("BASE", index.Tuple{2 * i})
		if so[0] != bo[0] {
			collocated = false
		}
	}

	// Expressiveness: the partitioner's assignment gives processors
	// non-contiguous pieces (a share of each plateau), which no
	// contiguous-block format — BLOCK or GENERAL_BLOCK — can express.
	// The runs are maximal, so an owner of two of them owns two
	// disjoint pieces.
	nonContiguous := false
	held := make([]bool, np+1)
	for _, r := range ind.AppendRuns(nil, 1, n, n, np) {
		nonContiguous = nonContiguous || held[r.Proc]
		held[r.Proc] = true
	}

	var b strings.Builder
	fmt.Fprintf(&b, "two hot plateaus (w=16) at both ends, cold middle (w=1); N=%d, NP=%d\n", n, np)
	fmt.Fprintf(&b, "%-34s %12s\n", "distribution", "imbalance")
	fmt.Fprintf(&b, "%-34s %12.3f\n", "BLOCK", imbBlock)
	fmt.Fprintf(&b, "%-34s %12.3f\n", "GENERAL_BLOCK (best contiguous)", imbGB)
	fmt.Fprintf(&b, "%-34s %12.3f\n", "INDIRECT (partitioner)", imbInd)
	fmt.Fprintf(&b, "INDIRECT ownership non-contiguous (inexpressible as GENERAL_BLOCK): %v\n", nonContiguous)
	fmt.Fprintf(&b, "CONSTRUCT collocation over INDIRECT base: %v\n", collocated)

	checks := []Check{
		{
			Name:   "a user-defined mapping plugs into the same distribution-function interface and balances",
			Pass:   imbInd < 1.1,
			Detail: fmt.Sprintf("INDIRECT imbalance %.3f (BLOCK %.3f, GENERAL_BLOCK %.3f)", imbInd, imbBlock, imbGB),
		},
		{
			Name:   "the partitioner's assignment is non-contiguous — beyond any (GENERAL_)BLOCK format",
			Pass:   nonContiguous,
			Detail: fmt.Sprintf("some processor owns >= 2 disjoint runs: %v", nonContiguous),
		},
		{
			Name:   "alignment and CONSTRUCT compose unchanged with user-defined distributions",
			Pass:   collocated,
			Detail: fmt.Sprintf("collocation over INDIRECT base: %v", collocated),
		},
	}
	return Result{ID: "E13", Title: "generalized distribution functions (intro claim 3, §9)", Table: b.String(), Checks: checks}, nil
}
