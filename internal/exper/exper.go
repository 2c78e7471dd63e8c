// Package exper implements the reproduction experiments E1–E13
// catalogued in README.md: one per worked example or quantitative
// claim of the paper (the paper is a language-design paper and has no
// numbered tables; each experiment reproduces a specific §-referenced
// claim). Each experiment returns a Result with a preformatted table
// and a list of pass/fail checks encoding the claim's expected shape;
// cmd/hpfbench prints the tables and verdicts, and the root
// bench_test.go times each experiment and fails on a failing check.
// The verdicts, not the wall clocks, are what is gated.
package exper

import (
	"fmt"
	"strings"
)

// Check is one verifiable expectation derived from a paper claim.
type Check struct {
	// Name states the claim fragment being checked.
	Name string
	// Pass reports whether the measurement satisfied it.
	Pass bool
	// Detail carries the measured numbers behind the verdict.
	Detail string
}

// Result is the outcome of one experiment.
type Result struct {
	// ID is the experiment identifier (E1..E13, E2b).
	ID string
	// Title summarizes the experiment and its paper source.
	Title string
	// Table is the preformatted measurement table.
	Table string
	// Checks are the claim assertions.
	Checks []Check
}

// Passed reports whether every check passed.
func (r Result) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// Render formats the result for terminal output.
func (r Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n%s", r.ID, r.Title, r.Table)
	for _, c := range r.Checks {
		mark := "PASS"
		if !c.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "  [%s] %s (%s)\n", mark, c.Name, c.Detail)
	}
	return b.String()
}

// All runs every experiment at its default parameters.
func All() ([]Result, error) {
	return Run(nil)
}

// Entry names one experiment with its default-parameter runner. The
// Title duplicates the one carried by the produced Result so callers
// can enumerate experiments without running them; a test asserts the
// two stay in sync.
type Entry struct {
	ID    string
	Title string
	Run   func() (Result, error)
}

// Registry lists every experiment in presentation order.
func Registry() []Entry {
	return []Entry{
		{"E1", "distribution formats (§4.1)", func() (Result, error) { return E1DistributionFormats(16, 4) }},
		{"E2", "staggered grid (§8.1.1, Thole example)", func() (Result, error) { return E2StaggeredGrid(64, 4, 4) }},
		{"E2b", "BLOCK variant ablation (§8.1.1 footnote)", func() (Result, error) { return E2bBlockVariantAblation(64, 8) }},
		{"E3", "procedure boundaries (§7, §8.1.2)", func() (Result, error) { return E3ProcedureBoundary() }},
		{"E4", "GENERAL_BLOCK load balancing (§4.1.2)", func() (Result, error) { return E4GeneralBlockBalance(4096, 16) }},
		{"E5", "processor sections (§4 example)", func() (Result, error) { return E5ProcessorSections(64, 8) }},
		{"E6", "REDISTRIBUTE with aligned followers (§4.2)", func() (Result, error) { return E6RedistributeBundling(256, 8, 4) }},
		{"E7", "REALIGN forest surgery (§5.2)", func() (Result, error) { return E7RealignSurgery(128, 8) }},
		{"E8", "allocatable arrays (§6 example, verbatim)", func() (Result, error) { return E8Allocatables() }},
		{"E9", "block-cyclic vs block under shrinking active set (§4.1.3)", func() (Result, error) { return E9CyclicLU(1024, 16) }},
		{"E10", "replication via ALIGN A(:) WITH D(:,*) (§5.1 ex. 1)", func() (Result, error) { return E10Replication(64, 8) }},
		{"E11", "collapse via ALIGN B(:,*) WITH E(:) (§5.1 ex. 2)", func() (Result, error) { return E11Collapse(64, 8) }},
		{"E12", "template limitations made executable (§8.2)", func() (Result, error) { return E12TemplateLimitations() }},
		{"E13", "generalized distribution functions (intro claim 3, §9)", func() (Result, error) { return E13GeneralDistributions(1024, 8) }},
	}
}

// Run executes the experiments whose ids are in want (all of them
// when want is nil or empty), in registry order.
func Run(want map[string]bool) ([]Result, error) {
	var out []Result
	for _, e := range Registry() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		r, err := e.Run()
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}
