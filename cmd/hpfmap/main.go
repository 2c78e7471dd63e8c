// Command hpfmap parses a directive-language program (the paper's
// !HPF$ syntax plus a minimal Fortran declaration subset) and reports
// the resulting data mapping: the alignment forest, per-array
// distribution inquiry, per-processor element counts, and optionally
// per-element ownership tables.
//
// Usage:
//
//	hpfmap -np 16 program.hpf
//	hpfmap -np 8 -owners A -param N=64 program.hpf
//	echo 'REAL A(16)' | hpfmap -np 4 -owners A -
//
// Flags:
//
//	-np N        number of abstract processors (default: the
//	             program's !hpfrun: line, else 16)
//	-param K=V   define an integer parameter (repeatable, comma list)
//	-owners A    print the per-element owner table of array A
//	-vienna      use the Vienna Fortran BLOCK definition
//	-templates   enable the HPF baseline TEMPLATE directive
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hpfnt/hpf"
	"hpfnt/internal/inquiry"
	"hpfnt/internal/interp"
)

var (
	np        = flag.Int("np", 0, "number of abstract processors (0: the program's !hpfrun: line, else 16)")
	params    = flag.String("param", "", "comma-separated K=V integer parameters")
	owners    = flag.String("owners", "", "print the owner table of this array")
	vienna    = flag.Bool("vienna", false, "use the Vienna Fortran BLOCK definition")
	templates = flag.Bool("templates", false, "enable the HPF baseline TEMPLATE directive")
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hpfmap [flags] program.hpf  (use - for stdin)")
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Arg(0), *np, *params, *owners, *vienna, *templates); err != nil {
		fmt.Fprintf(os.Stderr, "hpfmap: %v\n", err)
		os.Exit(1)
	}
}

// run loads the program through the shared front-end loader (package
// interp) and writes the mapping report.
func run(w io.Writer, path string, np int, params, owners string, vienna, templates bool) error {
	src, err := interp.ReadSource(path)
	if err != nil {
		return err
	}
	cfg := interp.Config{
		NP:        np,
		Engine:    "sim",
		Vienna:    vienna,
		Templates: templates,
		Params:    map[string]int{},
	}
	if err := interp.ParseParams(params, cfg.Params); err != nil {
		return err
	}
	if err := interp.ScanFileOptions(src, &cfg); err != nil {
		return err
	}
	if cfg.NP == 0 {
		cfg.NP = 16
	}
	prog, err := cfg.NewProgram()
	if err != nil {
		return err
	}
	defer prog.Close()
	// hpfmap reports the mapping only, so executable statements are
	// irrelevant here — but corpus programs contain them. Feed the
	// directive interpreter just the lines it owns.
	if err := prog.Exec(directiveLines(src)); err != nil {
		return err
	}
	return describe(w, prog, cfg.NP, owners)
}

// directiveLines filters a program down to the declaration and
// mapping statements package directive understands, dropping the
// executable statements handled by package interp.
func directiveLines(src string) string {
	var b strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if interp.IsDirectiveLine(line) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// describe writes the mapping report: alignment forest, per-array
// inquiry and per-processor element counts, and the optional owner
// table.
func describe(w io.Writer, prog *hpf.Program, np int, owners string) error {
	fmt.Fprintln(w, prog.Unit.Describe())
	for _, name := range prog.Unit.Names() {
		a, _ := prog.Unit.Array(name)
		if !a.Created {
			continue
		}
		m, err := prog.MappingOf(name)
		if err != nil {
			fmt.Fprintf(w, "%s: %v\n", name, err)
			continue
		}
		info := inquiry.Describe(m)
		fmt.Fprintf(w, "%-12s %s\n", name, info.Render())
		fmt.Fprintf(w, "%-12s per-processor elements:", "")
		counts, err := inquiry.LocalExtents(m)
		if err != nil {
			return err
		}
		for p := 1; p <= np && p < len(counts); p++ {
			if counts[p] > 0 {
				fmt.Fprintf(w, " %d:%d", p, counts[p])
			}
		}
		fmt.Fprintln(w)
	}

	if owners != "" {
		name := strings.ToUpper(owners)
		m, err := prog.MappingOf(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nowner table of %s over %s:\n", name, m.Domain())
		var oerr error
		m.Domain().ForEach(func(t hpf.Tuple) bool {
			procs, err := inquiry.OwnersOf(m, t)
			if err != nil {
				oerr = err
				return false
			}
			fmt.Fprintf(w, "  %s -> %v\n", t, procs)
			return true
		})
		return oerr
	}
	return nil
}
