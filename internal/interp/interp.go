// Package interp executes whole programs written in the paper's
// directive language. It is the tree-walking back half of the front
// end: package directive parses and applies the declaration and
// mapping statements (PROCESSORS, DISTRIBUTE, ALIGN, REDISTRIBUTE,
// ...), and this package adds the executable subset the paper's
// example codes use — array-assignment statements over sections,
// FORALL initialization, bounded DO loops, subscripted (indirection
// vector) gathers and scatters, and PRINT of reductions or elements —
// compiling each statement onto hpf.Program / hpf.DistArray so one
// program text runs unchanged on every engine (sim | spmd) and every
// wire (inproc | shm | tcp).
//
// The interpreter is deterministic by construction: statements
// execute in textual order, arrays materialize in first-use order,
// and every output value is formatted identically on every backend,
// so program results (values, printed output and the logical machine
// report) can be diffed byte-for-byte across engine × transport —
// the same identity contract the hand-written workloads assert.
//
// Resource use is bounded (Options.MaxStatements, Options.MaxElems),
// making the interpreter safe to drive from fuzzers with arbitrary
// program text.
package interp

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hpfnt/hpf"
	"hpfnt/internal/directive"
	"hpfnt/internal/engine"
	"hpfnt/internal/index"
)

// Options bound the interpreter's resource usage.
type Options struct {
	// MaxStatements is the executed-statement budget (DO loop
	// iterations count once per iteration). 0 means DefaultMaxStatements.
	MaxStatements int
	// MaxElems caps the element count of any materialized array.
	// 0 means DefaultMaxElems.
	MaxElems int
}

// The default resource bounds.
const (
	DefaultMaxStatements = 1 << 20
	DefaultMaxElems      = 1 << 24
)

// Result is the observable outcome of a program run: everything in it
// must be byte-identical across engines and transports for the same
// program.
type Result struct {
	// Output is the accumulated PRINT output.
	Output string
	// Names lists the materialized arrays in materialization order.
	Names []string
	// Values holds each materialized array's dense global values.
	Values map[string][]float64
	// Report is the machine-counter snapshot at program end. Compare
	// Report.Logical() across backends (phase attribution is
	// engine-local).
	Report hpf.Report
}

// Interp executes directive-language programs against an hpf.Program.
type Interp struct {
	prog *hpf.Program
	opts Options

	out    strings.Builder
	arrays map[string]*hpf.DistArray
	order  []string
	scheds map[string]*hpf.Schedule
	steps  int
}

// New creates an interpreter over prog with default resource bounds.
func New(prog *hpf.Program) *Interp { return NewWith(prog, Options{}) }

// NewWith creates an interpreter with explicit resource bounds.
func NewWith(prog *hpf.Program, opts Options) *Interp {
	if opts.MaxStatements <= 0 {
		opts.MaxStatements = DefaultMaxStatements
	}
	if opts.MaxElems <= 0 {
		opts.MaxElems = DefaultMaxElems
	}
	return &Interp{
		prog:   prog,
		opts:   opts,
		arrays: map[string]*hpf.DistArray{},
		scheds: map[string]*hpf.Schedule{},
	}
}

// Run parses and executes src, returning the observable result: the
// job of src, prepared, stepped through its whole epoch loop and
// finished. Calling Run again continues in the same program state.
func (ip *Interp) Run(src string) (*Result, error) {
	j, err := ip.Prepare(src)
	if err != nil {
		return nil, err
	}
	if err := j.Step(0, j.Iters); err != nil {
		return nil, err
	}
	return j.Finish()
}

// Job is a program split at its epoch loop — the first top-level DO
// whose body holds only array assignments — so that a driver (package
// elastic) can run the loop's iterations in chunks, checkpoint Arrays
// between them, and after a restore resume at a later iteration.
// Prepare has run the statements before the loop, Step runs its
// iterations, and Finish runs the rest of the program.
type Job struct {
	// Arrays are the engine arrays of every materialized array in
	// materialization order, including every array the loop names.
	Arrays []engine.Array
	// Iters is the epoch loop's trip count (0 without an epoch loop).
	Iters int

	ip   *Interp
	loop *doLoop
	trip index.Triplet
	rest []node
}

// Prepare parses src and runs the statements before its epoch loop,
// then evaluates the loop's bounds and materializes every array the
// loop names. Without an epoch loop, Finish runs the whole program.
func (ip *Interp) Prepare(src string) (*Job, error) {
	nodes, err := parseProgram(src)
	if err != nil {
		return nil, err
	}
	j := &Job{ip: ip, rest: nodes}
	if at, _ := epochLoop(nodes); at >= 0 {
		for _, n := range nodes[:at] {
			if err := ip.exec(n); err != nil {
				return nil, err
			}
		}
		j.loop, j.rest = nodes[at].(*doLoop), nodes[at+1:]
		if err := ip.charge(j.loop.ln, 1); err != nil {
			return nil, err
		}
		if j.trip, err = ip.loopRange(j.loop); err != nil {
			return nil, err
		}
		if j.Iters = j.trip.Count(); j.Iters > 0 {
			if err := ip.materialize(j.loop.body); err != nil {
				return nil, err
			}
		}
	}
	for _, name := range ip.order {
		j.Arrays = append(j.Arrays, ip.arrays[name].EngineArray())
	}
	return j, nil
}

// Step runs the epoch loop's iterations epoch+1 .. epoch+k as a DO
// statement runs them, charging the statement budget the same way.
func (j *Job) Step(epoch, k int) error { return j.ip.iterate(j.loop, j.trip, epoch, k) }

// Finish runs the statements after the epoch loop and returns the
// program's observable result.
func (j *Job) Finish() (*Result, error) {
	ip := j.ip
	for _, n := range j.rest {
		if err := ip.exec(n); err != nil {
			return nil, err
		}
	}
	res := &Result{
		Output: ip.out.String(),
		Names:  append([]string(nil), ip.order...),
		Values: make(map[string][]float64, len(ip.order)),
		Report: ip.prog.Stats(),
	}
	for _, name := range ip.order {
		res.Values[name] = ip.arrays[name].Data()
	}
	return res, nil
}

// CheckEpochLoop reports whether src has an epoch loop to checkpoint
// at, with an error positioned at what keeps it from having one.
func CheckEpochLoop(src string) error {
	nodes, err := parseProgram(src)
	if err != nil {
		return err
	}
	_, err = epochLoop(nodes)
	return err
}

// epochLoop returns the index in nodes of the epoch loop: the first
// top-level DO whose body holds only array assignments. Without one it
// returns -1 and an error positioned at the statement that disqualifies
// the first top-level DO, or at the last statement if there is no DO.
func epochLoop(nodes []node) (int, error) {
	var why error
	for i, n := range nodes {
		l, ok := n.(*doLoop)
		if !ok {
			continue
		}
		bad := slices.IndexFunc(l.body, func(b node) bool { _, ok := b.(*assignStmt); return !ok })
		if bad < 0 {
			return i, nil
		}
		if why == nil {
			why = errf(l.body[bad].line(), "the DO at line %d is no epoch loop: its body holds %s", l.ln, stmtKind(l.body[bad]))
		}
	}
	if why == nil {
		ln := 0
		if len(nodes) > 0 {
			ln = nodes[len(nodes)-1].line()
		}
		why = errf(ln, "no epoch loop: the program has no top-level DO")
	}
	return -1, why
}

// stmtKind names a statement that is not an array assignment.
func stmtKind(n node) string {
	switch n.(type) {
	case *dirLine:
		return "a directive"
	case *printStmt:
		return "a PRINT"
	case *forallStmt:
		return "a FORALL"
	}
	return "a nested DO"
}

// materialize materializes, in textual order, every declared array the
// statements reference, as their first execution would.
func (ip *Interp) materialize(body []node) error {
	for _, n := range body {
		toks := n.(*assignStmt).toks
		for i, t := range toks[:len(toks)-1] {
			if t.Kind != directive.TokIdent || toks[i+1].Kind != directive.TokLParen {
				continue
			}
			if _, ok := ip.prog.Unit.Array(t.Text); ok {
				if _, err := ip.array(n.line(), t.Text); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Check parses src without executing it, reporting the first syntax
// error (statement-level only; subscript resolution happens at
// execution time).
func Check(src string) error {
	_, err := parseProgram(src)
	return err
}

// param resolves a named integer parameter of the directive layer.
func (ip *Interp) param(name string) (int, bool) {
	v, ok := ip.prog.Interp.Params[name]
	return v, ok
}

// paramArray resolves a named integer vector (PARAMETER ... = (/../)
// or SetParamArray).
func (ip *Interp) paramArray(name string) ([]int, bool) {
	v, ok := ip.prog.Interp.ParamArrays[name]
	return v, ok
}

// charge spends n statements of the execution budget.
func (ip *Interp) charge(ln, n int) error {
	ip.steps += n
	if ip.steps > ip.opts.MaxStatements {
		return errf(ln, "statement budget exceeded (%d executed statements; raise Options.MaxStatements)", ip.opts.MaxStatements)
	}
	return nil
}

// array returns the materialized runtime array for name,
// materializing it on first executable use. Materialization order is
// textual first-use order, which is identical on every backend (and
// on every process of a multi-process spmd job).
func (ip *Interp) array(ln int, name string) (*hpf.DistArray, error) {
	if a, ok := ip.arrays[name]; ok {
		return a, nil
	}
	ca, ok := ip.prog.Unit.Array(name)
	if !ok {
		return nil, errf(ln, "unknown array %q (declare it with REAL/INTEGER first)", name)
	}
	if !ca.Created {
		return nil, errf(ln, "array %q is not allocated", name)
	}
	if size := ca.Dom.Size(); size > ip.opts.MaxElems {
		return nil, errf(ln, "array %q has %d elements, above the interpreter cap %d", name, size, ip.opts.MaxElems)
	}
	a, err := ip.prog.NewArray(name)
	if err != nil {
		return nil, errf(ln, "%w", err)
	}
	ip.arrays[name] = a
	ip.order = append(ip.order, name)
	return a, nil
}

// exec dispatches one AST node.
func (ip *Interp) exec(n node) error {
	if err := ip.charge(n.line(), 1); err != nil {
		return err
	}
	switch t := n.(type) {
	case *dirLine:
		return ip.execDirective(t)
	case *assignStmt:
		r, err := ip.resolveAssign(t)
		if err != nil {
			return err
		}
		return ip.execResolved(t.ln, r, 1)
	case *forallStmt:
		return ip.execForall(t)
	case *printStmt:
		return ip.execPrint(t)
	case *doLoop:
		tr, err := ip.loopRange(t)
		if err != nil {
			return err
		}
		return ip.iterate(t, tr, 0, tr.Count())
	default:
		return errf(n.line(), "internal: unknown node %T", n)
	}
}

// execDirective delegates a declaration/mapping line to package
// directive, then remaps materialized arrays if the line can have
// changed a mapping.
func (ip *Interp) execDirective(d *dirLine) error {
	if err := ip.prog.Interp.ExecLine(d.raw); err != nil {
		return errf(d.ln, "%w", err)
	}
	if remapKeywords[d.keyword] {
		return ip.remapAll(d.ln)
	}
	return nil
}

// remapAll moves every materialized array to its currently recorded
// mapping and drops compiled schedules (they are mapping-specific).
// Arrays deallocated by the directive are dropped from the run.
func (ip *Interp) remapAll(ln int) error {
	ip.scheds = map[string]*hpf.Schedule{}
	keep := ip.order[:0]
	for _, name := range ip.order {
		ca, ok := ip.prog.Unit.Array(name)
		if !ok || !ca.Created {
			delete(ip.arrays, name)
			continue
		}
		if _, err := ip.arrays[name].Remap(); err != nil {
			return errf(ln, "remapping %s: %w", name, err)
		}
		keep = append(keep, name)
	}
	ip.order = keep
	return nil
}

// sub is one resolved subscript of an executable array reference.
type sub struct {
	vec    []int // non-nil: indirection vector subscript
	tr     index.Triplet
	scalar bool // written as a single index, not a section
}

// resolved is one fully resolved assignment statement, ready to
// execute (and, for schedule-backed kinds, to cache by signature).
type resolved struct {
	kind rKind
	lhs  *hpf.DistArray

	// rAssign
	region index.Domain
	terms  []hpf.AssignTerm

	// rIrregular: the subscripts of both sides, expanded on a cache miss
	src        *hpf.DistArray
	wsub, rsub sub
	coeff      float64

	// rFill
	fillVal   float64
	fillWhole bool

	key string // schedule cache key; "" for rFill
}

type rKind int

const (
	rFill rKind = iota
	rAssign
	rIrregular
)

// resolveAssign parses and resolves one assignment statement against
// the current program state (array domains, parameter values, loop
// variables).
func (ip *Interp) resolveAssign(st *assignStmt) (*resolved, error) {
	c := &cursor{ip: ip, ln: st.ln, toks: st.toks}
	lhsName, lhsSubs, err := ip.parseRef(c)
	if err != nil {
		return nil, err
	}
	if _, err := c.expect(directive.TokAssign); err != nil {
		return nil, err
	}
	terms, err := ip.parseRHS(c)
	if err != nil {
		return nil, err
	}
	if err := c.requireEnd(); err != nil {
		return nil, err
	}
	lhs, err := ip.array(st.ln, lhsName)
	if err != nil {
		return nil, err
	}

	lhsVecs := countVecs(lhsSubs)
	rhsVecs := 0
	nRefs := 0
	for _, t := range terms {
		if !t.isConst {
			nRefs++
			rhsVecs += countVecs(t.subs)
		}
	}
	switch {
	case lhsVecs == 0 && rhsVecs == 0 && nRefs == 0:
		return ip.resolveFill(st.ln, lhs, lhsName, lhsSubs, terms)
	case lhsVecs == 0 && rhsVecs == 0:
		return ip.resolveRegular(st.ln, lhs, lhsName, lhsSubs, terms)
	default:
		_ = lhsVecs
		return ip.resolveIrregular(st.ln, lhs, lhsName, lhsSubs, terms)
	}
}

func countVecs(subs []sub) int {
	n := 0
	for _, s := range subs {
		if s.vec != nil {
			n++
		}
	}
	return n
}

// rterm is one parsed right-hand-side term before resolution.
type rterm struct {
	coeff   float64
	isConst bool
	name    string
	subs    []sub
	ln      int
}

// parseRef parses NAME(sub, ...) resolving each subscript against the
// array's domain. The array is materialized here so its domain is
// available for ":" defaults.
func (ip *Interp) parseRef(c *cursor) (string, []sub, error) {
	t, err := c.expect(directive.TokIdent)
	if err != nil {
		return "", nil, err
	}
	name := t.Text
	arr, err := ip.array(c.ln, name)
	if err != nil {
		return "", nil, err
	}
	dom := arr.Shape()
	if _, err := c.expect(directive.TokLParen); err != nil {
		return "", nil, err
	}
	var subs []sub
	for dim := 0; ; dim++ {
		if dim >= dom.Rank() {
			return "", nil, errf(c.ln, "too many subscripts for %s (rank %d)", name, dom.Rank())
		}
		s, err := ip.parseSubscript(c, dom.Dims[dim])
		if err != nil {
			return "", nil, err
		}
		subs = append(subs, s)
		if c.accept(directive.TokComma) {
			continue
		}
		break
	}
	if _, err := c.expect(directive.TokRParen); err != nil {
		return "", nil, err
	}
	if len(subs) != dom.Rank() {
		return "", nil, errf(c.ln, "%s has rank %d but %d subscript(s) given", name, dom.Rank(), len(subs))
	}
	return name, subs, nil
}

// parseSubscript parses one subscript position: an indirection-vector
// name, a scalar index expression, or a section triplet lo:hi[:step]
// with ":" defaults taken from the array dimension def.
func (ip *Interp) parseSubscript(c *cursor, def index.Triplet) (sub, error) {
	// Indirection vector: a bare identifier naming a parameter array,
	// directly followed by ',' or ')'.
	if c.at(directive.TokIdent) {
		after := c.toks[c.i+1].Kind
		if after == directive.TokComma || after == directive.TokRParen {
			if vec, ok := ip.paramArray(c.peek().Text); ok {
				c.next()
				return sub{vec: vec}, nil
			}
		}
	}
	lo, hi, step := def.Low, def.Last(), 1
	if !c.at(directive.TokColon) {
		v, err := c.intExpr()
		if err != nil {
			return sub{}, err
		}
		if !c.at(directive.TokColon) {
			return sub{tr: index.Unit(v, v), scalar: true}, nil
		}
		lo = v
	}
	c.next() // ':'
	if !c.at(directive.TokComma) && !c.at(directive.TokRParen) && !c.at(directive.TokColon) {
		v, err := c.intExpr()
		if err != nil {
			return sub{}, err
		}
		hi = v
	}
	if c.accept(directive.TokColon) {
		v, err := c.intExpr()
		if err != nil {
			return sub{}, err
		}
		step = v
	}
	if step <= 0 {
		return sub{}, errf(c.ln, "section stride must be positive, got %d", step)
	}
	return sub{tr: index.Triplet{Low: lo, High: hi, Stride: step}}, nil
}

// parseRHS parses coeff*REF ± ... ± const.
func (ip *Interp) parseRHS(c *cursor) ([]rterm, error) {
	var terms []rterm
	sign := 1.0
	if c.accept(directive.TokMinus) {
		sign = -1
	} else {
		c.accept(directive.TokPlus)
	}
	for {
		t, err := ip.parseTerm(c, sign)
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
		switch {
		case c.accept(directive.TokPlus):
			sign = 1
		case c.accept(directive.TokMinus):
			sign = -1
		default:
			return terms, nil
		}
	}
}

// parseTerm parses one RHS term: NUMBER, NUMBER '*' REF, or REF.
func (ip *Interp) parseTerm(c *cursor, sign float64) (rterm, error) {
	if c.at(directive.TokNumber) {
		t := c.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return rterm{}, errf(c.ln, "bad number %q (column %d)", t.Text, t.Pos+1)
		}
		v *= sign
		if c.accept(directive.TokSlash) {
			d, err := c.expect(directive.TokNumber)
			if err != nil {
				return rterm{}, err
			}
			dv, err := strconv.ParseFloat(d.Text, 64)
			if err != nil || dv == 0 {
				return rterm{}, errf(c.ln, "bad divisor %q (column %d)", d.Text, d.Pos+1)
			}
			v /= dv
		}
		if !c.accept(directive.TokStar) {
			return rterm{coeff: v, isConst: true, ln: c.ln}, nil
		}
		name, subs, err := ip.parseRef(c)
		if err != nil {
			return rterm{}, err
		}
		return rterm{coeff: v, name: name, subs: subs, ln: c.ln}, nil
	}
	name, subs, err := ip.parseRef(c)
	if err != nil {
		return rterm{}, err
	}
	return rterm{coeff: sign, name: name, subs: subs, ln: c.ln}, nil
}

// checkSection validates a resolved subscript against its dimension.
func checkSection(ln int, name string, dim int, s sub, def index.Triplet) error {
	if s.tr.Empty() {
		return nil
	}
	if s.tr.Low < def.Low || s.tr.Last() > def.High {
		return errf(ln, "subscript %s of %s dimension %d is outside %s", s.tr, name, dim+1, def)
	}
	return nil
}

// resolveFill folds a constant right-hand side.
func (ip *Interp) resolveFill(ln int, lhs *hpf.DistArray, name string, subs []sub, terms []rterm) (*resolved, error) {
	v := 0.0
	for _, t := range terms {
		v += t.coeff
	}
	dom := lhs.Shape()
	whole := true
	dims := make([]index.Triplet, len(subs))
	for d, s := range subs {
		if err := checkSection(ln, name, d, s, dom.Dims[d]); err != nil {
			return nil, err
		}
		dims[d] = s.tr
		if s.scalar || s.tr != dom.Dims[d] {
			whole = false
		}
	}
	return &resolved{
		kind:      rFill,
		lhs:       lhs,
		region:    index.New(dims...),
		fillVal:   v,
		fillWhole: whole,
	}, nil
}

// resolveRegular builds the section-assignment form
// lhs(region) = Σ coeff·src(t+shift): per dimension the source
// section must have the same element count and stride as the
// left-hand side's, and the shift is the difference of lower bounds.
func (ip *Interp) resolveRegular(ln int, lhs *hpf.DistArray, lhsName string, lhsSubs []sub, terms []rterm) (*resolved, error) {
	dom := lhs.Shape()
	dims := make([]index.Triplet, len(lhsSubs))
	for d, s := range lhsSubs {
		if err := checkSection(ln, lhsName, d, s, dom.Dims[d]); err != nil {
			return nil, err
		}
		dims[d] = s.tr
	}
	region := index.New(dims...)

	var key strings.Builder
	fmt.Fprintf(&key, "A|%s|%s", lhsName, region)
	var aterms []hpf.AssignTerm
	for _, t := range terms {
		if t.isConst {
			return nil, errf(t.ln, "constant addends are not supported alongside array references (write the constant into its own array)")
		}
		src, err := ip.array(t.ln, t.name)
		if err != nil {
			return nil, err
		}
		sdom := src.Shape()
		if sdom.Rank() != len(dims) {
			return nil, errf(t.ln, "rank mismatch: %s has rank %d, assignment region has rank %d", t.name, sdom.Rank(), len(dims))
		}
		shift := make([]int, len(dims))
		for d, s := range t.subs {
			if err := checkSection(ln, t.name, d, s, sdom.Dims[d]); err != nil {
				return nil, err
			}
			if s.tr.Count() != dims[d].Count() {
				return nil, errf(t.ln, "dimension %d: %s section %s has %d elements, left-hand side %s has %d",
					d+1, t.name, s.tr, s.tr.Count(), dims[d], dims[d].Count())
			}
			if dims[d].Count() > 1 && s.tr.Stride != dims[d].Stride {
				return nil, errf(t.ln, "dimension %d: %s section stride %d differs from left-hand side stride %d",
					d+1, t.name, s.tr.Stride, dims[d].Stride)
			}
			shift[d] = s.tr.Low - dims[d].Low
		}
		aterms = append(aterms, hpf.Read(src, t.coeff, shift...))
		fmt.Fprintf(&key, "|%s*%s%v", strconv.FormatFloat(t.coeff, 'g', -1, 64), t.name, shift)
	}
	return &resolved{
		kind:   rAssign,
		lhs:    lhs,
		region: region,
		terms:  aterms,
		key:    key.String(),
	}, nil
}

// resolveIrregular builds the inspector-executor form from statements
// with indirection-vector subscripts: gather Y(l:u) = c*X(V),
// scatter Y(V) = c*X(l:u), or the doubly indirect Y(W) = c*X(V).
func (ip *Interp) resolveIrregular(ln int, lhs *hpf.DistArray, lhsName string, lhsSubs []sub, terms []rterm) (*resolved, error) {
	if len(terms) != 1 || terms[0].isConst {
		return nil, errf(ln, "indirection-vector assignment takes exactly one array reference on the right-hand side")
	}
	t := terms[0]
	if len(lhsSubs) != 1 {
		return nil, errf(ln, "indirection-vector assignment requires a rank-1 left-hand side, %s has rank %d", lhsName, len(lhsSubs))
	}
	src, err := ip.array(t.ln, t.name)
	if err != nil {
		return nil, err
	}
	if len(t.subs) != 1 {
		return nil, errf(t.ln, "indirection-vector assignment requires a rank-1 right-hand side, %s has rank %d", t.name, len(t.subs))
	}
	n := sideCount(lhsSubs[0])
	if rn := sideCount(t.subs[0]); n != rn {
		return nil, errf(ln, "left-hand side selects %d elements, right-hand side %d", n, rn)
	}
	// The key is binary and linear in the vector lengths: the element
	// count, then each side as a section's triplet or a vector's hash.
	key := fmt.Appendf(nil, "I|%s|%s|%s|", lhsName, t.name, strconv.FormatFloat(t.coeff, 'g', -1, 64))
	key = binary.LittleEndian.AppendUint64(key, uint64(n))
	for _, s := range []sub{lhsSubs[0], t.subs[0]} {
		if s.vec != nil {
			key = binary.LittleEndian.AppendUint64(append(key, 'v'), vecHash(s.vec))
			continue
		}
		// Only the elements a section selects matter.
		lo, stride := s.tr.Low, s.tr.Stride
		if n == 0 {
			lo = 0
		}
		if n <= 1 {
			stride = 0
		}
		key = binary.LittleEndian.AppendUint64(append(key, 's'), uint64(lo))
		key = binary.LittleEndian.AppendUint64(key, uint64(stride))
	}
	return &resolved{
		kind:  rIrregular,
		lhs:   lhs,
		src:   src,
		wsub:  lhsSubs[0],
		rsub:  t.subs[0],
		coeff: t.coeff,
		key:   string(key),
	}, nil
}

// keySeed seeds the vector hashes of irregular cache keys, which never
// leave the process.
var keySeed = maphash.MakeSeed()

// vecHash hashes an indirection vector's entries as fixed-width
// binary, through one reused buffer.
func vecHash(vec []int) uint64 {
	var h maphash.Hash
	h.SetSeed(keySeed)
	var buf [4096]byte
	for len(vec) > 0 {
		m := min(len(vec), len(buf)/8)
		for i, v := range vec[:m] {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
		}
		h.Write(buf[:8*m])
		vec = vec[m:]
	}
	return h.Sum64()
}

// sideCount is the number of elements one rank-1 side of an irregular
// statement selects.
func sideCount(s sub) int {
	if s.vec != nil {
		return len(s.vec)
	}
	return s.tr.Count()
}

// expandSide turns one rank-1 side of an irregular statement into its
// global index list: either the indirection vector itself or the
// expansion of the section triplet. (Index bounds are validated by
// hpf.NewIrregular.)
func expandSide(s sub) []int {
	if s.vec != nil {
		return s.vec
	}
	out := make([]int, s.tr.Count())
	for k := range out {
		out[k] = s.tr.At(k)
	}
	return out
}

// newIrregular runs the inspector for an irregular statement.
func newIrregular(r *resolved) (*hpf.Schedule, error) {
	writes, reads := expandSide(r.wsub), expandSide(r.rsub)
	var coeffs []float64
	if r.coeff != 1 {
		coeffs = make([]float64, len(writes))
		for i := range coeffs {
			coeffs[i] = r.coeff
		}
	}
	return r.lhs.NewIrregular(r.src, writes, reads, coeffs)
}

// maxCachedSchedules bounds the schedule cache; when a new schedule
// would exceed it the whole cache is dropped, as remapAll drops it.
const maxCachedSchedules = 256

// schedule returns the compiled schedule for r, building and caching
// it on first use. Cached schedules are dropped whenever a directive
// can have changed a mapping (remapAll), and when the cache is full.
func (ip *Interp) schedule(ln int, r *resolved) (*hpf.Schedule, error) {
	if s, ok := ip.scheds[r.key]; ok {
		cacheHits.Add(1)
		return s, nil
	}
	cacheMisses.Add(1)
	var s *hpf.Schedule
	var err error
	switch r.kind {
	case rAssign:
		s, err = r.lhs.NewSchedule(r.region, r.terms...)
	case rIrregular:
		s, err = newIrregular(r)
	}
	if err != nil {
		return nil, errf(ln, "%w", err)
	}
	// A loop whose regions depend on the loop variable compiles a
	// schedule per iteration and never asks for it again: without a
	// bound the cache would hold every one until the program ends.
	if len(ip.scheds) >= maxCachedSchedules {
		ip.scheds = map[string]*hpf.Schedule{}
	}
	ip.scheds[r.key] = s
	return s, nil
}

// execResolved executes a resolved statement iters times (iters > 1
// only on the invariant-loop fast path, which replays the compiled
// schedule).
func (ip *Interp) execResolved(ln int, r *resolved, iters int) error {
	switch r.kind {
	case rFill:
		if r.region.Empty() {
			return nil
		}
		if r.fillWhole {
			v := r.fillVal
			r.lhs.Fill(func(index.Tuple) float64 { return v })
			return nil
		}
		r.region.ForEach(func(t index.Tuple) bool {
			r.lhs.Set(t, r.fillVal)
			return true
		})
		return nil
	case rAssign:
		if r.region.Empty() {
			return nil
		}
	}
	s, err := ip.schedule(ln, r)
	if err != nil {
		return err
	}
	if iters == 1 {
		err = s.Run()
	} else {
		err = s.RunN(iters)
	}
	if err != nil {
		return errf(ln, "%w", err)
	}
	return nil
}

// loopRange evaluates the bounds of DO var = lo, hi[, step].
func (ip *Interp) loopRange(l *doLoop) (index.Triplet, error) {
	evalBound := func(toks []directive.Token) (int, error) {
		c := &cursor{ip: ip, ln: l.ln, toks: append(append([]directive.Token(nil), toks...), directive.Token{Kind: directive.TokEOF})}
		v, err := c.intExpr()
		if err != nil {
			return 0, err
		}
		return v, c.requireEnd()
	}
	lo, err := evalBound(l.lo)
	if err != nil {
		return index.Triplet{}, err
	}
	hi, err := evalBound(l.hi)
	if err != nil {
		return index.Triplet{}, err
	}
	step := 1
	if l.step != nil {
		if step, err = evalBound(l.step); err != nil {
			return index.Triplet{}, err
		}
		if step == 0 {
			return index.Triplet{}, errf(l.ln, "DO step must be nonzero")
		}
	}
	return index.Triplet{Low: lo, High: hi, Stride: step}, nil
}

// iterate runs iterations from+1 .. from+k of the loop l over tr. A
// body that is a single assignment not referencing the loop variable
// compiles once and replays via RunN — the compiled-schedule path the
// paper's iterated stencils rely on.
func (ip *Interp) iterate(l *doLoop, tr index.Triplet, from, k int) error {
	if k == 0 {
		return nil
	}
	if st, ok := l.invariantBody(); ok {
		r, err := ip.resolveAssign(st)
		if err != nil {
			return err
		}
		if r.kind != rFill {
			if err := ip.charge(l.ln, k); err != nil {
				return err
			}
			return ip.execResolved(st.ln, r, k)
		}
	}
	for i := from; i < from+k; i++ {
		ip.prog.SetParam(l.varName, tr.At(i))
		for _, nd := range l.body {
			if err := ip.exec(nd); err != nil {
				return err
			}
		}
	}
	return nil
}

// invariantBody reports whether the loop body is a single assignment
// that never mentions the loop variable.
func (l *doLoop) invariantBody() (*assignStmt, bool) {
	if len(l.body) != 1 {
		return nil, false
	}
	st, ok := l.body[0].(*assignStmt)
	if !ok {
		return nil, false
	}
	for _, t := range st.toks {
		if t.Kind == directive.TokIdent && t.Text == l.varName {
			return nil, false
		}
	}
	return st, true
}

// execForall runs FORALL (I = l:u, ...) NAME(I, ...) = int-expr as a
// whole-array Fill. The ranges must span the array's full domain and
// the left-hand subscripts must be exactly the index variables in
// order, so the statement is a pure element-wise initialization (the
// form the paper's example codes use to set up operands).
func (ip *Interp) execForall(f *forallStmt) error {
	c := &cursor{ip: ip, ln: f.ln, toks: f.toks}
	c.next() // FORALL
	if _, err := c.expect(directive.TokLParen); err != nil {
		return err
	}
	var vars []string
	var ranges []index.Triplet
	for {
		t, err := c.expect(directive.TokIdent)
		if err != nil {
			return err
		}
		for _, v := range vars {
			if v == t.Text {
				return errf(f.ln, "duplicate FORALL index %s", t.Text)
			}
		}
		if _, err := c.expect(directive.TokAssign); err != nil {
			return err
		}
		lo, err := c.intExpr()
		if err != nil {
			return err
		}
		if _, err := c.expect(directive.TokColon); err != nil {
			return err
		}
		hi, err := c.intExpr()
		if err != nil {
			return err
		}
		vars = append(vars, t.Text)
		ranges = append(ranges, index.Unit(lo, hi))
		if c.accept(directive.TokComma) {
			continue
		}
		break
	}
	if _, err := c.expect(directive.TokRParen); err != nil {
		return err
	}
	nameTok, err := c.expect(directive.TokIdent)
	if err != nil {
		return err
	}
	arr, err := ip.array(f.ln, nameTok.Text)
	if err != nil {
		return err
	}
	dom := arr.Shape()
	if dom.Rank() != len(vars) {
		return errf(f.ln, "FORALL has %d index variable(s) but %s has rank %d", len(vars), nameTok.Text, dom.Rank())
	}
	for d, r := range ranges {
		if r.Low != dom.Dims[d].Low || r.High != dom.Dims[d].Last() {
			return errf(f.ln, "FORALL range %s must span %s dimension %d exactly (%s)", r, nameTok.Text, d+1, dom.Dims[d])
		}
	}
	if _, err := c.expect(directive.TokLParen); err != nil {
		return err
	}
	for i, v := range vars {
		t, err := c.expect(directive.TokIdent)
		if err != nil {
			return err
		}
		if t.Text != v {
			return errf(f.ln, "FORALL left-hand subscript %d must be %s, got %s", i+1, v, t.Text)
		}
		if i < len(vars)-1 {
			if _, err := c.expect(directive.TokComma); err != nil {
				return err
			}
		}
	}
	if _, err := c.expect(directive.TokRParen); err != nil {
		return err
	}
	if _, err := c.expect(directive.TokAssign); err != nil {
		return err
	}
	// Compiled once, the right-hand side is checked before Fill runs;
	// the index variables become the tuple's slots.
	c.vars = vars
	rhs, err := c.compile()
	if err != nil {
		return err
	}
	if err := c.requireEnd(); err != nil {
		return err
	}

	// The Fill callback runs concurrently on the spmd backend.
	// Value-dependent evaluation errors (MOD by a zero that only some
	// elements hit) yield 0 for that element and surface once after
	// the fill.
	var once sync.Once
	var fillErr error
	arr.Fill(func(t index.Tuple) float64 {
		v, err := rhs.Eval(t)
		if err != nil {
			once.Do(func() { fillErr = err })
			return 0
		}
		return float64(v)
	})
	if fillErr != nil {
		return errf(f.ln, "%w", fillErr)
	}
	return nil
}

// execPrint runs PRINT SUM(A) | MAXVAL(A) | MINVAL(A) | A(i, ...),
// appending one deterministic line to the program output.
func (ip *Interp) execPrint(p *printStmt) error {
	c := &cursor{ip: ip, ln: p.ln, toks: p.toks}
	c.next() // PRINT
	t, err := c.expect(directive.TokIdent)
	if err != nil {
		return err
	}
	switch t.Text {
	case "SUM", "MAXVAL", "MINVAL":
		if _, err := c.expect(directive.TokLParen); err != nil {
			return err
		}
		nameTok, err := c.expect(directive.TokIdent)
		if err != nil {
			return err
		}
		if _, err := c.expect(directive.TokRParen); err != nil {
			return err
		}
		if err := c.requireEnd(); err != nil {
			return err
		}
		arr, err := ip.array(p.ln, nameTok.Text)
		if err != nil {
			return err
		}
		op := hpf.Sum
		switch t.Text {
		case "MAXVAL":
			op = hpf.Max
		case "MINVAL":
			op = hpf.Min
		}
		v, err := arr.Reduce(op)
		if err != nil {
			return errf(p.ln, "%w", err)
		}
		fmt.Fprintf(&ip.out, "%s(%s) = %s\n", t.Text, nameTok.Text, formatValue(v))
		return nil
	default:
		if _, err := c.expect(directive.TokLParen); err != nil {
			return err
		}
		var idx []int
		var strs []string
		for {
			v, err := c.intExpr()
			if err != nil {
				return err
			}
			idx = append(idx, v)
			strs = append(strs, strconv.Itoa(v))
			if c.accept(directive.TokComma) {
				continue
			}
			break
		}
		if _, err := c.expect(directive.TokRParen); err != nil {
			return err
		}
		if err := c.requireEnd(); err != nil {
			return err
		}
		arr, err := ip.array(p.ln, t.Text)
		if err != nil {
			return err
		}
		tup := index.Tuple(idx)
		if len(idx) != arr.Shape().Rank() || !arr.Shape().Contains(tup) {
			return errf(p.ln, "element %s(%s) is outside %s", t.Text, strings.Join(strs, ","), arr.Shape())
		}
		fmt.Fprintf(&ip.out, "%s(%s) = %s\n", t.Text, strings.Join(strs, ","), formatValue(arr.At(tup)))
		return nil
	}
}

// formatValue renders a float deterministically for PRINT output and
// golden fixtures.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// SortedNames returns the materialized array names sorted, for
// deterministic diagnostics.
func (r *Result) SortedNames() []string {
	names := append([]string(nil), r.Names...)
	sort.Strings(names)
	return names
}
