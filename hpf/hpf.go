// Package hpf is the public API of the template-free HPF
// distribution-and-alignment model of Chapman, Mehrotra and Zima
// ("High Performance Fortran Without Templates", PPoPP 1993 / ICASE
// 93-17). It ties together:
//
//   - the mapping model (processor arrangements, distribution formats,
//     alignment functions, the alignment forest of primary and
//     secondary arrays),
//   - a directive-language front end so programs can be written in the
//     paper's own !HPF$ syntax,
//   - a simulated distributed-memory machine and an owner-computes
//     runtime that execute array statements and measure the
//     communication and load balance each mapping induces. A statement
//     has one form: its terms (reads through an AssignTerm.Access) are
//     built once into a Schedule — NewSchedule, or NewIrregular for
//     indirection-array accesses — and Run; Assign is the one-shot
//     shorthand for build and Run once.
//
// # Quick start
//
//	prog, _ := hpf.NewProgram("demo", 16)
//	_ = prog.Exec(`
//	    PROCESSORS P(16)
//	    REAL A(1:256,1:256), B(1:256,1:256)
//	    !HPF$ DISTRIBUTE (BLOCK,:) :: A, B
//	`)
//	a, _ := prog.NewArray("A")
//	b, _ := prog.NewArray("B")
//	...
//
// See the examples/ directory for complete programs.
package hpf

import (
	"fmt"

	"hpfnt/internal/align"
	"hpfnt/internal/core"
	"hpfnt/internal/directive"
	"hpfnt/internal/dist"
	"hpfnt/internal/engine"
	"hpfnt/internal/index"
	"hpfnt/internal/inquiry"
	"hpfnt/internal/inspector"
	"hpfnt/internal/machine"
	"hpfnt/internal/proc"
	"hpfnt/internal/runtime"
	"hpfnt/internal/template"
)

// Re-exported model types, so client code needs only this package.
type (
	// Domain is an n-dimensional index domain (§2.1).
	Domain = index.Domain
	// Triplet is a Fortran 90 subscript triplet L:U:S.
	Triplet = index.Triplet
	// Tuple is a single index.
	Tuple = index.Tuple
	// Access is how a statement term reads its source (§5.1's form).
	Access = index.Access
	// Format is a per-dimension distribution format (§4.1).
	Format = dist.Format
	// Target is a distribution target: a processor arrangement or a
	// section of one (§4).
	Target = proc.Target
	// Mapping is the element-based view of a data mapping.
	Mapping = core.ElementMapping
	// Report carries a simulated machine's counters and derived
	// metrics.
	Report = machine.Report
	// CostModel weights the machine's synthetic time estimate.
	CostModel = machine.CostModel
	// AlignSpec is a parsed ALIGN directive.
	AlignSpec = align.Spec
	// MappingInfo is an inquiry result (§8.2's inquiry functions).
	MappingInfo = inquiry.Info
	// DummyMode selects how a dummy argument's distribution is
	// specified (§7).
	DummyMode = core.DummyMode
	// DummySpec describes one dummy argument.
	DummySpec = core.DummySpec
	// Actual designates an actual argument (whole array or section).
	Actual = core.Actual
	// Frame is an active procedure call.
	Frame = core.Frame
)

// The distribution formats of §4.1.
var (
	// BLOCK is the HPF block format: q = ceil(N/NP) per block.
	BLOCK Format = dist.Block{}
	// BLOCKVienna is the Vienna Fortran balanced block variant
	// assumed in the footnote of §8.1.1.
	BLOCKVienna Format = dist.BlockVienna{}
	// COLON is the ":" format: the dimension is not distributed.
	COLON Format = dist.Collapsed{}
	// CYCLIC is CYCLIC(1).
	CYCLIC Format = dist.NewCyclic(1)
)

// CYCLICK returns the block-cyclic format CYCLIC(k).
func CYCLICK(k int) Format { return dist.NewCyclic(k) }

// GENERALBLOCK returns GENERAL_BLOCK with the given block upper
// bounds (§4.1.2).
func GENERALBLOCK(bounds ...int) Format { return dist.GeneralBlock{Bounds: bounds} }

// The §7 dummy argument modes.
const (
	Explicit     = core.DummyExplicit
	Inherit      = core.DummyInherit
	InheritMatch = core.DummyInheritMatch
	Implicit     = core.DummyImplicit
)

// DefaultCost returns the machine's default cost model (early-90s
// message-passing weights), for use with NewProgramCost and
// NewProgramEngine.
func DefaultCost() CostModel { return machine.DefaultCost() }

// TupleOf builds an index tuple.
func TupleOf(vals ...int) Tuple { return Tuple(vals) }

// Dim builds the standard (stride-1) triplet lo:hi.
func Dim(lo, hi int) Triplet { return index.Unit(lo, hi) }

// Span builds the triplet lo:hi:stride.
func Span(lo, hi, stride int) (Triplet, error) { return index.NewTriplet(lo, hi, stride) }

// Shape builds a standard domain from lo/hi pairs:
// Shape(0, n, 1, n) is [0:n, 1:n].
func Shape(bounds ...int) Domain { return index.Standard(bounds...) }

// Program is a complete template-free HPF program: a processor
// system, a main program unit with its alignment forest, a directive
// interpreter, and an execution backend (the spmd engine's sequential
// or parallel dispatcher — see SetDefaultEngine and NewProgramEngine).
type Program struct {
	// Unit is the main program unit.
	Unit *core.Unit
	// Machine is the backend's counter machine (the simulated
	// distributed-memory machine on the sim backend, the aggregated
	// per-worker counters on spmd).
	Machine *machine.Machine
	// Interp executes directive-language source against Unit.
	Interp *directive.Interp

	eng engine.Engine
	sys *proc.System
}

// SetDefaultEngine selects the execution backend ("sim" or "spmd")
// for subsequently created programs and workload sweeps. The initial
// default comes from the HPFNT_ENGINE environment variable (falling
// back to "sim").
func SetDefaultEngine(kind string) error { return engine.SetDefault(kind) }

// DefaultEngine reports the current default execution backend.
func DefaultEngine() string { return engine.Default }

// SetDefaultTransport selects the spmd backend's message transport
// ("inproc", "shm" or "tcp") for subsequently created programs and
// workload sweeps. The initial default comes from the HPFNT_TRANSPORT
// environment variable (falling back to "inproc"). The sim backend
// performs no communication and ignores the transport.
func SetDefaultTransport(kind string) error { return engine.SetDefaultTransport(kind) }

// DefaultTransport reports the current default spmd transport.
func DefaultTransport() string { return engine.DefaultTransport }

// NewProgram creates a program over np abstract processors with the
// default cost model, on the default execution backend.
func NewProgram(name string, np int) (*Program, error) {
	return NewProgramCost(name, np, machine.DefaultCost())
}

// NewProgramCost creates a program with an explicit machine cost
// model, on the default execution backend.
func NewProgramCost(name string, np int, cost machine.CostModel) (*Program, error) {
	return NewProgramEngine(name, engine.Default, np, cost)
}

// NewProgramEngine creates a program on an explicit execution
// backend ("sim" or "spmd"), on the default transport.
func NewProgramEngine(name, kind string, np int, cost machine.CostModel) (*Program, error) {
	return NewProgramTransport(name, kind, engine.DefaultTransport, np, cost)
}

// NewProgramTransport creates a program on an explicit execution
// backend and spmd message transport ("inproc", "shm" or "tcp"): the
// programmatic form of the HPFNT_ENGINE / HPFNT_TRANSPORT selection.
func NewProgramTransport(name, kind, transportKind string, np int, cost machine.CostModel) (*Program, error) {
	sys, err := proc.NewSystem(np)
	if err != nil {
		return nil, err
	}
	eng, err := engine.NewOn(kind, transportKind, np, cost)
	if err != nil {
		return nil, err
	}
	unit := core.NewUnit(name, sys)
	return &Program{
		Unit:    unit,
		Machine: eng.Machine(),
		Interp:  directive.New(unit),
		eng:     eng,
		sys:     sys,
	}, nil
}

// NewProgramOn creates a program over an existing execution engine —
// typically a multi-process spmd engine built with engine.NewSPMDOn
// over a joined transport (cmd/hpfrun's -spawn mode). The program
// takes ownership of the engine: Close closes it.
func NewProgramOn(name string, eng engine.Engine) (*Program, error) {
	sys, err := proc.NewSystem(eng.NP())
	if err != nil {
		return nil, err
	}
	unit := core.NewUnit(name, sys)
	return &Program{
		Unit:    unit,
		Machine: eng.Machine(),
		Interp:  directive.New(unit),
		eng:     eng,
		sys:     sys,
	}, nil
}

// Engines lists the available execution backends.
func Engines() []string { return engine.Kinds() }

// Transports lists the available spmd message transports.
func Transports() []string { return engine.Transports() }

// EngineKind reports the program's execution backend.
func (p *Program) EngineKind() string { return p.eng.Kind() }

// Close releases the backend's resources (the spmd engine's worker
// goroutines). Programs dropped without Close are cleaned up by a
// finalizer; Close is for deterministic shutdown.
func (p *Program) Close() error { return p.eng.Close() }

// EnableTemplates attaches the HPF baseline template model (package
// template), enabling TEMPLATE directives for comparison experiments.
func (p *Program) EnableTemplates() *template.Model {
	tm := template.NewModel(p.sys)
	p.Interp.AttachTemplates(tm)
	return tm
}

// UseViennaBlock makes BLOCK directives use the Vienna Fortran
// balanced-block definition (footnote, §8.1.1).
func (p *Program) UseViennaBlock(on bool) { p.Interp.ViennaBlock = on }

// SetParam supplies an integer parameter / READ input value to the
// directive interpreter.
func (p *Program) SetParam(name string, v int) { p.Interp.SetParam(name, v) }

// SetParamArray supplies a named integer array (e.g. a GENERAL_BLOCK
// bound vector).
func (p *Program) SetParamArray(name string, vals []int) { p.Interp.SetParamArray(name, vals) }

// Exec runs directive-language source (declarations, directives and
// executable statements) against the program.
func (p *Program) Exec(src string) error { return p.Interp.ExecProgram(src) }

// Processors declares a processor array arrangement programmatically.
func (p *Program) Processors(name string, dom Domain) (Target, error) {
	a, err := p.sys.DeclareArray(name, dom)
	if err != nil {
		return Target{}, err
	}
	return proc.Whole(a), nil
}

// TargetOf returns a whole-arrangement target by name.
func (p *Program) TargetOf(name string) (Target, error) {
	a, ok := p.sys.Lookup(name)
	if !ok {
		return Target{}, fmt.Errorf("hpf: unknown processor arrangement %s", name)
	}
	return proc.Whole(a), nil
}

// SectionTarget returns a processor-section target, e.g.
// SectionTarget("Q", Span(1, 8, 2)).
func (p *Program) SectionTarget(name string, sel ...Triplet) (Target, error) {
	a, ok := p.sys.Lookup(name)
	if !ok {
		return Target{}, fmt.Errorf("hpf: unknown processor arrangement %s", name)
	}
	return proc.SectionOf(a, sel...)
}

// Declare declares a static array programmatically.
func (p *Program) Declare(name string, dom Domain) error {
	_, err := p.Unit.DeclareArray(name, dom)
	return err
}

// Distribute applies a DISTRIBUTE programmatically.
func (p *Program) Distribute(name string, formats []Format, target Target) error {
	return p.Unit.Distribute(name, formats, target)
}

// Align applies an ALIGN programmatically.
func (p *Program) Align(spec AlignSpec) error { return p.Unit.Align(spec) }

// MappingOf returns an array's element mapping (through the template
// model for template-aligned arrays when templates are enabled).
func (p *Program) MappingOf(name string) (Mapping, error) { return p.Interp.MappingOf(name) }

// Inquire runs the inquiry functions on an array's mapping (§8.2).
func (p *Program) Inquire(name string) (MappingInfo, error) {
	m, err := p.MappingOf(name)
	if err != nil {
		return MappingInfo{}, err
	}
	return inquiry.Describe(m), nil
}

// NewArray materializes a distributed runtime array for a declared
// array, on the program's execution backend.
func (p *Program) NewArray(name string) (*DistArray, error) {
	m, err := p.MappingOf(name)
	if err != nil {
		return nil, err
	}
	a, err := p.eng.NewArray(name, m)
	if err != nil {
		return nil, err
	}
	return &DistArray{arr: a, prog: p}, nil
}

// Call enters a procedure (§7).
func (p *Program) Call(procName string, dummies []DummySpec, actuals []Actual) (*Frame, error) {
	return p.Unit.Call(procName, dummies, actuals)
}

// Stats snapshots the machine counters.
func (p *Program) Stats() Report { return p.eng.Stats() }

// ResetStats clears the machine counters.
func (p *Program) ResetStats() { p.eng.Reset() }

// DistArray is a distributed array bound to its program's execution
// backend.
type DistArray struct {
	arr  engine.Array
	prog *Program
}

// Name returns the array's name.
func (a *DistArray) Name() string { return a.arr.Name() }

// EngineArray returns the backend array, the unit an engine
// checkpoints and restores.
func (a *DistArray) EngineArray() engine.Array { return a.arr }

// Fill initializes every element from fn. fn must be pure: the spmd
// backend evaluates it concurrently, once per replica. The tuple is
// reused from call to call: fn must not modify it, and must clone it to
// retain it.
func (a *DistArray) Fill(fn func(Tuple) float64) { a.arr.Fill(fn) }

// At reads the element at tuple t.
func (a *DistArray) At(t Tuple) float64 { return a.arr.At(t) }

// Set writes the element at tuple t.
func (a *DistArray) Set(t Tuple, v float64) { a.arr.Set(t, v) }

// Data exposes the dense column-major global values, for
// verification.
func (a *DistArray) Data() []float64 { return a.arr.Data() }

// Mapping returns the array's element mapping.
func (a *DistArray) Mapping() Mapping { return a.arr.Mapping() }

// Replicated reports whether any element has more than one owner.
func (a *DistArray) Replicated() bool { return a.arr.Replicated() }

// Assign executes lhs(t) = Σ terms over region once under the
// owner-computes rule, charging the program's machine: NewSchedule,
// then one Run.
func (a *DistArray) Assign(region Domain, terms ...AssignTerm) error {
	s, err := a.NewSchedule(region, terms...)
	if err != nil {
		return err
	}
	return s.Run()
}

// terms converts facade terms to backend terms.
func (p *Program) terms(terms []AssignTerm) []engine.Term {
	rts := make([]engine.Term, len(terms))
	for i, t := range terms {
		rts[i] = engine.Term{Src: t.Src.arr, Coeff: t.Coeff, Access: t.Access}
	}
	return rts
}

// Remap moves the array to the mapping currently recorded for it in
// the program (after a REDISTRIBUTE/REALIGN directive), returning the
// number of elements moved.
func (a *DistArray) Remap() (int, error) {
	m, err := a.prog.MappingOf(a.Name())
	if err != nil {
		return 0, err
	}
	return a.arr.Remap(m)
}

// RemapTo moves the array to an explicit mapping.
func (a *DistArray) RemapTo(m Mapping) (int, error) {
	return a.arr.Remap(m)
}

// Shape returns the array's index domain.
func (a *DistArray) Shape() Domain { return a.arr.Domain() }

// AssignTerm is one right-hand-side reference of a statement,
// Coeff·Src(Access(t)): a shift, a permutation or a rank-reducing read
// such as the A(i) in E(i,j) = D(i,j) + A(i), Access{{Dim: 0}}.
type AssignTerm struct {
	Src    *DistArray
	Coeff  float64
	Access Access
}

// Read builds a term Coeff·Src(t+shift).
func Read(src *DistArray, coeff float64, shift ...int) AssignTerm {
	return AssignTerm{Src: src, Coeff: coeff, Access: index.Shift(shift...)}
}

// ReduceOp selects a reduction operator for DistArray.Reduce.
type ReduceOp = runtime.ReduceOp

// The reduction operators.
const (
	Sum = runtime.ReduceSum
	Max = runtime.ReduceMax
	Min = runtime.ReduceMin
)

// Reduce computes a global reduction of the array, charging the
// standard tree-combine communication to the program's machine.
func (a *DistArray) Reduce(op ReduceOp) (float64, error) {
	return a.arr.Reduce(op)
}

// Schedule is a reusable communication schedule for an iterated
// stencil statement (overlap / ghost-region exchange). Build it once
// with NewSchedule, then Run it each iteration.
type Schedule struct {
	s engine.Schedule
}

// NewSchedule precomputes the communication schedule of
// lhs(region) = Σ terms. Rebuild after any remapping of the involved
// arrays.
func (a *DistArray) NewSchedule(region Domain, terms ...AssignTerm) (*Schedule, error) {
	s, err := a.arr.NewSchedule(region, a.prog.terms(terms))
	if err != nil {
		return nil, err
	}
	return &Schedule{s: s}, nil
}

// Run replays the exchange and computes the statement once.
func (s *Schedule) Run() error { return s.s.Execute() }

// RunN replays the statement iters times (a single engine epoch on
// the spmd backend).
func (s *Schedule) RunN(iters int) error { return s.s.ExecuteN(iters) }

// GhostElements reports the per-iteration overlap traffic.
func (s *Schedule) GhostElements() int { return s.s.GhostElements() }

// Messages reports the aggregated messages per execution.
func (s *Schedule) Messages() int { return s.s.Messages() }

// INDIRECT returns a user-defined (indirect) distribution format from
// a 1-based owner vector (one entry per index). It errors on invalid
// owner entries.
func INDIRECT(owner []int) (Format, error) { return dist.NewIndirect(owner) }

// irregularPattern converts rank-1 global-index access lists to the
// inspector's offset form, validating ranks and index bounds.
func irregularPattern(lhs, src *DistArray, writes, reads []int, coeffs []float64) (inspector.Pattern, error) {
	ldom, sdom := lhs.arr.Domain(), src.arr.Domain()
	if ldom.Rank() != 1 || sdom.Rank() != 1 {
		return inspector.Pattern{}, fmt.Errorf("hpf: irregular schedules take rank-1 arrays (have %s rank %d, %s rank %d)",
			lhs.Name(), ldom.Rank(), src.Name(), sdom.Rank())
	}
	if len(writes) != len(reads) {
		return inspector.Pattern{}, fmt.Errorf("hpf: %d writes vs %d reads", len(writes), len(reads))
	}
	if coeffs != nil && len(coeffs) != len(writes) {
		return inspector.Pattern{}, fmt.Errorf("hpf: %d coefficients for %d accesses", len(coeffs), len(writes))
	}
	lt, st := ldom.Dims[0], sdom.Dims[0]
	pat := inspector.Pattern{
		Writes: make([]int32, len(writes)),
		Reads:  make([]int32, len(reads)),
		Coeffs: coeffs,
	}
	for k, w := range writes {
		if w < lt.Low || w > lt.High {
			return inspector.Pattern{}, fmt.Errorf("hpf: access %d writes %s(%d) outside %s", k, lhs.Name(), w, ldom)
		}
		pat.Writes[k] = int32(w - lt.Low)
	}
	for k, r := range reads {
		if r < st.Low || r > st.High {
			return inspector.Pattern{}, fmt.Errorf("hpf: access %d reads %s(%d) outside %s", k, src.Name(), r, sdom)
		}
		pat.Reads[k] = int32(r - st.Low)
	}
	return pat, nil
}

// NewIrregular compiles the subscripted (indirection-array) statement
//
//	lhs(writes[k]) = Σ_k coeffs[k] · src(reads[k])
//
// into a reusable inspector–executor schedule: the inspector runs
// once — partitioning the accesses by owner, deduplicating remote
// reads, and aggregating the halo exchange into one message per
// processor pair — and every Run/RunN replays the compiled exchange
// with no per-iteration analysis. This is the communication pattern
// of INDIRECT-distributed data and subscripted accesses like
// X(COL(k)), whose communication sets cannot be derived in closed
// form (§9). writes and reads are global indices of the rank-1 lhs
// and src arrays; a nil coeffs means all 1. Elements of lhs never
// written keep their values; elements written more than once receive
// the sum of their accesses. Rebuild after any remapping of either
// array; replicated arrays are refused.
func (a *DistArray) NewIrregular(src *DistArray, writes, reads []int, coeffs []float64) (*Schedule, error) {
	pat, err := irregularPattern(a, src, writes, reads, coeffs)
	if err != nil {
		return nil, err
	}
	s, err := a.arr.NewIrregular(src.arr, pat)
	if err != nil {
		return nil, err
	}
	return &Schedule{s: s}, nil
}
