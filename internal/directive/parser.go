package directive

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"hpfnt/internal/align"
	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/expr"
	"hpfnt/internal/index"
	"hpfnt/internal/proc"
	"hpfnt/internal/template"
)

// Interp parses and executes directive-language programs against a
// core.Unit (the paper's model) and, when attached, a template.Model
// (the HPF baseline) for TEMPLATE directives and alignments whose
// base is a template.
type Interp struct {
	// Unit receives declarations and mapping directives.
	Unit *core.Unit
	// Templates, when non-nil, enables the TEMPLATE directive and
	// template-based alignment of the baseline model.
	Templates *template.Model
	// Params supplies the values of named integer parameters and of
	// the variables named in READ statements.
	Params map[string]int
	// ParamArrays supplies named integer arrays, usable as
	// GENERAL_BLOCK arguments.
	ParamArrays map[string][]int
	// ViennaBlock selects the Vienna Fortran BLOCK definition instead
	// of the HPF one (the footnote of §8.1.1).
	ViennaBlock bool

	available       map[string]bool // parameters made available (PARAMETER or READ)
	templateAligned map[string]bool // arrays aligned to a template (baseline model)
}

// New creates an interpreter over a unit.
func New(unit *core.Unit) *Interp {
	return &Interp{
		Unit:            unit,
		Params:          map[string]int{},
		ParamArrays:     map[string][]int{},
		available:       map[string]bool{},
		templateAligned: map[string]bool{},
	}
}

// SetParam defines an integer parameter usable in expressions.
func (ip *Interp) SetParam(name string, v int) {
	name = strings.ToUpper(name)
	ip.Params[name] = v
	ip.available[name] = true
}

// SetParamArray defines a named integer array.
func (ip *Interp) SetParamArray(name string, vals []int) {
	name = strings.ToUpper(name)
	ip.ParamArrays[name] = append([]int(nil), vals...)
	ip.available[name] = true
}

// AttachTemplates enables the baseline template model.
func (ip *Interp) AttachTemplates(m *template.Model) { ip.Templates = m }

// MappingOf resolves the element mapping of an array, routing through
// the template model when the array is template-aligned.
func (ip *Interp) MappingOf(name string) (core.ElementMapping, error) {
	name = strings.ToUpper(name)
	if ip.templateAligned[name] {
		return template.Mapping{M: ip.Templates, Name: name}, nil
	}
	return ip.Unit.MappingOf(name)
}

// ExecProgram executes a multi-line program, reporting errors with
// 1-based line numbers.
func (ip *Interp) ExecProgram(src string) error {
	for ln, line := range strings.Split(src, "\n") {
		if err := ip.ExecLine(line); err != nil {
			return fmt.Errorf("line %d: %w", ln+1, err)
		}
	}
	return nil
}

// ExecLine executes one line (statement or directive); comment and
// blank lines are ignored.
func (ip *Interp) ExecLine(line string) error {
	body, ok := stripLine(line)
	if !ok {
		return nil
	}
	toks, err := lexLine(body)
	if err != nil {
		return err
	}
	p := &parser{toks: toks, ip: ip}
	return p.statement()
}

// parser consumes one statement's tokens, or one expression's in
// ParseExpr.
type parser struct {
	toks  []Token
	i     int
	ip    *Interp // nil in ParseExpr
	sc    Scope   // what the expression being parsed may name
	depth int     // parenthesis nesting of that expression
}

func (p *parser) peek() Token { return p.toks[p.i] }
func (p *parser) next() Token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) at(k TokKind) bool {
	return p.toks[p.i].Kind == k
}

func (p *parser) accept(k TokKind) bool {
	if p.at(k) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(k TokKind) (Token, error) {
	t, err := p.want(k)
	if err != nil {
		err = fmt.Errorf("directive: %w", err)
	}
	return t, err
}

// want is expect without the error prefix, for the expression grammar.
func (p *parser) want(k TokKind) (Token, error) {
	if !p.at(k) {
		return Token{}, fmt.Errorf("expected %s, found %s %q (column %d)", k, p.peek().Kind, p.peek().Text, p.peek().Pos+1)
	}
	return p.next(), nil
}

func (p *parser) expectIdent(word string) error {
	t, err := p.expect(TokIdent)
	if err != nil {
		return err
	}
	if t.Text != word {
		return fmt.Errorf("directive: expected %s, found %q", word, t.Text)
	}
	return nil
}

func (p *parser) atEnd() bool { return p.at(TokEOF) }

func (p *parser) requireEnd() error {
	if !p.atEnd() {
		return fmt.Errorf("directive: unexpected trailing %s %q (column %d)", p.peek().Kind, p.peek().Text, p.peek().Pos+1)
	}
	return nil
}

// statement dispatches on the leading keyword.
func (p *parser) statement() error {
	t, err := p.expect(TokIdent)
	if err != nil {
		return err
	}
	switch t.Text {
	case "PARAMETER":
		return p.parameterStmt()
	case "PROCESSORS":
		return p.processorsStmt()
	case "REAL", "INTEGER", "LOGICAL", "DOUBLE":
		return p.declStmt()
	case "DYNAMIC":
		return p.dynamicStmt()
	case "DISTRIBUTE":
		return p.distributeStmt(false)
	case "REDISTRIBUTE":
		return p.distributeStmt(true)
	case "ALIGN":
		return p.alignStmt(false)
	case "REALIGN":
		return p.alignStmt(true)
	case "TEMPLATE":
		return p.templateStmt()
	case "ALLOCATE":
		return p.allocateStmt()
	case "DEALLOCATE":
		return p.deallocateStmt()
	case "READ":
		return p.readStmt()
	default:
		return fmt.Errorf("directive: unknown statement %q (column %d)", t.Text, t.Pos+1)
	}
}

// parameterStmt handles "PARAMETER N = 64", "PARAMETER(N=64)" and
// array forms "PARAMETER S = (/4,10,16/)".
func (p *parser) parameterStmt() error {
	paren := p.accept(TokLParen)
	for {
		nameTok, err := p.expect(TokIdent)
		if err != nil {
			return err
		}
		if _, err := p.expect(TokAssign); err != nil {
			return err
		}
		if p.at(TokSlashParen) {
			vals, err := p.arrayConstructor()
			if err != nil {
				return err
			}
			p.ip.SetParamArray(nameTok.Text, vals)
		} else {
			v, err := p.constExpr()
			if err != nil {
				return err
			}
			p.ip.SetParam(nameTok.Text, v)
		}
		if !p.accept(TokComma) {
			break
		}
	}
	if paren {
		if _, err := p.expect(TokRParen); err != nil {
			return err
		}
	}
	return p.requireEnd()
}

func (p *parser) arrayConstructor() ([]int, error) {
	if _, err := p.expect(TokSlashParen); err != nil {
		return nil, err
	}
	var vals []int
	for {
		v, err := p.constExpr()
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokParenSlash); err != nil {
		return nil, err
	}
	return vals, nil
}

// processorsStmt handles "PROCESSORS PR(32), Q(1:8,1:4), SCAL".
func (p *parser) processorsStmt() error {
	for {
		nameTok, err := p.expect(TokIdent)
		if err != nil {
			return err
		}
		if p.at(TokLParen) {
			dom, err := p.boundsList()
			if err != nil {
				return err
			}
			if _, err := p.ip.Unit.Sys.DeclareArray(nameTok.Text, dom); err != nil {
				return err
			}
		} else {
			if _, err := p.ip.Unit.Sys.DeclareScalar(nameTok.Text, proc.ScalarControl); err != nil {
				return err
			}
		}
		if !p.accept(TokComma) {
			break
		}
	}
	return p.requireEnd()
}

// Declared domains are bounded at parse time so that hostile bound
// expressions become positioned errors here instead of silent integer
// overflow inside Domain.Size (whose product is what every layer
// above sizes its tables by) or memory exhaustion at materialization.
const (
	// maxDeclaredBound bounds the magnitude of any declared lower or
	// upper bound.
	maxDeclaredBound = 1 << 40
	// maxDeclaredElems bounds the total element count of one declared
	// domain (array, template or processor arrangement).
	maxDeclaredElems = 1 << 44
)

// boundsList parses "(b1, b2, ...)" where each bound is "u" (meaning
// 1:u) or "l:u", rejecting domains whose bounds or total size exceed
// the declaration limits.
func (p *parser) boundsList() (index.Domain, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return index.Domain{}, err
	}
	var dims []index.Triplet
	elems := int64(1)
	for {
		pos := p.peek().Pos
		lo, err := p.constExpr()
		if err != nil {
			return index.Domain{}, err
		}
		if p.accept(TokColon) {
			hi, err := p.constExpr()
			if err != nil {
				return index.Domain{}, err
			}
			dims = append(dims, index.Unit(lo, hi))
		} else {
			dims = append(dims, index.Unit(1, lo))
		}
		d := dims[len(dims)-1]
		if d.Low < -maxDeclaredBound || d.Low > maxDeclaredBound || d.High < -maxDeclaredBound || d.High > maxDeclaredBound {
			return index.Domain{}, fmt.Errorf("directive: declared bound exceeds %d in magnitude (column %d)", int64(maxDeclaredBound), pos+1)
		}
		if cnt := int64(d.High) - int64(d.Low) + 1; cnt > 0 {
			elems *= cnt
			if elems > maxDeclaredElems {
				return index.Domain{}, fmt.Errorf("directive: declared domain exceeds %d elements (column %d)", int64(maxDeclaredElems), pos+1)
			}
		}
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return index.Domain{}, err
	}
	return index.New(dims...), nil
}

// declStmt handles "REAL A(0:N,1:N), B(5)" and
// "REAL, ALLOCATABLE(:,:) :: A, B".
func (p *parser) declStmt() error {
	allocRank := 0
	allocatable := false
	if p.accept(TokComma) {
		if err := p.expectIdent("ALLOCATABLE"); err != nil {
			return err
		}
		allocatable = true
		if _, err := p.expect(TokLParen); err != nil {
			return err
		}
		for {
			if _, err := p.expect(TokColon); err != nil {
				return err
			}
			allocRank++
			if !p.accept(TokComma) {
				break
			}
		}
		if _, err := p.expect(TokRParen); err != nil {
			return err
		}
	}
	p.accept(TokDoubleColon)
	for {
		nameTok, err := p.expect(TokIdent)
		if err != nil {
			return err
		}
		if allocatable {
			if _, err := p.ip.Unit.DeclareAllocatable(nameTok.Text, allocRank); err != nil {
				return err
			}
			if p.ip.Templates != nil {
				// The baseline model has no allocatable support; the
				// array is registered there only if later created.
				_ = nameTok
			}
		} else {
			if !p.at(TokLParen) {
				return fmt.Errorf("directive: array %s requires bounds (scalars are not declared)", nameTok.Text)
			}
			dom, err := p.boundsList()
			if err != nil {
				return err
			}
			if _, err := p.ip.Unit.DeclareArray(nameTok.Text, dom); err != nil {
				return err
			}
			if p.ip.Templates != nil {
				if err := p.ip.Templates.DeclareArray(nameTok.Text, dom); err != nil {
					return err
				}
			}
		}
		if !p.accept(TokComma) {
			break
		}
	}
	return p.requireEnd()
}

func (p *parser) dynamicStmt() error {
	p.accept(TokDoubleColon)
	for {
		nameTok, err := p.expect(TokIdent)
		if err != nil {
			return err
		}
		if err := p.ip.Unit.SetDynamic(nameTok.Text); err != nil {
			return err
		}
		if !p.accept(TokComma) {
			break
		}
	}
	return p.requireEnd()
}

// distributeStmt handles both directive forms:
//
//	DISTRIBUTE A(BLOCK,:) TO P
//	DISTRIBUTE (BLOCK,:) TO P :: A, B
//
// and their REDISTRIBUTE counterparts.
func (p *parser) distributeStmt(redistribute bool) error {
	if p.at(TokLParen) {
		// Attributed form: formats first, distributees after "::".
		formats, err := p.formatList()
		if err != nil {
			return err
		}
		target, err := p.optionalTarget()
		if err != nil {
			return err
		}
		if _, err := p.expect(TokDoubleColon); err != nil {
			return err
		}
		for {
			nameTok, err := p.expect(TokIdent)
			if err != nil {
				return err
			}
			if err := p.applyDistribute(nameTok.Text, formats, target, redistribute); err != nil {
				return err
			}
			if !p.accept(TokComma) {
				break
			}
		}
		return p.requireEnd()
	}
	nameTok, err := p.expect(TokIdent)
	if err != nil {
		return err
	}
	formats, err := p.formatList()
	if err != nil {
		return err
	}
	target, err := p.optionalTarget()
	if err != nil {
		return err
	}
	if err := p.applyDistribute(nameTok.Text, formats, target, redistribute); err != nil {
		return err
	}
	return p.requireEnd()
}

func (p *parser) applyDistribute(name string, formats []dist.Format, target proc.Target, redistribute bool) error {
	if p.ip.Templates != nil && p.ip.Templates.HasTemplate(name) {
		if redistribute {
			return fmt.Errorf("directive: templates cannot be redistributed in this front end")
		}
		return p.ip.Templates.DistributeTemplate(name, formats, target)
	}
	if redistribute {
		return p.ip.Unit.Redistribute(name, formats, target)
	}
	return p.ip.Unit.Distribute(name, formats, target)
}

// formatList parses "(fmt, fmt, ...)".
func (p *parser) formatList() ([]dist.Format, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	var formats []dist.Format
	for {
		f, err := p.format()
		if err != nil {
			return nil, err
		}
		formats = append(formats, f)
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return formats, nil
}

func (p *parser) format() (dist.Format, error) {
	if p.accept(TokColon) {
		return dist.Collapsed{}, nil
	}
	t, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	switch t.Text {
	case "BLOCK":
		if p.ip.ViennaBlock {
			return dist.BlockVienna{}, nil
		}
		return dist.Block{}, nil
	case "CYCLIC":
		if p.accept(TokLParen) {
			k, err := p.constExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			if k < 1 {
				return nil, fmt.Errorf("directive: CYCLIC argument must be positive, got %d", k)
			}
			return dist.NewCyclic(k), nil
		}
		return dist.NewCyclic(1), nil
	case "GENERAL_BLOCK":
		bounds, err := p.intVectorArg("GENERAL_BLOCK")
		if err != nil {
			return nil, err
		}
		return dist.GeneralBlock{Bounds: bounds}, nil
	case "INDIRECT":
		// Extension: user-defined (indirect) distributions, the
		// generality the paper's introduction (point 3) provides for.
		owner, err := p.intVectorArg("INDIRECT")
		if err != nil {
			return nil, err
		}
		return dist.NewIndirect(owner)
	default:
		return nil, fmt.Errorf("directive: unknown distribution format %q", t.Text)
	}
}

// intVectorArg parses "(name)" or "((/v1,v2,.../))" as an integer
// vector argument of a distribution format.
func (p *parser) intVectorArg(what string) ([]int, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	var vals []int
	if p.at(TokSlashParen) {
		var err error
		vals, err = p.arrayConstructor()
		if err != nil {
			return nil, err
		}
	} else {
		nameTok, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		arr, ok := p.ip.ParamArrays[nameTok.Text]
		if !ok {
			return nil, fmt.Errorf("directive: %s argument %s is not a known integer array", what, nameTok.Text)
		}
		vals = arr
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return vals, nil
}

// optionalTarget parses "[TO name[(sections)]]".
func (p *parser) optionalTarget() (proc.Target, error) {
	if !p.at(TokIdent) || p.peek().Text != "TO" {
		return proc.Target{}, nil
	}
	p.next()
	nameTok, err := p.expect(TokIdent)
	if err != nil {
		return proc.Target{}, err
	}
	arr, ok := p.ip.Unit.Sys.Lookup(nameTok.Text)
	if !ok {
		return proc.Target{}, fmt.Errorf("directive: unknown processor arrangement %s", nameTok.Text)
	}
	if !p.at(TokLParen) {
		return proc.Whole(arr), nil
	}
	p.next()
	var sel []index.Triplet
	var drop []bool
	dim := 0
	for {
		tr, scalar, err := p.sectionTriplet(arr.Dom, dim)
		if err != nil {
			return proc.Target{}, err
		}
		sel = append(sel, tr)
		drop = append(drop, scalar)
		dim++
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return proc.Target{}, err
	}
	anyDrop := false
	for _, d := range drop {
		anyDrop = anyDrop || d
	}
	if !anyDrop {
		drop = nil
	}
	return proc.SectionDropping(arr, sel, drop)
}

// sectionTriplet parses one section subscript: ":", "l:u[:s]" with
// optional parts defaulting to the dimension's bounds (including the
// "l::s" and "::s" forms, where "::" lexes as one Token), or a scalar
// subscript "v". The second result reports the scalar case, which
// reduces the target's rank.
func (p *parser) sectionTriplet(dom index.Domain, dim int) (index.Triplet, bool, error) {
	if dim >= dom.Rank() {
		return index.Triplet{}, false, fmt.Errorf("directive: too many section subscripts (rank %d)", dom.Rank())
	}
	def := dom.Dims[dim]
	lo, hi, st := def.Low, def.Last(), 1
	hasLo := false
	if !p.at(TokColon) && !p.at(TokDoubleColon) {
		v, err := p.constExpr()
		if err != nil {
			return index.Triplet{}, false, err
		}
		lo = v
		hasLo = true
	}
	if p.accept(TokDoubleColon) {
		// "l::s" / "::s": upper bound defaults, stride explicit.
		v, err := p.constExpr()
		if err != nil {
			return index.Triplet{}, false, err
		}
		tr, err := index.NewTriplet(lo, hi, v)
		return tr, false, err
	}
	if !p.accept(TokColon) {
		if !hasLo {
			return index.Triplet{}, false, fmt.Errorf("directive: empty section subscript")
		}
		return index.Unit(lo, lo), true, nil // scalar subscript
	}
	if !p.at(TokColon) && !p.at(TokComma) && !p.at(TokRParen) && !p.at(TokEOF) {
		v, err := p.constExpr()
		if err != nil {
			return index.Triplet{}, false, err
		}
		hi = v
	}
	if p.accept(TokColon) {
		v, err := p.constExpr()
		if err != nil {
			return index.Triplet{}, false, err
		}
		st = v
	}
	tr, err := index.NewTriplet(lo, hi, st)
	return tr, false, err
}

// alignStmt handles "ALIGN A(axes) WITH B(subs)" and REALIGN.
func (p *parser) alignStmt(realign bool) error {
	aligneeTok, err := p.expect(TokIdent)
	if err != nil {
		return err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return err
	}
	var axes []align.Axis
	var dummies []string
	for {
		switch {
		case p.accept(TokColon):
			axes = append(axes, align.Colon())
		case p.accept(TokStar):
			axes = append(axes, align.Star())
		default:
			t, err := p.expect(TokIdent)
			if err != nil {
				return fmt.Errorf("directive: alignee axis must be ':', '*' or an align-dummy: %w", err)
			}
			axes = append(axes, align.DummyAxis(t.Text))
			dummies = append(dummies, t.Text)
		}
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return err
	}
	if err := p.expectIdent("WITH"); err != nil {
		return err
	}
	baseTok, err := p.expect(TokIdent)
	if err != nil {
		return err
	}
	baseDom, isTemplate, err := p.baseDomain(baseTok.Text)
	if err != nil {
		return err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return err
	}
	var subs []align.Subscript
	dim := 0
	for {
		s, err := p.alignSubscript(dummies, baseDom, dim)
		if err != nil {
			return err
		}
		subs = append(subs, s)
		dim++
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return err
	}
	if err := p.requireEnd(); err != nil {
		return err
	}
	spec := align.Spec{Alignee: aligneeTok.Text, Axes: axes, Base: baseTok.Text, Subs: subs}
	if isTemplate {
		if realign {
			return fmt.Errorf("directive: REALIGN with a template base is not supported by the baseline front end")
		}
		if err := p.ip.Templates.AlignWithTemplate(spec); err != nil {
			return err
		}
		p.ip.templateAligned[aligneeTok.Text] = true
		return nil
	}
	if realign {
		return p.ip.Unit.Realign(spec)
	}
	return p.ip.Unit.Align(spec)
}

// baseDomain resolves the index domain of an alignment base, which
// may be an array or (baseline model only) a template.
func (p *parser) baseDomain(name string) (index.Domain, bool, error) {
	if a, ok := p.ip.Unit.Array(name); ok {
		if !a.Created {
			// Deferred alignment to an allocatable: unknown extents;
			// triplet defaults are unavailable, but plain expressions
			// still parse. Use a placeholder domain of the right
			// rank.
			dims := make([]index.Triplet, a.Rank)
			for i := range dims {
				dims[i] = index.Unit(1, 1)
			}
			return index.New(dims...), false, nil
		}
		return a.Dom, false, nil
	}
	if p.ip.Templates != nil && p.ip.Templates.HasTemplate(name) {
		dom, err := p.ip.Templates.TemplateDomain(name)
		if err != nil {
			return index.Domain{}, false, err
		}
		return dom, true, nil
	}
	return index.Domain{}, false, fmt.Errorf("directive: unknown alignment base %s", name)
}

// alignSubscript parses one base subscript: "*", a triplet (detected
// by a top-level ":"), or an expression possibly containing one
// align-dummy.
func (p *parser) alignSubscript(dummies []string, baseDom index.Domain, dim int) (align.Subscript, error) {
	if p.accept(TokStar) {
		return align.StarSub(), nil
	}
	if p.tripletAhead() {
		if dim >= baseDom.Rank() {
			return align.Subscript{}, fmt.Errorf("directive: too many base subscripts (rank %d)", baseDom.Rank())
		}
		tr, _, err := p.sectionTriplet(baseDom, dim)
		if err != nil {
			return align.Subscript{}, err
		}
		return align.TripletSub(tr), nil
	}
	t, err := p.intExpr(dummies)
	if err != nil {
		return align.Subscript{}, err
	}
	return align.ExprSub(t.node()), nil
}

// tripletAhead reports whether a top-level ":" occurs before the next
// top-level "," or ")" — distinguishing triplets from expressions.
func (p *parser) tripletAhead() bool {
	depth := 0
	for k := p.i; k < len(p.toks); k++ {
		switch p.toks[k].Kind {
		case TokLParen, TokSlashParen:
			depth++
		case TokRParen, TokParenSlash:
			if depth == 0 {
				return false
			}
			depth--
		case TokComma:
			if depth == 0 {
				return false
			}
		case TokColon, TokDoubleColon:
			if depth == 0 {
				return true
			}
		case TokEOF:
			return false
		}
	}
	return false
}

// constExpr parses and evaluates a constant integer expression using
// the interpreter's parameters.
func (p *parser) constExpr() (int, error) {
	t, err := p.intExpr(nil)
	if err != nil || t.tree == nil {
		return t.c, err
	}
	v, err := expr.Constant(t.tree)
	if err != nil {
		return 0, fmt.Errorf("directive: expression is not constant: %w", err)
	}
	return v, nil
}

// intExpr parses an integer expression of the directive language, in
// which slots name the align-dummies and parameters fold to constants.
func (p *parser) intExpr(slots []string) (term, error) {
	p.sc = Scope{Slots: slots, Const: p.ip.param}
	t, err := p.addExpr()
	if err != nil {
		return t, fmt.Errorf("directive: %w", err)
	}
	return t, nil
}

// param resolves a parameter made available by PARAMETER, READ or
// SetParam.
func (ip *Interp) param(name string) (int, bool) {
	v, ok := ip.Params[name]
	return v, ok && ip.available[name]
}

// MaxExprDepth bounds parenthesis nesting in an integer expression,
// turning pathological inputs into errors instead of deep recursion.
const MaxExprDepth = 64

// Scope is what an integer expression may name. It lets the one
// expression grammar serve both front ends: the directive language
// (alignment functions, specification expressions) and the executable
// statements of package interp.
type Scope struct {
	// Slots names the identifiers that become expr.Dummy nodes: the
	// align-dummies of an ALIGN, or the index variables of a FORALL.
	Slots []string
	// Const resolves every other identifier to a constant: parameters,
	// and in executable statements DO variables.
	Const func(name string) (int, bool)
	// Exec selects the executable-statement language: the MOD
	// intrinsic and "/" evaluated at run time, where directives have
	// LBOUND, UBOUND and SIZE and "/" only between constants.
	Exec bool
}

// ParseExpr parses one integer expression from toks, starting at index
// at, compiles it with sc.Slots as the tuple's slots and no bounds
// resolver, and returns it with the index of the token after it. Its
// errors carry no prefix: each front end adds its own.
func ParseExpr(toks []Token, at int, sc Scope) (expr.Compiled, int, error) {
	p := &parser{toks: toks, i: at, sc: sc}
	t, err := p.addExpr()
	if err != nil || t.tree == nil {
		return expr.Compiled{C: t.c}, p.i, err
	}
	c, err := expr.Compile(t.tree, sc.Slots, nil)
	return c, p.i, err
}

// A term is a parsed subexpression: a tree, or (tree == nil) the
// constant c. Constants stay unboxed until a tree needs them, so
// folding them allocates nothing, and a statement allocates the same
// whatever its parameters' values (boxing an int allocates only
// outside 0..255).
type term struct {
	tree expr.Expr
	c    int
}

func (t term) node() expr.Expr {
	if t.tree == nil {
		return expr.Const(t.c)
	}
	return t.tree
}

// fold collapses a tree that names no dummy and no array bound to a
// constant, unless evaluating it fails.
func fold(e expr.Expr) term {
	if v, err := expr.Constant(e); err == nil {
		return term{c: v}
	}
	return term{tree: e}
}

func (p *parser) addExpr() (term, error) {
	return p.chain(p.mulExpr, TokPlus, TokMinus, expr.OpAdd, expr.OpSub)
}

func (p *parser) mulExpr() (term, error) {
	return p.chain(p.unaryExpr, TokStar, TokSlash, expr.OpMul, expr.OpDiv)
}

// chain parses operand {op operand} for the two operators of one
// precedence level, left-associative.
func (p *parser) chain(operand func() (term, error), k1, k2 TokKind, op1, op2 expr.BinOp) (term, error) {
	x, err := operand()
	for err == nil && (p.at(k1) || p.at(k2)) {
		op := op1
		if p.next().Kind == k2 {
			op = op2
		}
		var y term
		if y, err = operand(); err == nil {
			x, err = p.binary(op, x, y)
		}
	}
	return x, err
}

// binary builds x op y, folding constants. In the directive language a
// division is between constants and fails here on a zero divisor; in
// executable statements that failure is left to evaluation.
func (p *parser) binary(op expr.BinOp, x, y term) (term, error) {
	if op == expr.OpDiv && !p.sc.Exec {
		switch {
		case x.tree != nil || y.tree != nil:
			return term{}, errors.New("division is only permitted in constant expressions (alignment functions use +, -, *)")
		case y.c == 0:
			return term{}, errors.New("division by zero")
		}
	}
	if x.tree == nil && y.tree == nil {
		if v, err := expr.Arith(op, x.c, y.c); err == nil {
			return term{c: v}, nil
		}
	}
	return fold(expr.Bin{Op: op, L: x.node(), R: y.node()}), nil
}

func (p *parser) unaryExpr() (term, error) {
	switch {
	case p.accept(TokMinus):
		t, err := p.unaryExpr()
		if err != nil || t.tree == nil {
			return term{c: -t.c}, err
		}
		return fold(expr.Sub(expr.Const(0), t.tree)), nil
	case p.accept(TokPlus):
		return p.unaryExpr()
	}
	return p.primaryExpr()
}

func (p *parser) primaryExpr() (term, error) {
	t := p.peek()
	switch {
	case p.accept(TokNumber):
		v, err := strconv.Atoi(t.Text)
		if err != nil {
			return term{}, fmt.Errorf("bad number %q (column %d)", t.Text, t.Pos+1)
		}
		return term{c: v}, nil
	case p.accept(TokLParen):
		if p.depth++; p.depth > MaxExprDepth {
			return term{}, fmt.Errorf("expression nested deeper than %d", MaxExprDepth)
		}
		e, err := p.addExpr()
		p.depth--
		if err == nil {
			_, err = p.want(TokRParen)
		}
		return e, err
	case !p.accept(TokIdent):
		return term{}, fmt.Errorf("expected an expression, found %s %q (column %d)", t.Kind, t.Text, t.Pos+1)
	}
	switch {
	case t.Text == "MAX" || t.Text == "MIN" || t.Text == "MOD" && p.sc.Exec:
		return p.intrinsic(t.Text)
	case !p.sc.Exec && (t.Text == "LBOUND" || t.Text == "UBOUND" || t.Text == "SIZE"):
		return p.bound(t.Text)
	case slices.Contains(p.sc.Slots, t.Text):
		return term{tree: expr.Dummy(t.Text)}, nil
	}
	if v, ok := p.sc.Const(t.Text); ok {
		return term{c: v}, nil
	}
	return term{}, fmt.Errorf("unknown identifier %q in expression (column %d)", t.Text, t.Pos+1)
}

// intrinsic parses the argument list of MAX, MIN or MOD.
func (p *parser) intrinsic(name string) (term, error) {
	if _, err := p.want(TokLParen); err != nil {
		return term{}, err
	}
	var args []expr.Expr
	for more := true; more; more = p.accept(TokComma) {
		t, err := p.addExpr()
		if err != nil {
			return term{}, err
		}
		args = append(args, t.node())
	}
	if _, err := p.want(TokRParen); err != nil {
		return term{}, err
	}
	switch {
	case len(args) < 2:
		return term{}, fmt.Errorf("%s requires at least two arguments", name)
	case name != "MOD":
		return term{tree: expr.MinMax{IsMax: name == "MAX", Args: args}}, nil
	case len(args) != 2:
		return term{}, errors.New("MOD takes exactly two arguments")
	}
	return term{tree: expr.Bin{Op: expr.OpMod, L: args[0], R: args[1]}}, nil
}

// bound parses the arguments of LBOUND, UBOUND or SIZE: an array name
// and an optional constant dimension (default 1).
func (p *parser) bound(name string) (term, error) {
	if _, err := p.want(TokLParen); err != nil {
		return term{}, err
	}
	arr, err := p.want(TokIdent)
	if err != nil {
		return term{}, err
	}
	b := expr.Bound{Kind: expr.KindSize, Array: arr.Text, Dim: 1}
	if p.accept(TokComma) {
		d, err := p.addExpr()
		if err == nil && d.tree != nil {
			d.c, err = expr.Constant(d.tree)
		}
		if err != nil {
			return term{}, err
		}
		b.Dim = d.c
	}
	if _, err := p.want(TokRParen); err != nil {
		return term{}, err
	}
	switch name {
	case "LBOUND":
		b.Kind = expr.KindLBound
	case "UBOUND":
		b.Kind = expr.KindUBound
	}
	return term{tree: b}, nil
}

// templateStmt handles "TEMPLATE T(bounds)" (baseline model only).
func (p *parser) templateStmt() error {
	if p.ip.Templates == nil {
		return fmt.Errorf("directive: TEMPLATE is not part of this model (the paper's proposal removes template directives); attach a template.Model to parse HPF baseline programs")
	}
	nameTok, err := p.expect(TokIdent)
	if err != nil {
		return err
	}
	dom, err := p.boundsList()
	if err != nil {
		return err
	}
	if _, err := p.ip.Templates.DeclareTemplate(nameTok.Text, dom); err != nil {
		return err
	}
	return p.requireEnd()
}

// allocateStmt handles "ALLOCATE(A(n,m), B(n))".
func (p *parser) allocateStmt() error {
	if _, err := p.expect(TokLParen); err != nil {
		return err
	}
	for {
		nameTok, err := p.expect(TokIdent)
		if err != nil {
			return err
		}
		dom, err := p.boundsList()
		if err != nil {
			return err
		}
		if err := p.ip.Unit.Allocate(nameTok.Text, dom); err != nil {
			return err
		}
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return err
	}
	return p.requireEnd()
}

func (p *parser) deallocateStmt() error {
	if _, err := p.expect(TokLParen); err != nil {
		return err
	}
	for {
		nameTok, err := p.expect(TokIdent)
		if err != nil {
			return err
		}
		if err := p.ip.Unit.Deallocate(nameTok.Text); err != nil {
			return err
		}
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return err
	}
	return p.requireEnd()
}

// readStmt handles "READ M,N" and "READ 6,M,N" (the unit number is
// ignored); the named variables must have values supplied via
// SetParam, modeling run-time input (§6's example reads M and N).
func (p *parser) readStmt() error {
	if p.at(TokNumber) {
		p.next()
		if !p.accept(TokComma) {
			return fmt.Errorf("directive: READ unit number must be followed by ','")
		}
	}
	for {
		nameTok, err := p.expect(TokIdent)
		if err != nil {
			return err
		}
		if _, ok := p.ip.Params[nameTok.Text]; !ok {
			return fmt.Errorf("directive: READ %s: no input value supplied (use SetParam)", nameTok.Text)
		}
		p.ip.available[nameTok.Text] = true
		if !p.accept(TokComma) {
			break
		}
	}
	return p.requireEnd()
}
