package interp

import (
	"fmt"
	"slices"
	"strconv"

	"hpfnt/internal/directive"
	"hpfnt/internal/index"
)

// The parse layer builds a program AST from source lines: directive
// lines are kept verbatim for package directive's parser, executable
// statements (assignments, FORALL, PRINT) keep their token streams
// for exec-time resolution (their subscript bounds may reference DO
// loop variables), and DO/END DO pairs become nested loop nodes.

// node is one parsed program construct.
type node interface {
	line() int
}

// dirLine is a declaration or mapping directive, delegated verbatim
// to the directive front end at execution time.
type dirLine struct {
	ln      int
	raw     string
	keyword string
}

// assignStmt is an array-assignment statement.
type assignStmt struct {
	ln   int
	toks []directive.Token
}

// forallStmt is a whole-array FORALL initialization.
type forallStmt struct {
	ln   int
	toks []directive.Token
}

// printStmt is a PRINT statement (reduction or element).
type printStmt struct {
	ln   int
	toks []directive.Token
}

// doLoop is a bounded DO k = lo, hi[, step] ... END DO loop.
type doLoop struct {
	ln      int
	varName string
	lo, hi  []directive.Token
	step    []directive.Token // nil: step 1
	body    []node
}

func (n *dirLine) line() int    { return n.ln }
func (n *assignStmt) line() int { return n.ln }
func (n *forallStmt) line() int { return n.ln }
func (n *printStmt) line() int  { return n.ln }
func (n *doLoop) line() int     { return n.ln }

// maxLoopDepth bounds DO nesting (and with it exec recursion).
const maxLoopDepth = 64

// directiveKeywords lists the statements owned by package directive.
var directiveKeywords = map[string]bool{
	"PARAMETER": true, "PROCESSORS": true,
	"REAL": true, "INTEGER": true, "LOGICAL": true, "DOUBLE": true,
	"DYNAMIC": true, "DISTRIBUTE": true, "REDISTRIBUTE": true,
	"ALIGN": true, "REALIGN": true, "TEMPLATE": true,
	"ALLOCATE": true, "DEALLOCATE": true, "READ": true,
}

// remapKeywords lists the directives after which the mappings of
// materialized arrays may have changed.
var remapKeywords = map[string]bool{
	"DISTRIBUTE": true, "REDISTRIBUTE": true,
	"ALIGN": true, "REALIGN": true,
	"ALLOCATE": true, "DEALLOCATE": true,
}

// IsDirectiveLine reports whether a source line is a declaration or
// mapping statement owned by package directive (as opposed to an
// executable statement of this package, a comment, or a blank line).
// cmd/hpfmap uses it to feed the directive interpreter only the lines
// it understands.
func IsDirectiveLine(line string) bool {
	body, ok := directive.StripLine(line)
	if !ok {
		return false
	}
	toks, err := directive.Lex(body)
	if err != nil || toks[0].Kind != directive.TokIdent {
		return false
	}
	return directiveKeywords[toks[0].Text]
}

func errf(ln int, format string, args ...any) error {
	return fmt.Errorf("interp: line %d: %s", ln, fmt.Sprintf(format, args...))
}

// parseProgram splits the source into lines and builds the AST.
func parseProgram(src string) ([]node, error) {
	var top []node
	var stack []*doLoop
	add := func(n node) {
		if len(stack) > 0 {
			l := stack[len(stack)-1]
			l.body = append(l.body, n)
		} else {
			top = append(top, n)
		}
	}
	ln := 0
	for rest := src; rest != ""; {
		line := rest
		if k := indexByte(rest, '\n'); k >= 0 {
			line, rest = rest[:k], rest[k+1:]
		} else {
			rest = ""
		}
		ln++
		body, ok := directive.StripLine(line)
		if !ok {
			continue
		}
		toks, err := directive.Lex(body)
		if err != nil {
			return nil, errf(ln, "%v", err)
		}
		if toks[0].Kind != directive.TokIdent {
			return nil, errf(ln, "statement must begin with a keyword or array name, found %s %q", toks[0].Kind, toks[0].Text)
		}
		kw := toks[0].Text
		switch {
		case kw == "DO":
			l, err := parseDoHeader(ln, toks)
			if err != nil {
				return nil, err
			}
			if len(stack) >= maxLoopDepth {
				return nil, errf(ln, "DO loops nested deeper than %d", maxLoopDepth)
			}
			add(l)
			stack = append(stack, l)
		case kw == "ENDDO" || kw == "END":
			if kw == "END" {
				if len(toks) != 3 || toks[1].Kind != directive.TokIdent || toks[1].Text != "DO" {
					return nil, errf(ln, "expected END DO")
				}
			} else if len(toks) != 2 {
				return nil, errf(ln, "unexpected text after ENDDO")
			}
			if len(stack) == 0 {
				return nil, errf(ln, "END DO without a matching DO")
			}
			stack = stack[:len(stack)-1]
		case kw == "PRINT":
			add(&printStmt{ln: ln, toks: toks})
		case kw == "FORALL":
			add(&forallStmt{ln: ln, toks: toks})
		case directiveKeywords[kw]:
			add(&dirLine{ln: ln, raw: line, keyword: kw})
		default:
			if hasAssign(toks) {
				add(&assignStmt{ln: ln, toks: toks})
			} else {
				return nil, errf(ln, "unknown statement %q (expected a directive, DO/END DO, FORALL, PRINT or an array assignment)", kw)
			}
		}
	}
	if len(stack) > 0 {
		return nil, errf(stack[len(stack)-1].ln, "DO without a matching END DO")
	}
	return top, nil
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

func hasAssign(toks []directive.Token) bool {
	for _, t := range toks {
		if t.Kind == directive.TokAssign {
			return true
		}
	}
	return false
}

// parseDoHeader parses "DO K = lo, hi [, step]"; the bound token
// ranges are kept for exec-time evaluation (they may reference outer
// loop variables).
func parseDoHeader(ln int, toks []directive.Token) (*doLoop, error) {
	if len(toks) < 4 || toks[1].Kind != directive.TokIdent {
		return nil, errf(ln, "expected DO <var> = <lo>, <hi>[, <step>]")
	}
	if toks[2].Kind != directive.TokAssign {
		return nil, errf(ln, "expected '=' after DO %s", toks[1].Text)
	}
	// Split the remainder (excluding the trailing EOF token) at
	// top-level commas.
	rest := toks[3 : len(toks)-1]
	var parts [][]directive.Token
	depth, start := 0, 0
	for i, t := range rest {
		switch t.Kind {
		case directive.TokLParen, directive.TokSlashParen:
			depth++
		case directive.TokRParen, directive.TokParenSlash:
			depth--
		case directive.TokComma:
			if depth == 0 {
				parts = append(parts, rest[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, rest[start:])
	if len(parts) < 2 || len(parts) > 3 {
		return nil, errf(ln, "DO bounds must be <lo>, <hi>[, <step>], got %d part(s)", len(parts))
	}
	for _, p := range parts {
		if len(p) == 0 {
			return nil, errf(ln, "empty DO bound expression")
		}
	}
	l := &doLoop{ln: ln, varName: toks[1].Text, lo: parts[0], hi: parts[1]}
	if len(parts) == 3 {
		l.step = parts[2]
	}
	return l, nil
}

// cursor walks one statement's token stream during exec-time
// resolution. The trailing EOF token is a hard stop: next never
// advances past it, so out-of-range reads are impossible by
// construction.
type cursor struct {
	ip    *Interp
	ln    int
	toks  []directive.Token
	i     int
	vars  []string // FORALL index variables: tuple slot order
	depth int
}

func (c *cursor) peek() directive.Token { return c.toks[c.i] }

func (c *cursor) next() directive.Token {
	t := c.toks[c.i]
	if t.Kind != directive.TokEOF {
		c.i++
	}
	return t
}

func (c *cursor) at(k directive.TokKind) bool { return c.toks[c.i].Kind == k }

func (c *cursor) accept(k directive.TokKind) bool {
	if c.at(k) {
		c.i++
		return true
	}
	return false
}

func (c *cursor) expect(k directive.TokKind) (directive.Token, error) {
	if !c.at(k) {
		return directive.Token{}, errf(c.ln, "expected %s, found %s %q (column %d)", k, c.peek().Kind, c.peek().Text, c.peek().Pos+1)
	}
	return c.next(), nil
}

func (c *cursor) atEnd() bool { return c.at(directive.TokEOF) }

func (c *cursor) requireEnd() error {
	if !c.atEnd() {
		return errf(c.ln, "unexpected trailing %s %q (column %d)", c.peek().Kind, c.peek().Text, c.peek().Pos+1)
	}
	return nil
}

// maxExprDepth bounds parenthesis nesting in executable expressions,
// turning pathological inputs into errors instead of stack overflow.
const maxExprDepth = 64

// iexpr is a compiled integer expression: an operation over compiled
// operands (fn), or else the affine form c + Σ coef[k]·t[k] of the
// FORALL index tuple t — a constant when coef is empty. Parameters and
// DO variables fold to constants at compile time, and sums, differences
// and constant multiples of affine forms stay affine, so evaluation
// reads no map, parses no token, and MOD(I*7 + J*3 + S, 11) is one
// call.
type iexpr struct {
	fn   func(index.Tuple) (int, error)
	c    int
	coef []int
}

// eval evaluates e at the FORALL index tuple t (nil outside FORALL).
func (e iexpr) eval(t index.Tuple) (int, error) {
	if e.fn != nil {
		return e.fn(t)
	}
	v := e.c
	for k, m := range e.coef {
		v += m * t[k]
	}
	return v, nil
}

// intExpr compiles and evaluates an integer expression outside FORALL.
func (c *cursor) intExpr() (int, error) {
	e, err := c.addInt()
	if err != nil {
		return 0, err
	}
	return e.eval(nil)
}

// addInt compiles an integer expression: +, -, *, / (integer
// division), parentheses, integer literals, the MOD, MIN and MAX
// intrinsics, FORALL index variables (c.vars) and named parameters.
// Everything the text alone decides is an error here; division and
// MOD by zero are errors of eval.
func (c *cursor) addInt() (iexpr, error) {
	return c.chain(c.mulInt, directive.TokPlus, directive.TokMinus)
}

func (c *cursor) mulInt() (iexpr, error) {
	return c.chain(c.unaryInt, directive.TokStar, directive.TokSlash)
}

// chain compiles operand {op operand} for the two operators of one
// precedence level, left-associative.
func (c *cursor) chain(operand func() (iexpr, error), op1, op2 directive.TokKind) (iexpr, error) {
	x, err := operand()
	for err == nil && (c.at(op1) || c.at(op2)) {
		op := c.next().Text[0]
		var y iexpr
		if y, err = operand(); err == nil {
			x = c.binary(op, x, y)
		}
	}
	return x, err
}

func (c *cursor) unaryInt() (iexpr, error) {
	if c.accept(directive.TokMinus) {
		x, err := c.unaryInt()
		return c.binary('-', iexpr{}, x), err
	}
	c.accept(directive.TokPlus)
	return c.primInt()
}

func (c *cursor) primInt() (iexpr, error) {
	t := c.peek()
	switch {
	case c.accept(directive.TokNumber):
		v, err := strconv.Atoi(t.Text)
		if err != nil {
			return iexpr{}, errf(c.ln, "expected an integer, got %q (column %d)", t.Text, t.Pos+1)
		}
		return iexpr{c: v}, nil
	case c.accept(directive.TokLParen):
		c.depth++
		if c.depth > maxExprDepth {
			return iexpr{}, errf(c.ln, "expression nested deeper than %d", maxExprDepth)
		}
		x, err := c.addInt()
		c.depth--
		if err == nil {
			_, err = c.expect(directive.TokRParen)
		}
		return x, err
	case c.accept(directive.TokIdent):
		switch t.Text {
		case "MOD", "MIN", "MAX":
			return c.intrinsicInt(t.Text)
		}
		if k := slices.Index(c.vars, t.Text); k >= 0 {
			coef := make([]int, k+1)
			coef[k] = 1
			return iexpr{coef: coef}, nil
		}
		if v, ok := c.ip.param(t.Text); ok {
			return iexpr{c: v}, nil
		}
		return iexpr{}, errf(c.ln, "unknown identifier %q in expression (not a parameter or loop variable; column %d)", t.Text, t.Pos+1)
	default:
		return iexpr{}, errf(c.ln, "expected an expression, found %s %q (column %d)", t.Kind, t.Text, t.Pos+1)
	}
}

func (c *cursor) intrinsicInt(name string) (iexpr, error) {
	if _, err := c.expect(directive.TokLParen); err != nil {
		return iexpr{}, err
	}
	var args []iexpr
	for more := true; more; more = c.accept(directive.TokComma) {
		x, err := c.addInt()
		if err != nil {
			return iexpr{}, err
		}
		args = append(args, x)
	}
	if _, err := c.expect(directive.TokRParen); err != nil {
		return iexpr{}, err
	}
	if len(args) < 2 {
		return iexpr{}, errf(c.ln, "%s requires at least two arguments", name)
	}
	op := byte('<') // MIN
	switch name {
	case "MOD":
		if len(args) != 2 {
			return iexpr{}, errf(c.ln, "MOD takes exactly two arguments")
		}
		op = '%'
	case "MAX":
		op = '>'
	}
	x := args[0]
	for _, y := range args[1:] {
		x = c.binary(op, x, y)
	}
	return x, nil
}

// binary combines two compiled operands under op (+ - * / for the
// operators, % < > for MOD, MIN and MAX). Affine operands combine
// into an affine form where the result is one, and constants fold
// unless the operation fails, which is left to eval: the left operand,
// then the right, then op — the order the text reads.
func (c *cursor) binary(op byte, x, y iexpr) iexpr {
	ln := c.ln
	if x.fn == nil && y.fn == nil {
		switch {
		case op == '+':
			return axpy(x, 1, y)
		case op == '-':
			return axpy(x, -1, y)
		case op == '*' && len(y.coef) == 0:
			return axpy(iexpr{}, y.c, x)
		case op == '*' && len(x.coef) == 0:
			return axpy(iexpr{}, x.c, y)
		case len(x.coef) == 0 && len(y.coef) == 0:
			if v, err := arith(ln, op, x.c, y.c); err == nil {
				return iexpr{c: v}
			}
		}
	}
	// Affine operands are evaluated in line: a call per operation.
	return iexpr{fn: func(t index.Tuple) (int, error) {
		a, b := x.c, y.c
		var err error
		if x.fn != nil {
			a, err = x.fn(t)
		}
		if err == nil && y.fn != nil {
			b, err = y.fn(t)
		}
		if err != nil {
			return 0, err
		}
		for k, m := range x.coef {
			a += m * t[k]
		}
		for k, m := range y.coef {
			b += m * t[k]
		}
		return arith(ln, op, a, b)
	}}
}

// axpy is the affine form x + m·y of two affine forms.
func axpy(x iexpr, m int, y iexpr) iexpr {
	coef := make([]int, max(len(x.coef), len(y.coef)))
	copy(coef, x.coef)
	for k, v := range y.coef {
		coef[k] += m * v
	}
	return iexpr{c: x.c + m*y.c, coef: coef}
}

func arith(ln int, op byte, a, b int) (int, error) {
	switch op {
	case '+':
		return a + b, nil
	case '-':
		return a - b, nil
	case '*':
		return a * b, nil
	case '<':
		return min(a, b), nil
	case '>':
		return max(a, b), nil
	}
	switch {
	case b == 0 && op == '/':
		return 0, errf(ln, "division by zero")
	case b == 0:
		return 0, errf(ln, "MOD by zero")
	case op == '/':
		return a / b, nil
	}
	return a % b, nil
}
