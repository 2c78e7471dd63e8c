package interp

import (
	"fmt"

	"hpfnt/internal/directive"
	"hpfnt/internal/expr"
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

// errf positions an error at a source line; a %w verb wraps.
func errf(ln int, format string, args ...any) error {
	return fmt.Errorf("interp: line %d: "+format, append([]any{ln}, args...)...)
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
			return nil, errf(ln, "%w", err)
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
	ip   *Interp
	ln   int
	toks []directive.Token
	i    int
	vars []string // FORALL index variables: tuple slot order
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

// compile parses and compiles one integer expression at the cursor:
// package directive's grammar in the executable-statement scope, in
// which parameters and DO variables are constants and the FORALL index
// variables (c.vars) are the tuple's slots. Everything the text alone
// decides is an error here; division and MOD by zero are errors of
// evaluation.
func (c *cursor) compile() (expr.Compiled, error) {
	e, i, err := directive.ParseExpr(c.toks, c.i, directive.Scope{Slots: c.vars, Const: c.ip.param, Exec: true})
	c.i = i
	if err != nil {
		return e, errf(c.ln, "%w", err)
	}
	return e, nil
}

// intExpr compiles and evaluates an integer expression outside FORALL.
func (c *cursor) intExpr() (int, error) {
	e, err := c.compile()
	if err != nil {
		return 0, err
	}
	v, err := e.Eval(nil)
	if err != nil {
		return 0, errf(c.ln, "%w", err)
	}
	return v, nil
}
