package interp

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"hpfnt/internal/directive"
	"hpfnt/internal/index"
)

// tnode is one node of a generated integer-expression tree: a literal
// ('n', val), a parameter ('p', name), a FORALL index variable ('v',
// val is its slot), a binary operator ('b', name is + - * or /), a
// unary minus ('u'), parentheses ('(') or an intrinsic ('c', name is
// MOD, MIN or MAX).
type tnode struct {
	kind byte
	val  int
	name string
	kids []*tnode
}

var (
	exprParams = map[string]int{"N": 768, "S": -5, "Z": 0, "BIG": math.MaxInt64 / 3}
	exprNames  = []string{"N", "S", "Z", "BIG"}
	exprVars   = []string{"I", "J", "K"}
)

// treeGen builds expression trees from fuzz bytes (zeros once they run
// out). Children that would parse differently without parentheses get
// them, so rendering a tree and parsing the text gives the tree back.
type treeGen struct {
	data []byte
	at   int
}

func (g *treeGen) next() int {
	if g.at >= len(g.data) {
		return 0
	}
	g.at++
	return int(g.data[g.at-1])
}

func (g *treeGen) tree(budget int) *tnode {
	b := g.next()
	if budget <= 0 {
		b %= 3
	}
	switch b % 8 {
	case 0:
		return &tnode{kind: 'n', val: g.next() % 17}
	case 1:
		return &tnode{kind: 'p', name: exprNames[g.next()%len(exprNames)]}
	case 2:
		return &tnode{kind: 'v', val: g.next() % len(exprVars)}
	case 3, 4:
		op := string("+-*/"[g.next()%4])
		x, y := g.tree(budget/2), g.tree(budget/2)
		if strings.Contains("*/", op) && isOp(x, "+-") {
			x = paren(x, 1)
		}
		if isOp(y, "+-") || strings.Contains("*/", op) && isOp(y, "*/") {
			y = paren(y, 1)
		}
		return &tnode{kind: 'b', name: op, kids: []*tnode{x, y}}
	case 5:
		x := g.tree(budget - 1)
		if x.kind == 'b' {
			x = paren(x, 1)
		}
		return &tnode{kind: 'u', kids: []*tnode{x}}
	case 6: // parentheses, now and then past directive.MaxExprDepth
		depth := 1 + g.next()%3
		if b >= 200 {
			depth = 30 + g.next()%40
		}
		return paren(g.tree(budget-1), depth)
	default:
		n := &tnode{kind: 'c', name: []string{"MOD", "MIN", "MAX"}[g.next()%3]}
		for k := 1 + g.next()%4; k > 0; k-- {
			n.kids = append(n.kids, g.tree(budget/3))
		}
		return n
	}
}

func isOp(n *tnode, ops string) bool { return n.kind == 'b' && strings.Contains(ops, n.name) }

func paren(n *tnode, depth int) *tnode {
	for ; depth > 0; depth-- {
		n = &tnode{kind: '(', kids: []*tnode{n}}
	}
	return n
}

// render writes n as program text, a space between tokens.
func (n *tnode) render(b *strings.Builder) {
	switch n.kind {
	case 'n':
		b.WriteString(strconv.Itoa(n.val))
	case 'p':
		b.WriteString(n.name)
	case 'v':
		b.WriteString(exprVars[n.val])
	case 'b':
		n.kids[0].render(b)
		b.WriteString(" " + n.name + " ")
		n.kids[1].render(b)
	case 'u':
		b.WriteString("- ")
		n.kids[0].render(b)
	case '(':
		b.WriteString("( ")
		n.kids[0].render(b)
		b.WriteString(" )")
	case 'c':
		b.WriteString(n.name + " ( ")
		for i, k := range n.kids {
			if i > 0 {
				b.WriteString(" , ")
			}
			k.render(b)
		}
		b.WriteString(" )")
	}
}

// check returns the first error the text alone decides, in the order a
// left-to-right parse meets them: nesting depth when a parenthesis
// opens, an intrinsic's arity when its argument list closes.
func (n *tnode) check(depth int) string {
	if n.kind == '(' {
		if depth++; depth > directive.MaxExprDepth {
			return fmt.Sprintf("expression nested deeper than %d", directive.MaxExprDepth)
		}
	}
	for _, k := range n.kids {
		if msg := k.check(depth); msg != "" {
			return msg
		}
	}
	switch {
	case n.kind != 'c':
	case len(n.kids) < 2:
		return n.name + " requires at least two arguments"
	case n.name == "MOD" && len(n.kids) != 2:
		return "MOD takes exactly two arguments"
	}
	return ""
}

// eval evaluates n at tuple t in Go, operands left to right, and
// returns the first value error.
func (n *tnode) eval(t []int) (int, string) {
	switch n.kind {
	case 'n':
		return n.val, ""
	case 'p':
		return exprParams[n.name], ""
	case 'v':
		return t[n.val], ""
	case 'u':
		v, msg := n.kids[0].eval(t)
		return -v, msg
	case '(':
		return n.kids[0].eval(t)
	}
	v, msg := n.kids[0].eval(t)
	for _, k := range n.kids[1:] {
		if msg != "" {
			return 0, msg
		}
		var w int
		if w, msg = k.eval(t); msg != "" {
			return 0, msg
		}
		switch n.name {
		case "+":
			v += w
		case "-":
			v -= w
		case "*":
			v *= w
		case "/":
			if w == 0 {
				return 0, "division by zero"
			}
			v /= w
		case "MOD":
			if w == 0 {
				return 0, "MOD by zero"
			}
			v %= w
		case "MIN":
			v = min(v, w)
		case "MAX":
			v = max(v, w)
		}
	}
	return v, msg
}

// FuzzIntExpr renders random expression trees — literals, parameters,
// FORALL index variables, + - * /, unary minus, parentheses up to and
// past directive.MaxExprDepth, MOD/MIN/MAX with one to four arguments —
// and requires the compiled expression to agree with a Go evaluation of
// the tree: the same value, or the same error text (arity and depth
// from the shared grammar, division and MOD by zero from evaluation).
func FuzzIntExpr(f *testing.F) {
	f.Add([]byte("stencil"))
	f.Add([]byte{7, 0, 3, 3, 2, 0, 0, 7, 0, 3, 1, 2, 1, 0, 3, 0, 1, 1, 0, 11})
	f.Add([]byte{3, 3, 0, 5, 0, 0})    // a division by zero
	f.Add([]byte{7, 0, 1, 2, 0, 1, 2}) // MOD by zero
	f.Add([]byte{7, 1, 0, 0, 9})       // MIN with one argument
	f.Add([]byte{206, 39, 0, 4})       // 69 parentheses, past directive.MaxExprDepth
	f.Add([]byte{5, 5, 2, 1, 3, 2, 1, 3})
	cfg := Config{NP: 1, Engine: "sim"}
	prog, err := cfg.NewProgram()
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { prog.Close() })
	for name, v := range exprParams {
		prog.SetParam(name, v)
	}
	ip := New(prog)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			t.Skip("oversized input")
		}
		g := &treeGen{data: data}
		tree := g.tree(24)
		tuple := index.Tuple{g.next() - 128, 3 * g.next(), -g.next()}
		var text strings.Builder
		tree.render(&text)
		toks, err := directive.Lex(text.String())
		if err != nil {
			t.Fatalf("%q does not lex: %v", text.String(), err)
		}
		c := &cursor{ip: ip, ln: 7, toks: toks, vars: exprVars}
		e, err := c.compile()
		if err == nil {
			err = c.requireEnd()
		}
		got := 0
		if err == nil {
			if got, err = e.Eval(tuple); err != nil {
				err = errf(c.ln, "%w", err)
			}
		}
		msg := tree.check(0)
		want := 0
		if msg == "" {
			want, msg = tree.eval(tuple)
		}
		switch {
		case msg != "":
			if wantErr := "interp: line 7: " + msg; err == nil || err.Error() != wantErr {
				t.Fatalf("%s at %v: got %d, %v; want error %q", text.String(), tuple, got, err, wantErr)
			}
		case err != nil || got != want:
			t.Fatalf("%s at %v: got %d, %v; want %d", text.String(), tuple, got, err, want)
		}
	})
}
