package expr

import (
	"fmt"
	"testing"

	"hpfnt/internal/index"
)

// The fixed resolver of these tests: slots I, J, K (Q is never bound)
// and arrays A (two dimensions) and B (one, strided); C is unknown.
var (
	testSlots  = []string{"I", "J", "K"}
	testNames  = []string{"I", "J", "K", "Q"}
	testArrays = []string{"A", "B", "C"}
)

func testBounds(array string, dim int) (index.Triplet, error) {
	switch {
	case array == "A" && dim == 1:
		return index.Unit(0, 63), nil
	case array == "A" && dim == 2:
		return index.Unit(-5, 9), nil
	case array == "B" && dim == 1:
		return index.Triplet{Low: 1, High: 10, Stride: 3}, nil
	}
	return index.Triplet{}, fmt.Errorf("no dimension %d of %s", dim, array)
}

// check returns the first error Compile must report — an unbound
// dummy, a bound the resolver refuses, an intrinsic without arguments
// — in the order a left-to-right walk meets them.
func check(e Expr) string {
	switch n := e.(type) {
	case Dummy:
		for _, s := range testSlots {
			if s == string(n) {
				return ""
			}
		}
		return fmt.Sprintf("unbound dummy %q", string(n))
	case Bound:
		if _, err := testBounds(n.Array, n.Dim); err != nil {
			return err.Error()
		}
	case Bin:
		if msg := check(n.L); msg != "" {
			return msg
		}
		return check(n.R)
	case MinMax:
		if len(n.Args) == 0 {
			return map[bool]string{false: "MIN", true: "MAX"}[n.IsMax] + " requires arguments"
		}
		for _, a := range n.Args {
			if msg := check(a); msg != "" {
				return msg
			}
		}
	}
	return ""
}

// walk evaluates e at the slot tuple t by walking the tree, operands
// left to right, and returns the first value error.
func walk(e Expr, t index.Tuple) (int, string) {
	switch n := e.(type) {
	case Const:
		return int(n), ""
	case Dummy:
		for k, s := range testSlots {
			if s == string(n) {
				return t[k], ""
			}
		}
	case Bound:
		tr, _ := testBounds(n.Array, n.Dim)
		return [...]int{tr.Low, tr.Last(), tr.Count()}[n.Kind], ""
	case Bin:
		l, msg := walk(n.L, t)
		if msg != "" {
			return 0, msg
		}
		r, msg := walk(n.R, t)
		switch {
		case msg != "":
			return 0, msg
		case n.Op == OpAdd:
			return l + r, ""
		case n.Op == OpSub:
			return l - r, ""
		case n.Op == OpMul:
			return l * r, ""
		case r == 0 && n.Op == OpDiv:
			return 0, "division by zero"
		case r == 0:
			return 0, "MOD by zero"
		case n.Op == OpDiv:
			return l / r, ""
		}
		return l % r, ""
	case MinMax:
		v, msg := walk(n.Args[0], t)
		for _, a := range n.Args[1:] {
			var w int
			if msg == "" {
				w, msg = walk(a, t)
			}
			if n.IsMax {
				v = max(v, w)
			} else {
				v = min(v, w)
			}
		}
		if msg != "" {
			return 0, msg
		}
		return v, ""
	}
	panic(fmt.Sprintf("walk: %#v", e))
}

// affine reports whether Compile must yield an affine form for e, and
// whether that form has coefficients: sums and differences of affine
// forms are affine, so is a product with one factor constant, and
// every other operation only folds between constants it does not fail
// on.
func affine(e Expr) (ok, slots bool) {
	switch n := e.(type) {
	case Dummy:
		return true, true
	case Bin:
		lok, ls := affine(n.L)
		rok, rs := affine(n.R)
		switch {
		case n.Op == OpAdd || n.Op == OpSub:
			return lok && rok, ls || rs
		case n.Op == OpMul:
			return lok && rok && !(ls && rs), ls || rs
		}
		if !lok || !rok || ls || rs {
			return false, false
		}
		_, msg := walk(n, nil) // constant operands: no slot is read
		return msg == "", false
	case MinMax: // folded pairwise, one argument is itself
		ok, slots := affine(n.Args[0])
		for _, a := range n.Args[1:] {
			aok, as := affine(a)
			ok, slots = ok && aok && !slots && !as, false
		}
		return ok, slots
	}
	return true, false
}

// treeGen builds expression trees from fuzz bytes (zeros once they run
// out); encode is its inverse.
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

func (g *treeGen) tree(budget int) Expr {
	b := g.next()
	if budget <= 0 {
		b %= 3
	}
	switch b % 5 {
	case 0:
		return Const(int8(g.next()))
	case 1:
		return Dummy(testNames[g.next()%len(testNames)])
	case 2:
		return Bound{BoundKind(g.next() % 3), testArrays[g.next()%len(testArrays)], 1 + g.next()%3}
	case 3:
		op := BinOp(g.next() % 5)
		return Bin{op, g.tree(budget / 2), g.tree(budget / 2)}
	}
	m := MinMax{IsMax: g.next()%2 == 1}
	for k := g.next() % 4; k > 0; k-- {
		m.Args = append(m.Args, g.tree(budget/3))
	}
	return m
}

func encode(e Expr) []byte {
	switch n := e.(type) {
	case Const:
		return []byte{0, byte(int8(n))}
	case Dummy:
		for k, s := range testNames {
			if s == string(n) {
				return []byte{1, byte(k)}
			}
		}
	case Bound:
		for k, s := range testArrays {
			if s == n.Array {
				return []byte{2, byte(n.Kind), byte(k), byte(n.Dim - 1)}
			}
		}
	case Bin:
		return append(append([]byte{3, byte(n.Op)}, encode(n.L)...), encode(n.R)...)
	case MinMax:
		out := []byte{4, map[bool]byte{false: 0, true: 1}[n.IsMax], byte(len(n.Args))}
		for _, a := range n.Args {
			out = append(out, encode(a)...)
		}
		return out
	}
	panic(fmt.Sprintf("encode: %#v", e))
}

// FuzzCompile builds random trees — literals, bound and unbound
// dummies, + - * / MOD, MIN/MAX with zero to three arguments, and
// LBOUND/UBOUND/SIZE over a fixed resolver — and requires Compile and
// Eval to agree with the tree-walking oracle: the same value, or the
// same error text (unbound dummies, refused bounds and empty
// intrinsics from Compile, division and MOD by zero from Eval). The
// compiled form must be affine exactly when the oracle says so.
func FuzzCompile(f *testing.F) {
	for _, e := range []Expr{ // the affine cases, and the others
		Affine(2, "I", -1), Const(5), Dummy("J"), Sub(Dummy("I"), Dummy("I")),
		Mul(Dummy("I"), Dummy("I")), Max(Dummy("I"), Const(0)), Add(Dummy("I"), Dummy("J")),
		Mul(Const(3), Sub(Dummy("K"), Const(2))), Add(Mul(Dummy("I"), Const(7)), Mul(Dummy("J"), Const(3))),
		Bin{OpMod, Add(Dummy("I"), Const(4)), Const(0)}, Bin{OpDiv, Const(7), Sub(Const(2), Const(2))},
		Max(Const(1), Const(2)), Min(), Min(Dummy("I")), Dummy("Q"), Sub(Dummy("J"), LBound("A", 2)),
		Mul(Size("B", 1), Dummy("K")), Add(Size("C", 3), LBound("B", 2)),
	} {
		f.Add(encode(e))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			t.Skip("oversized input")
		}
		g := &treeGen{data: data}
		tree := g.tree(24)
		tuple := index.Tuple{g.next() - 128, 3 * g.next(), -g.next()}
		c, err := Compile(tree, testSlots, testBounds)
		if msg := check(tree); msg != "" {
			if err == nil || err.Error() != msg {
				t.Fatalf("Compile(%s) = %v, want error %q", tree, err, msg)
			}
			return
		}
		if err != nil {
			t.Fatalf("Compile(%s): %v", tree, err)
		}
		got, err := c.Eval(tuple)
		want, msg := walk(tree, tuple)
		switch {
		case msg != "":
			if err == nil || err.Error() != msg {
				t.Fatalf("%s at %v: got %d, %v; want error %q", tree, tuple, got, err, msg)
			}
		case err != nil || got != want:
			t.Fatalf("%s at %v: got %d, %v; want %d", tree, tuple, got, err, want)
		}
		if ok, slots := affine(tree); c.Affine() != ok || ok && (len(c.Coef) > 0) != slots {
			t.Fatalf("%s: affine %v with coefficients %v, want affine %v with slots %v", tree, c.Affine(), c.Coef, ok, slots)
		}
	})
}

// value compiles e over slots I, J, K and evaluates it at t.
func value(t *testing.T, e Expr, tuple ...int) int {
	t.Helper()
	c, err := Compile(e, testSlots, testBounds)
	if err != nil {
		t.Fatalf("Compile(%s): %v", e, err)
	}
	v, err := c.Eval(append(index.Tuple(tuple), 0, 0, 0))
	if err != nil {
		t.Fatalf("%s: %v", e, err)
	}
	return v
}

func TestConstAndDummy(t *testing.T) {
	if v := value(t, Const(42)); v != 42 {
		t.Fatalf("Const: %d", v)
	}
	if v := value(t, Dummy("J"), 3, 7); v != 7 {
		t.Fatalf("Dummy: %d", v)
	}
	if _, err := Compile(Dummy("I"), nil, nil); err == nil {
		t.Fatal("unbound dummy must error")
	}
}

func TestArithmetic(t *testing.T) {
	// 2*I - 1 at I=5 -> 9 (the staggered grid map of §8.1.1).
	if v := value(t, Sub(Mul(Const(2), Dummy("I")), Const(1)), 5); v != 9 {
		t.Fatalf("2*I-1 at 5 = %d", v)
	}
	// (J-0)*2 + 0 at J=3 -> 6 (colon-triplet normalization form).
	if v := value(t, Add(Mul(Sub(Dummy("J"), Const(0)), Const(2)), Const(0)), 0, 3); v != 6 {
		t.Fatalf("got %d", v)
	}
}

func TestAffine(t *testing.T) {
	cases := []struct {
		a, b, j, want int
	}{
		{2, -1, 5, 9},
		{1, 0, 3, 3},
		{0, 7, 100, 7},
		{-3, 2, 4, -10},
		{1, 5, 2, 7},
	}
	for _, c := range cases {
		if v := value(t, Affine(c.a, "I", c.b), c.j); v != c.want {
			t.Errorf("Affine(%d,I,%d) at %d = %d, want %d", c.a, c.b, c.j, v, c.want)
		}
	}
}

func TestMinMax(t *testing.T) {
	e := Max(Dummy("I"), Const(1))
	if v := value(t, e, -5); v != 1 {
		t.Fatalf("MAX(I,1) at -5 = %d", v)
	}
	if v := value(t, e, 9); v != 9 {
		t.Fatalf("MAX(I,9) = %d", v)
	}
	if v := value(t, Min(Dummy("I"), Const(100), Const(50)), 70); v != 50 {
		t.Fatalf("MIN = %d", v)
	}
	if _, err := Compile(MinMax{IsMax: true}, nil, nil); err == nil {
		t.Fatal("empty MAX must error")
	}
}

func TestBoundIntrinsics(t *testing.T) {
	if v := value(t, LBound("A", 1)); v != 0 {
		t.Fatalf("LBOUND = %d", v)
	}
	if v := value(t, UBound("A", 1)); v != 63 {
		t.Fatalf("UBOUND = %d", v)
	}
	if v := value(t, Size("A", 1)); v != 64 {
		t.Fatalf("SIZE = %d", v)
	}
	if _, err := Constant(Size("A", 1)); err == nil {
		t.Fatal("bounds without resolver must error")
	}
}

func TestDummiesCollection(t *testing.T) {
	e := Add(Mul(Const(2), Dummy("I")), Max(Dummy("I"), Const(1)))
	if ds := Dummies(e); len(ds) != 1 || ds[0] != "I" {
		t.Fatalf("Dummies = %v", ds)
	}
	if ds := Dummies(Const(3)); len(ds) != 0 {
		t.Fatalf("Dummies(3) = %v", ds)
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{Affine(2, "I", -1), "2*I-1"},
		{Affine(1, "I", 0), "I"},
		{Max(Dummy("I"), Const(1)), "MAX(I,1)"},
		{Min(Const(3), Const(4)), "MIN(3,4)"},
		{LBound("A", 2), "LBOUND(A,2)"},
		{Mul(Add(Dummy("I"), Const(1)), Const(2)), "(I+1)*2"},
		{Sub(Dummy("I"), Add(Const(1), Const(2))), "I-(1+2)"},
		{Mul(Dummy("I"), Bin{OpDiv, Const(6), Const(4)}), "I*(6/4)"},
		{Bin{OpDiv, Mul(Dummy("I"), Const(6)), Mul(Const(2), Const(2))}, "I*6/(2*2)"},
		{Sub(Const(0), Bin{OpMod, Dummy("J"), Const(3)}), "0-MOD(J,3)"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}
