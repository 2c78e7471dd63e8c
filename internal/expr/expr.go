// Package expr implements the scalar integer expressions of the
// paper's alignment functions (§5.1): expressions built with "+",
// "-", and "*" that are linear in at most one align-dummy, optionally
// using the intrinsic functions MAX, MIN, LBOUND, UBOUND and SIZE
// ("Since linear expressions cannot handle some frequently occurring
// cases, such as truncation at either end of the alignment, we also
// allow the intrinsic functions MAX, MIN, LBOUND, UBOUND, and SIZE to
// be used in alignment functions"). The same trees, with MOD and
// run-time "/" added, are the integer expressions of the interpreter's
// executable statements.
//
// In the pipeline, package directive's grammar (the only one) builds
// the trees and Compile is the only evaluator: it resolves a tree once
// against a slot binding (align-dummies, or FORALL index variables)
// and a bounds resolver into the affine form c + Σ coef·t[k], or a
// closure over such forms where the expression is not affine. LBOUND,
// UBOUND and SIZE fold to constants in Compile, so an alignment's
// bounds are read once, when its directive takes effect. Package
// align's affine interval transport reads the affine form's
// coefficients.
package expr

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"hpfnt/internal/index"
)

// Bounds resolves the LBOUND/UBOUND/SIZE intrinsics: it returns the
// subscript triplet of the given 1-based dimension of the named array.
type Bounds func(array string, dim int) (index.Triplet, error)

// Expr is a scalar integer expression.
type Expr interface {
	// CollectDummies adds the names of all align-dummies occurring in
	// the expression to set.
	CollectDummies(set map[string]bool)
	// String renders the expression in Fortran-like syntax.
	String() string
}

// Dummies returns the sorted names of align-dummies occurring in e.
func Dummies(e Expr) []string {
	set := map[string]bool{}
	e.CollectDummies(set)
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Const is an integer literal.
type Const int

// CollectDummies is a no-op for literals.
func (c Const) CollectDummies(map[string]bool) {}

func (c Const) String() string { return fmt.Sprint(int(c)) }

// Dummy references an align-dummy (or a FORALL index variable) by
// name.
type Dummy string

// CollectDummies records the dummy's name.
func (d Dummy) CollectDummies(set map[string]bool) { set[string(d)] = true }

func (d Dummy) String() string { return string(d) }

// BinOp identifies an arithmetic operator.
type BinOp int

// The operators permitted by the paper, "+", "-" and "*", then the
// two only executable statements use: integer division and the MOD
// intrinsic.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	opMin // MIN and MAX fold their arguments pairwise
	opMax
)

func (op BinOp) String() string { return [...]string{"+", "-", "*", "/", "MOD", "MIN", "MAX"}[op] }

// Bin is a binary arithmetic expression.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// Add returns l+r.
func Add(l, r Expr) Expr { return Bin{OpAdd, l, r} }

// Sub returns l-r.
func Sub(l, r Expr) Expr { return Bin{OpSub, l, r} }

// Mul returns l*r.
func Mul(l, r Expr) Expr { return Bin{OpMul, l, r} }

// Affine returns a*J+b for the named dummy, simplifying trivial
// coefficients.
func Affine(a int, dummy string, b int) Expr {
	var e Expr
	switch a {
	case 0:
		return Const(b)
	case 1:
		e = Dummy(dummy)
	default:
		e = Mul(Const(a), Dummy(dummy))
	}
	switch {
	case b == 0:
		return e
	case b < 0:
		return Sub(e, Const(-b))
	default:
		return Add(e, Const(b))
	}
}

// CollectDummies descends into both operands.
func (b Bin) CollectDummies(set map[string]bool) {
	b.L.CollectDummies(set)
	b.R.CollectDummies(set)
}

func (b Bin) String() string {
	l, r := b.L.String(), b.R.String()
	if b.Op == OpMod {
		return "MOD(" + l + "," + r + ")"
	}
	// paren reports whether operand x, on the given side of b's
	// operator, binds looser than the operator.
	paren := func(x Expr, right bool) bool {
		xb, ok := x.(Bin)
		switch {
		case !ok || xb.Op == OpMod || b.Op == OpAdd:
			return false
		case xb.Op == OpAdd || xb.Op == OpSub:
			return right || b.Op != OpSub
		}
		// A product or quotient: only a divisor, or a quotient right
		// of a product, needs them.
		return right && (b.Op == OpDiv || b.Op == OpMul && xb.Op == OpDiv)
	}
	if paren(b.L, false) {
		l = "(" + l + ")"
	}
	if paren(b.R, true) {
		r = "(" + r + ")"
	}
	return l + b.Op.String() + r
}

// MinMax is the MAX or MIN intrinsic over two or more arguments.
type MinMax struct {
	IsMax bool
	Args  []Expr
}

// Max returns MAX(args...).
func Max(args ...Expr) Expr { return MinMax{IsMax: true, Args: args} }

// Min returns MIN(args...).
func Min(args ...Expr) Expr { return MinMax{IsMax: false, Args: args} }

// CollectDummies descends into all arguments.
func (m MinMax) CollectDummies(set map[string]bool) {
	for _, a := range m.Args {
		a.CollectDummies(set)
	}
}

func (m MinMax) String() string {
	name := "MIN"
	if m.IsMax {
		name = "MAX"
	}
	parts := make([]string, len(m.Args))
	for i, a := range m.Args {
		parts[i] = a.String()
	}
	return name + "(" + strings.Join(parts, ",") + ")"
}

// BoundKind selects among the array-inquiry intrinsics.
type BoundKind int

// The array-inquiry intrinsics admitted in alignment functions.
const (
	KindLBound BoundKind = iota // LBOUND(array, dim)
	KindUBound                  // UBOUND(array, dim)
	KindSize                    // SIZE(array, dim)
)

func (k BoundKind) String() string { return [...]string{"LBOUND", "UBOUND", "SIZE"}[k] }

// Bound is an LBOUND/UBOUND/SIZE intrinsic reference.
type Bound struct {
	Kind  BoundKind
	Array string
	Dim   int // 1-based dimension
}

// LBound returns LBOUND(array, dim).
func LBound(array string, dim int) Expr { return Bound{KindLBound, array, dim} }

// UBound returns UBOUND(array, dim).
func UBound(array string, dim int) Expr { return Bound{KindUBound, array, dim} }

// Size returns SIZE(array, dim).
func Size(array string, dim int) Expr { return Bound{KindSize, array, dim} }

// CollectDummies is a no-op: bounds contain no dummies.
func (b Bound) CollectDummies(map[string]bool) {}

func (b Bound) String() string { return fmt.Sprintf("%s(%s,%d)", b.Kind, b.Array, b.Dim) }

// Compiled is a compiled integer expression: an operation over
// compiled operands (fn), or else the affine form C + Σ Coef[k]·t[k]
// of the slot tuple t, a constant when Coef is empty. Sums,
// differences and constant multiples of affine forms stay affine, so
// evaluation reads no map, and MOD(I*7 + J*3 + S, 11) is one call.
type Compiled struct {
	fn   func(index.Tuple) (int, error)
	C    int
	Coef []int
}

// Affine reports whether c is the affine form C + Σ Coef[k]·t[k].
func (c Compiled) Affine() bool { return c.fn == nil }

// Eval evaluates c at the slot tuple t (nil when c has no slots).
// Division and MOD by zero are its only errors.
func (c Compiled) Eval(t index.Tuple) (int, error) {
	if c.fn != nil {
		return c.fn(t)
	}
	v := c.C
	for k, m := range c.Coef {
		v += m * t[k]
	}
	return v, nil
}

// Compile resolves e once: the dummy named slots[k] becomes slot k of
// the tuple Eval is given, and LBOUND/UBOUND/SIZE fold to constants
// through bounds. Affine operands combine into an affine form where
// the result is one, and constants fold unless the operation fails,
// which is left to Eval: the left operand, then the right, then the
// operator, the order the text reads.
func Compile(e Expr, slots []string, bounds Bounds) (Compiled, error) {
	switch n := e.(type) {
	case Const:
		return Compiled{C: int(n)}, nil
	case Dummy:
		k := slices.Index(slots, string(n))
		if k < 0 {
			return Compiled{}, fmt.Errorf("unbound dummy %q", string(n))
		}
		coef := make([]int, k+1)
		coef[k] = 1
		return Compiled{Coef: coef}, nil
	case Bound:
		if bounds == nil {
			return Compiled{}, fmt.Errorf("%s requires array bounds", n)
		}
		t, err := bounds(n.Array, n.Dim)
		if err != nil {
			return Compiled{}, err
		}
		return Compiled{C: [...]int{t.Low, t.Last(), t.Count()}[n.Kind]}, nil
	case Bin:
		return combine(n.Op, []Expr{n.L, n.R}, slots, bounds)
	case MinMax:
		if n.IsMax {
			return combine(opMax, n.Args, slots, bounds)
		}
		return combine(opMin, n.Args, slots, bounds)
	}
	return Compiled{}, fmt.Errorf("cannot compile %s", e)
}

// Constant evaluates an expression that names no dummy and no array
// bound.
func Constant(e Expr) (int, error) {
	c, err := Compile(e, nil, nil)
	if err != nil {
		return 0, err
	}
	return c.Eval(nil)
}

// combine compiles args left to right and folds them pairwise under
// op.
func combine(op BinOp, args []Expr, slots []string, bounds Bounds) (Compiled, error) {
	if len(args) == 0 {
		return Compiled{}, fmt.Errorf("%s requires arguments", op)
	}
	x, err := Compile(args[0], slots, bounds)
	for k := 1; k < len(args) && err == nil; k++ {
		var y Compiled
		if y, err = Compile(args[k], slots, bounds); err == nil {
			x = binary(op, x, y)
		}
	}
	return x, err
}

// binary combines two compiled operands under op.
func binary(op BinOp, x, y Compiled) Compiled {
	if x.fn == nil && y.fn == nil {
		switch {
		case op == OpAdd:
			return axpy(x, 1, y)
		case op == OpSub:
			return axpy(x, -1, y)
		case op == OpMul && len(y.Coef) == 0:
			return axpy(Compiled{}, y.C, x)
		case op == OpMul && len(x.Coef) == 0:
			return axpy(Compiled{}, x.C, y)
		case len(x.Coef) == 0 && len(y.Coef) == 0:
			if v, err := Arith(op, x.C, y.C); err == nil {
				return Compiled{C: v}
			}
		}
	}
	// Affine operands are evaluated in line: a call per operation.
	return Compiled{fn: func(t index.Tuple) (int, error) {
		a, b := x.C, y.C
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
		for k, m := range x.Coef {
			a += m * t[k]
		}
		for k, m := range y.Coef {
			b += m * t[k]
		}
		return Arith(op, a, b)
	}}
}

// axpy is the affine form x + m·y of two affine forms.
func axpy(x Compiled, m int, y Compiled) Compiled {
	coef := make([]int, max(len(x.Coef), len(y.Coef)))
	copy(coef, x.Coef)
	for k, v := range y.Coef {
		coef[k] += m * v
	}
	return Compiled{C: x.C + m*y.C, Coef: coef}
}

// Arith applies op to two constants: division and MOD by zero are its
// errors.
func Arith(op BinOp, a, b int) (int, error) {
	switch op {
	case OpAdd:
		return a + b, nil
	case OpSub:
		return a - b, nil
	case OpMul:
		return a * b, nil
	case opMin:
		return min(a, b), nil
	case opMax:
		return max(a, b), nil
	}
	switch {
	case b == 0 && op == OpDiv:
		return 0, errors.New("division by zero")
	case b == 0:
		return 0, errors.New("MOD by zero")
	case op == OpDiv:
		return a / b, nil
	}
	return a % b, nil
}
