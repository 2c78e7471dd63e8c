// Package align implements the paper's alignment directives (§5). In
// the pipeline it sits between the directive front end and the
// mapping kernel: parsed ALIGN specs normalize into alignment
// functions that package core composes (CONSTRUCT) with direct
// distributions from package dist to produce element mappings, and
// the affine interval form computed here is what lets the run-length
// ownership kernel transport owner tiles through alignments.
//
// An ALIGN directive
//
//	ALIGN A(s1,...,sn) WITH B(t1,...,tm)
//
// specifies an alignment function α: I^A → P(I^B) − {∅} (Definition
// 3, §2.3). Every alignee axis s_i is ":" (spread), "*" (collapse) or
// an align-dummy; every base subscript t_j is a dummyless expression,
// a dummy-use expression (linear in exactly one align-dummy, possibly
// using MAX/MIN/LBOUND/UBOUND/SIZE), a subscript triplet, or "*"
// (replication).
//
// Normalization follows §5.1 exactly: ":" axes are matched to
// subscript triplets and replaced by fresh dummies with the affine map
// (J − L_i)*ST + LT; "*" axes become dummies used nowhere (collapse);
// "*" base subscripts expand to the full extent of their dimension
// (replication). Evaluation clamps each computed subscript into its
// dimension's bounds (the paper's ŷ = MIN(U_j, y) truncation rule,
// applied symmetrically at the lower bound as well, which is what the
// MAX/MIN intrinsics are admitted for).
//
// Bounds are evaluated when the directive takes effect: Normalize
// compiles every subscript once (expr.Compile), folding LBOUND, UBOUND
// and SIZE to the bounds of that moment, like the specification
// expressions of HPF. A later reallocation of the array they name does
// not move the alignee, and the per-element image and the affine form
// read the same compiled subscripts, so they cannot disagree.
package align

import (
	"fmt"
	"strings"

	"hpfnt/internal/expr"
	"hpfnt/internal/index"
)

// AxisKind discriminates the three alignee axis forms of §5.
type AxisKind int

// The alignee axis forms.
const (
	AxisColon AxisKind = iota // ":" — spread across the matching base triplet
	AxisStar                  // "*" — collapsed: positions make no difference
	AxisDummy                 // a named align-dummy
)

// Axis is one alignee axis.
type Axis struct {
	Kind  AxisKind
	Dummy string // for AxisDummy
}

// Colon returns a ":" axis.
func Colon() Axis { return Axis{Kind: AxisColon} }

// Star returns a "*" axis.
func Star() Axis { return Axis{Kind: AxisStar} }

// DummyAxis returns an align-dummy axis.
func DummyAxis(name string) Axis { return Axis{Kind: AxisDummy, Dummy: name} }

func (a Axis) String() string {
	switch a.Kind {
	case AxisColon:
		return ":"
	case AxisStar:
		return "*"
	default:
		return a.Dummy
	}
}

// SubKind discriminates base subscript forms.
type SubKind int

// The base subscript forms of §5.1.
const (
	SubExpr    SubKind = iota // dummyless-expr or dummy-use-expr
	SubTriplet                // a subscript triplet
	SubStar                   // "*" — replication over the dimension
)

// Subscript is one base subscript.
type Subscript struct {
	Kind    SubKind
	Expr    expr.Expr     // for SubExpr
	Triplet index.Triplet // for SubTriplet
}

// ExprSub wraps an expression subscript.
func ExprSub(e expr.Expr) Subscript { return Subscript{Kind: SubExpr, Expr: e} }

// TripletSub wraps a triplet subscript.
func TripletSub(t index.Triplet) Subscript { return Subscript{Kind: SubTriplet, Triplet: t} }

// StarSub returns the replication subscript.
func StarSub() Subscript { return Subscript{Kind: SubStar} }

func (s Subscript) String() string {
	switch s.Kind {
	case SubExpr:
		return s.Expr.String()
	case SubTriplet:
		return s.Triplet.String()
	default:
		return "*"
	}
}

// Spec is a parsed ALIGN directive before normalization.
type Spec struct {
	Alignee string
	Axes    []Axis
	Base    string
	Subs    []Subscript
}

// String renders the directive body, e.g. "A(:,*) WITH B(2*I-1,*)".
func (s Spec) String() string {
	ax := make([]string, len(s.Axes))
	for i, a := range s.Axes {
		ax[i] = a.String()
	}
	su := make([]string, len(s.Subs))
	for i, t := range s.Subs {
		su[i] = t.String()
	}
	return fmt.Sprintf("%s(%s) WITH %s(%s)", s.Alignee, strings.Join(ax, ","), s.Base, strings.Join(su, ","))
}

// baseMap describes one base dimension of the normalized alignment
// function.
type baseMap struct {
	// replicated marks a base "*" dimension: the alignee element is
	// aligned with every position along this dimension.
	replicated bool
	// k is the compiled subscript, whose slots are the alignee
	// dimensions. It references at most one align-dummy.
	k expr.Compiled
	// dummyDim is the 0-based alignee dimension whose dummy occurs in
	// the subscript, or -1 for dummyless expressions.
	dummyDim int
}

// Function is a normalized alignment function α for an alignee with
// respect to a base (Definition 3). The reduced alignee has the form
// A(J1,...,Jn) with distinct dummies ranging over the alignee's
// dimensions; each base dimension carries either an expression in at
// most one of those dummies, or a replication marker.
type Function struct {
	// Alignee is the alignee's index domain I^A.
	Alignee index.Domain
	// Base is the alignment base's index domain I^B.
	Base index.Domain

	spec Spec
	maps []baseMap
	aff  *AffineMap // affine interval form, nil outside the subset
}

// Normalize applies the §5.1 transformations to a Spec, producing the
// alignment function. aligneeDom and baseDom are the index domains of
// the alignee and the alignment base; bounds resolves the LBOUND/
// UBOUND/SIZE intrinsics, which are read here, once: the bounds an
// alignment uses are those of the moment its directive takes effect,
// and a later reallocation of the array they name does not move it.
func Normalize(s Spec, aligneeDom, baseDom index.Domain, bounds expr.Bounds) (*Function, error) {
	if len(s.Axes) != aligneeDom.Rank() {
		return nil, fmt.Errorf("align: %d alignee axes for rank-%d array %s", len(s.Axes), aligneeDom.Rank(), s.Alignee)
	}
	if len(s.Subs) != baseDom.Rank() {
		return nil, fmt.Errorf("align: %d base subscripts for rank-%d base %s", len(s.Subs), baseDom.Rank(), s.Base)
	}

	// Assign a dummy name to every alignee dimension. Declared
	// dummies keep their names; ":" and "*" axes get fresh internal
	// names (the paper's "new align-dummy J").
	names := make([]string, len(s.Axes))
	dimOfDummy := map[string]int{}
	colonDims := []int{} // alignee dims with ":" axes, in order
	for i, a := range s.Axes {
		switch a.Kind {
		case AxisDummy:
			if a.Dummy == "" {
				return nil, fmt.Errorf("align: empty dummy name in axis %d of %s", i+1, s.Alignee)
			}
			if _, dup := dimOfDummy[a.Dummy]; dup {
				return nil, fmt.Errorf("align: align-dummy %s used for two axes of %s", a.Dummy, s.Alignee)
			}
			names[i] = a.Dummy
			dimOfDummy[a.Dummy] = i
		case AxisColon:
			names[i] = fmt.Sprintf("%%c%d", i+1)
			dimOfDummy[names[i]] = i
			colonDims = append(colonDims, i)
		case AxisStar:
			// Collapse: a fresh dummy that occurs nowhere else.
			names[i] = fmt.Sprintf("%%s%d", i+1)
			dimOfDummy[names[i]] = i
		}
	}

	// Collect triplet subscripts in order; they are matched
	// left-to-right with the ":" axes.
	tripletSubs := []int{}
	for j, t := range s.Subs {
		if t.Kind == SubTriplet {
			tripletSubs = append(tripletSubs, j)
		}
	}
	if len(tripletSubs) != len(colonDims) {
		return nil, fmt.Errorf("align: %s has %d ':' axes but base %s has %d subscript triplets", s.Alignee, len(colonDims), s.Base, len(tripletSubs))
	}

	maps := make([]baseMap, len(s.Subs))
	usedDummy := map[string]int{} // dummy -> base dim already using it
	tIdx := 0
	for j, t := range s.Subs {
		var e expr.Expr
		switch t.Kind {
		case SubStar:
			maps[j] = baseMap{replicated: true, dummyDim: -1}
			continue
		case SubTriplet:
			i := colonDims[tIdx]
			tIdx++
			tr := t.Triplet
			if tr.Stride == 0 {
				return nil, fmt.Errorf("align: zero stride in triplet subscript %d of %s", j+1, s.Base)
			}
			// §5.1 condition: U_i − L_i + 1 <= MAX(INT((UT−LT+ST)/ST), 0).
			if aligneeDom.Extent(i) > tr.Count() {
				return nil, fmt.Errorf("align: axis %d of %s has extent %d exceeding triplet %s (%d positions)", i+1, s.Alignee, aligneeDom.Extent(i), tr, tr.Count())
			}
			// s_i is replaced by new dummy J; t_j by (J − L_i)*ST + LT.
			j0 := expr.Sub(expr.Dummy(names[i]), expr.Const(aligneeDom.Lower(i)))
			e = expr.Add(expr.Mul(j0, expr.Const(tr.Stride)), expr.Const(tr.Low))
			maps[j].dummyDim = i
			usedDummy[names[i]] = j
		case SubExpr:
			if t.Expr == nil {
				return nil, fmt.Errorf("align: nil expression subscript %d of %s", j+1, s.Base)
			}
			e = t.Expr
			ds := expr.Dummies(e)
			switch len(ds) {
			case 0:
				maps[j].dummyDim = -1
			case 1:
				dim, ok := dimOfDummy[ds[0]]
				if !ok {
					return nil, fmt.Errorf("align: subscript %d of %s uses undeclared align-dummy %s", j+1, s.Base, ds[0])
				}
				if s.Axes[dim].Kind != AxisDummy {
					return nil, fmt.Errorf("align: internal dummy %s referenced in subscript", ds[0])
				}
				// "Each J_i may occur in at most one y_j (this
				// excludes the possibility to specify skew
				// alignments)."
				if prev, used := usedDummy[ds[0]]; used {
					return nil, fmt.Errorf("align: align-dummy %s occurs in base subscripts %d and %d (skew alignments are excluded)", ds[0], prev+1, j+1)
				}
				usedDummy[ds[0]] = j
				maps[j].dummyDim = dim
			default:
				return nil, fmt.Errorf("align: subscript %d of %s uses %d align-dummies (%v); at most one is allowed", j+1, s.Base, len(ds), ds)
			}
		}
		k, err := expr.Compile(e, names, bounds)
		if err != nil {
			return nil, fmt.Errorf("align: subscript %d of %s: %w", j+1, s.Base, err)
		}
		maps[j].k = k
	}

	f := &Function{
		Alignee: aligneeDom,
		Base:    baseDom,
		spec:    s,
		maps:    maps,
	}
	f.aff = computeAffine(f)
	return f, nil
}

// Spec returns the originating directive spec.
func (f *Function) Spec() Spec { return f.spec }

// Replicates reports whether any base dimension is replicated.
func (f *Function) Replicates() bool {
	for _, m := range f.maps {
		if m.replicated {
			return true
		}
	}
	return false
}

// ImageSize reports |α(i)|, identical for every i: the product of the
// extents of replicated base dimensions.
func (f *Function) ImageSize() int {
	n := 1
	for j, m := range f.maps {
		if m.replicated {
			n *= f.Base.Extent(j)
		}
	}
	return n
}

// Image computes α(i): the set of base indices the alignee element i
// is aligned with. The result enumerates the cross product over
// replicated dimensions; computed subscripts are clamped into their
// dimension's bounds per §5.1's truncation rule.
func (f *Function) Image(i index.Tuple) ([]index.Tuple, error) {
	if !f.Alignee.Contains(i) {
		return nil, fmt.Errorf("align: %s not in alignee domain %s", i, f.Alignee)
	}
	fixed := make([]int, len(f.maps))
	var repDims []int
	for j, m := range f.maps {
		if m.replicated {
			repDims = append(repDims, j)
			continue
		}
		y, err := m.k.Eval(i)
		if err != nil {
			return nil, fmt.Errorf("align: evaluating subscript %d of %s: %w", j+1, f.spec.Base, err)
		}
		fixed[j] = clamp(y, f.Base.Dims[j])
	}
	if len(repDims) == 0 {
		return []index.Tuple{index.Tuple(fixed).Clone()}, nil
	}
	out := make([]index.Tuple, 0, f.ImageSize())
	var rec func(k int)
	rec = func(k int) {
		if k == len(repDims) {
			out = append(out, index.Tuple(fixed).Clone())
			return
		}
		j := repDims[k]
		tr := f.Base.Dims[j]
		for p := 0; p < tr.Count(); p++ {
			fixed[j] = tr.At(p)
			rec(k + 1)
		}
	}
	rec(0)
	return out, nil
}

// clamp truncates y into the triplet's value range: the paper's
// ŷ = MIN(U_j, y) rule, applied at both ends.
func clamp(y int, tr index.Triplet) int {
	lo, hi := tr.Low, tr.Last()
	if lo > hi {
		lo, hi = hi, lo
	}
	if y < lo {
		return lo
	}
	if y > hi {
		return hi
	}
	return y
}

// String renders the normalized function's originating directive.
func (f *Function) String() string { return "ALIGN " + f.spec.String() }
