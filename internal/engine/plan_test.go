package engine

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/index"
	"hpfnt/internal/machine"
	"hpfnt/internal/proc"
)

// TestPlanMatchesElementwise differentially tests the compiled plan
// that both engine kinds run against the element-wise oracle across
// format families, mixed lhs/rhs distributions and stencil shapes: the
// same values, per-pair traffic, per-processor loads and reference
// counts.
func TestPlanMatchesElementwise(t *testing.T) {
	const np = 4
	sys, err := proc.NewSystem(np)
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := sys.DeclareArray("P1", index.Standard(1, 4))
	p2, _ := sys.DeclareArray("P2", index.Standard(1, 2, 1, 2))

	n := 17
	dom := index.Standard(0, n, 0, n)
	owner := make([]int, n+1)
	for i := range owner {
		owner[i] = (i*3)%4 + 1
	}
	ind, err := dist.NewIndirect(owner)
	if err != nil {
		t.Fatal(err)
	}

	mk := func(f0, f1 dist.Format, tg proc.Target) core.ElementMapping {
		d, err := dist.New(dom, []dist.Format{f0, f1}, tg)
		if err != nil {
			t.Fatal(err)
		}
		return core.DistMapping{D: d}
	}
	maps := map[string]core.ElementMapping{
		"block-collapsed":  mk(dist.Block{}, dist.Collapsed{}, proc.Whole(p1)),
		"vienna-collapsed": mk(dist.BlockVienna{}, dist.Collapsed{}, proc.Whole(p1)),
		"cyclic1-coll":     mk(dist.Cyclic{K: 1}, dist.Collapsed{}, proc.Whole(p1)),
		"cyclic3-coll":     mk(dist.Cyclic{K: 3}, dist.Collapsed{}, proc.Whole(p1)),
		"gblock-coll":      mk(dist.GeneralBlock{Bounds: []int{4, 4, 12}}, dist.Collapsed{}, proc.Whole(p1)),
		"indirect-coll":    mk(ind, dist.Collapsed{}, proc.Whole(p1)),
		"block-block":      mk(dist.Block{}, dist.Block{}, proc.Whole(p2)),
		"cyclic-cyclic":    mk(dist.Cyclic{K: 2}, dist.Cyclic{K: 3}, proc.Whole(p2)),
	}

	interior := index.Standard(1, n-1, 1, n-1)
	stencils := map[string][][]int{
		"jacobi":   {{-1, 0}, {1, 0}, {0, -1}, {0, 1}},
		"center":   {{0, 0}},
		"diagonal": {{-1, -1}, {1, 1}},
	}

	type observed struct {
		data   []float64
		detail machine.Detail
	}
	run := func(t *testing.T, kind string, lm, rm core.ElementMapping, shifts [][]int) observed {
		eng := newBackend(t, kind, InprocTransport, np)
		defer eng.Close()
		lhs, err := eng.NewArray("L", lm)
		if err != nil {
			t.Fatal(err)
		}
		src, err := eng.NewArray("R", rm)
		if err != nil {
			t.Fatal(err)
		}
		src.Fill(func(tu index.Tuple) float64 { return float64(tu[0]*19 - tu[1]*3) })
		terms := make([]Term, len(shifts))
		for i, s := range shifts {
			terms[i] = Read(src, float64(i+1), s...)
		}
		if err := assign(lhs, interior, terms); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		return observed{data: lhs.Data(), detail: eng.Detail()}
	}

	for ln, lm := range maps {
		for rn, rm := range maps {
			for sn, shifts := range stencils {
				label := fmt.Sprintf("%s=%s/%s", ln, rn, sn)
				t.Run(label, func(t *testing.T) {
					want := run(t, oracleKind, lm, rm, shifts)
					// One mapping on both sides: the centre reads stay
					// local, and every row shift crosses an owner boundary.
					if ln == rn && (sn == "center") != (len(want.detail.Traffic) == 0) {
						t.Fatalf("oracle traffic %v for %s", want.detail.Traffic, sn)
					}
					for _, kind := range Kinds() {
						got := run(t, kind, lm, rm, shifts)
						if !slices.EqualFunc(got.data, want.data, sameBits) {
							t.Errorf("%s: values differ from the oracle", kind)
						}
						if !slices.Equal(got.detail.Traffic, want.detail.Traffic) {
							t.Errorf("%s: traffic %v, oracle %v", kind, got.detail.Traffic, want.detail.Traffic)
						}
						if !slices.Equal(got.detail.Load, want.detail.Load) {
							t.Errorf("%s: loads %v, oracle %v", kind, got.detail.Load, want.detail.Load)
						}
						if g, w := got.detail.Report.Logical(), want.detail.Report.Logical(); g != w {
							t.Errorf("%s: report\n %+v\n oracle %+v", kind, g, w)
						}
					}
				})
			}
		}
	}
}

// TestNegatedZeroIsPositiveZero pins the summation's starting value:
// V(1:N) = -1*U(1:N) over a zero U is 0.0 + (-1·+0) = +0 element by
// element in the oracle, and must be +0, not -0, on sim and on spmd
// over every wire — a kernel that starts its sum from the first product
// instead of from 0.0 stores -0 here.
func TestNegatedZeroIsPositiveZero(t *testing.T) {
	const np, n = 2, 16
	sys, err := proc.NewSystem(np)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := sys.DeclareArray("P", index.Standard(1, np))
	dom := index.Standard(1, n)
	for _, f := range []dist.Format{dist.Block{}, dist.Cyclic{K: 1}} {
		d, err := dist.New(dom, []dist.Format{f}, proc.Whole(p))
		if err != nil {
			t.Fatal(err)
		}
		m := core.DistMapping{D: d}
		run := func(kind, wire string) {
			eng := newBackend(t, kind, wire, np)
			defer eng.Close()
			u, err := eng.NewArray("U", m)
			if err != nil {
				t.Fatal(err)
			}
			v, err := eng.NewArray("V", m)
			if err != nil {
				t.Fatal(err)
			}
			v.Fill(func(index.Tuple) float64 { return 7 })
			if err := assign(v, dom, []Term{Read(u, -1, 0)}); err != nil {
				t.Fatal(err)
			}
			for i, x := range v.Data() {
				if math.Float64bits(x) != 0 {
					t.Errorf("%T %s/%s: V(%d) = %g (bits %#x), want +0", f, kind, wire, i+1, x, math.Float64bits(x))
				}
			}
		}
		run(oracleKind, InprocTransport)
		run(Sim, InprocTransport)
		for _, wire := range Transports() {
			run(SPMD, wire)
		}
	}
}
