package core

import (
	"errors"
	"fmt"
	"testing"

	"hpfnt/internal/align"
	"hpfnt/internal/dist"
	"hpfnt/internal/expr"
	"hpfnt/internal/index"
	"hpfnt/internal/proc"
)

// verifyTiles checks the OwnerTiles contract against the per-element
// oracle: the tiles exactly partition region and every element of a
// tile has precisely the tile's owner.
func verifyTiles(t *testing.T, label string, m ElementMapping, region index.Domain) {
	t.Helper()
	tiles, err := OwnerTiles(m, region)
	if err != nil {
		t.Fatalf("%s: OwnerTiles(%s): %v", label, region, err)
	}
	covered := map[string]bool{}
	for _, tl := range tiles {
		tl.Region.ForEach(func(tu index.Tuple) bool {
			key := tu.String()
			if covered[key] {
				t.Fatalf("%s: element %s covered by two tiles", label, tu)
			}
			covered[key] = true
			if !region.Contains(tu) {
				t.Fatalf("%s: tile element %s outside region %s", label, tu, region)
			}
			os, err := m.AppendOwners(nil, tu)
			if err != nil {
				t.Fatalf("%s: AppendOwners(%s): %v", label, tu, err)
			}
			if len(os) != 1 || os[0] != tl.Proc {
				t.Fatalf("%s: tile says %s owned by %d, oracle says %v", label, tu, tl.Proc, os)
			}
			return true
		})
	}
	if len(covered) != region.Size() {
		t.Fatalf("%s: tiles cover %d of %d elements of %s", label, len(covered), region.Size(), region)
	}
}

func mustDist(t *testing.T, dom index.Domain, fs []dist.Format, tg proc.Target) DistMapping {
	t.Helper()
	d, err := dist.New(dom, fs, tg)
	if err != nil {
		t.Fatal(err)
	}
	return DistMapping{D: d}
}

// TestOwnerTilesDifferential crosses every format family, alignment
// shape and section form against the per-element oracle, over the
// full domain and interior/edge subregions.
func TestOwnerTilesDifferential(t *testing.T) {
	sys, err := proc.NewSystem(12)
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := sys.DeclareArray("P1", index.Standard(1, 4))
	p2, _ := sys.DeclareArray("P2", index.Standard(1, 3, 1, 4))
	sect, err := proc.SectionOf(p1, index.Triplet{Low: 1, High: 3, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	owner := make([]int, 23)
	for i := range owner {
		owner[i] = (i*i)%4 + 1
	}
	ind, err := dist.NewIndirect(owner)
	if err != nil {
		t.Fatal(err)
	}

	dom1 := index.Standard(1, 23)
	dom1b := index.Standard(-3, 19) // non-1 lower bound, same extent
	dom2 := index.Standard(1, 10, 1, 9)

	cases := []struct {
		label string
		m     ElementMapping
	}{
		{"block", mustDist(t, dom1, []dist.Format{dist.Block{}}, proc.Whole(p1))},
		{"vienna", mustDist(t, dom1, []dist.Format{dist.BlockVienna{}}, proc.Whole(p1))},
		{"cyclic1", mustDist(t, dom1, []dist.Format{dist.Cyclic{K: 1}}, proc.Whole(p1))},
		{"cyclic3", mustDist(t, dom1, []dist.Format{dist.Cyclic{K: 3}}, proc.Whole(p1))},
		{"gblock", mustDist(t, dom1, []dist.Format{dist.GeneralBlock{Bounds: []int{5, 5, 17}}}, proc.Whole(p1))},
		{"indirect", mustDist(t, dom1, []dist.Format{ind}, proc.Whole(p1))},
		{"offsetlow", mustDist(t, dom1b, []dist.Format{dist.Block{}}, proc.Whole(p1))},
		{"section-target", mustDist(t, dom1, []dist.Format{dist.Cyclic{K: 2}}, sect)},
		{"2d-block-collapsed", mustDist(t, dom2, []dist.Format{dist.Block{}, dist.Collapsed{}}, proc.Whole(p1))},
		{"2d-cyclic-block", mustDist(t, dom2, []dist.Format{dist.Cyclic{K: 2}, dist.Block{}}, proc.Whole(p2))},
	}

	// Alignments onto a blocked base: identity, stride/offset, negative
	// stride, collapsed axis, dummyless subscript.
	base := mustDist(t, index.Standard(1, 48), []dist.Format{dist.Cyclic{K: 5}}, proc.Whole(p1))
	alignee := index.Standard(1, 23)
	mkAlign := func(label string, sub expr.Expr) struct {
		label string
		m     ElementMapping
	} {
		spec := align.Spec{
			Alignee: "A", Axes: []align.Axis{align.DummyAxis("I")},
			Base: "B", Subs: []align.Subscript{align.ExprSub(sub)},
		}
		fn, err := align.Normalize(spec, alignee, base.Domain(), nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return struct {
			label string
			m     ElementMapping
		}{label, Construct(fn, base)}
	}
	cases = append(cases,
		mkAlign("align-identity", expr.Dummy("I")),
		mkAlign("align-stride2", expr.Affine(2, "I", -1)),
		mkAlign("align-offset", expr.Affine(1, "I", 7)),
		mkAlign("align-reverse", expr.Affine(-1, "I", 24)),
		mkAlign("align-clamped", expr.Affine(3, "I", -10)), // leaves base bounds: clamp fallback
		mkAlign("align-minmax", expr.Max(expr.Dummy("I"), expr.Const(5))),
	)

	// A rank-2 alignment with a collapsed axis and a dummyless
	// subscript.
	base2 := mustDist(t, index.Standard(1, 12, 1, 12), []dist.Format{dist.Block{}, dist.Cyclic{K: 2}}, proc.Whole(p2))
	spec2 := align.Spec{
		Alignee: "A", Axes: []align.Axis{align.DummyAxis("I"), align.Star()},
		Base: "B", Subs: []align.Subscript{align.ExprSub(expr.Dummy("I")), align.ExprSub(expr.Const(4))},
	}
	fn2, err := align.Normalize(spec2, index.Standard(1, 12, 1, 5), index.Standard(1, 12, 1, 12), nil)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, struct {
		label string
		m     ElementMapping
	}{"align-2d-collapse", Construct(fn2, base2)})

	// Inherited sections of a 2-D distribution: unit and non-unit
	// strides (the latter exercises the enumeration fallback).
	actual := mustDist(t, index.Standard(1, 10, 1, 9), []dist.Format{dist.Block{}, dist.Cyclic{K: 2}}, proc.Whole(p2))
	s1, err := actual.Domain().Section(index.Unit(2, 8), index.Unit(3, 9))
	if err != nil {
		t.Fatal(err)
	}
	sm1, err := NewSectionMapping(s1, actual)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := actual.Domain().Section(index.Triplet{Low: 1, High: 9, Stride: 2}, index.Unit(1, 9))
	if err != nil {
		t.Fatal(err)
	}
	sm2, err := NewSectionMapping(s2, actual)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		struct {
			label string
			m     ElementMapping
		}{"section-unit", sm1},
		struct {
			label string
			m     ElementMapping
		}{"section-strided", sm2},
	)

	for _, c := range cases {
		t.Run(c.label, func(t *testing.T) {
			dom := c.m.Domain()
			verifyTiles(t, c.label, c.m, dom)
			// Interior subregion.
			if dom.Rank() >= 1 && dom.Extent(0) > 4 {
				dims := make([]index.Triplet, dom.Rank())
				copy(dims, dom.Dims)
				dims[0] = index.Unit(dom.Lower(0)+1, dom.Dims[0].Last()-2)
				verifyTiles(t, c.label+"/interior", c.m, index.Domain{Dims: dims})
			}
			// Single-element region.
			pt := make([]index.Triplet, dom.Rank())
			for d := range pt {
				pt[d] = index.Unit(dom.Lower(d), dom.Lower(d))
			}
			verifyTiles(t, c.label+"/point", c.m, index.Domain{Dims: pt})
		})
	}
}

// TestOwnerTilesReplicated asserts that multi-owner mappings are
// refused with dist.ErrMultiOwner rather than mis-tiled.
func TestOwnerTilesReplicated(t *testing.T) {
	sys, err := proc.NewSystem(6)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := sys.DeclareArray("P2", index.Standard(1, 2, 1, 3))
	base := mustDist(t, index.Standard(1, 8, 1, 8), []dist.Format{dist.Block{}, dist.Block{}}, proc.Whole(p2))
	spec := align.Spec{
		Alignee: "A", Axes: []align.Axis{align.DummyAxis("I")},
		Base: "B", Subs: []align.Subscript{align.ExprSub(expr.Dummy("I")), align.StarSub()},
	}
	fn, err := align.Normalize(spec, index.Standard(1, 8), base.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}
	repl := Construct(fn, base)
	if _, err := OwnerTiles(repl, repl.Domain()); !errors.Is(err, dist.ErrMultiOwner) {
		t.Fatalf("OwnerTiles of replicating alignment: err = %v, want ErrMultiOwner", err)
	}
	if _, err := OwnerGrid(repl); err == nil {
		t.Fatal("OwnerGrid must refuse replicated mappings")
	}

	// Scalar-target replication through the distribution layer.
	sc, err := sys.DeclareScalar("S", proc.ScalarReplicated)
	if err != nil {
		t.Fatal(err)
	}
	dm := mustDist(t, index.Standard(1, 5), []dist.Format{dist.Collapsed{}}, proc.Whole(sc))
	if _, err := OwnerTiles(dm, dm.Domain()); !errors.Is(err, dist.ErrMultiOwner) {
		t.Fatalf("OwnerTiles of replicated scalar target: err = %v, want ErrMultiOwner", err)
	}
}

// ownersOracle is the set-based reading of each mapping kind's owners:
// the distribution's own Owners, Definition 4's union of the base's
// owners over α(i) for a CONSTRUCT, and the section translation of an
// inherited section. Owners are listed once each, in first-seen order.
func ownersOracle(m ElementMapping, i index.Tuple) ([]int, error) {
	switch m := m.(type) {
	case DistMapping:
		return m.D.Owners(i)
	case *Constructed:
		img, err := m.Alpha.Image(i)
		if err != nil {
			return nil, err
		}
		seen := map[int]bool{}
		var out []int
		for _, j := range img {
			os, err := ownersOracle(m.BaseMap, j)
			if err != nil {
				return nil, err
			}
			for _, p := range os {
				if !seen[p] {
					seen[p] = true
					out = append(out, p)
				}
			}
		}
		return out, nil
	case *SectionMapping:
		if !m.Dummy.Contains(i) {
			return nil, fmt.Errorf("%s not in dummy domain %s", i, m.Dummy)
		}
		at := make(index.Tuple, len(i))
		for d, v := range i {
			at[d] = m.Section.Dims[d].At(v - 1)
		}
		return ownersOracle(m.Actual, at)
	}
	return nil, fmt.Errorf("no owner oracle for %T", m)
}

// TestAppendOwnersMatchesOwners checks AppendOwners against the
// set-based oracle across mapping kinds, a replicating alignment (the
// union's dedupe) included.
func TestAppendOwnersMatchesOwners(t *testing.T) {
	sys, err := proc.NewSystem(8)
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := sys.DeclareArray("P1", index.Standard(1, 4))
	base := mustDist(t, index.Standard(1, 32), []dist.Format{dist.Cyclic{K: 3}}, proc.Whole(p1))
	spec := align.Spec{
		Alignee: "A", Axes: []align.Axis{align.DummyAxis("I")},
		Base: "B", Subs: []align.Subscript{align.ExprSub(expr.Affine(2, "I", 0))},
	}
	fn, err := align.Normalize(spec, index.Standard(1, 16), base.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cons := Construct(fn, base)
	sec, err := base.Domain().Section(index.Triplet{Low: 2, High: 32, Stride: 3})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewSectionMapping(sec, base)
	if err != nil {
		t.Fatal(err)
	}
	// R(I) WITH G(I,*), G (BLOCK,CYCLIC(2)) on a 2x2 grid: each R(i)
	// sees columns 1-2 and 5-6 of G on one processor, 3-4 on another.
	p2, _ := sys.DeclareArray("P2", index.Standard(1, 2, 1, 2))
	grid := mustDist(t, index.Standard(1, 8, 1, 6), []dist.Format{dist.Block{}, dist.Cyclic{K: 2}}, proc.Whole(p2))
	rfn, err := align.Normalize(align.Spec{
		Alignee: "R", Axes: []align.Axis{align.Colon()},
		Base: "G", Subs: []align.Subscript{align.TripletSub(index.Unit(1, 8)), align.StarSub()},
	}, index.Standard(1, 8), grid.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}
	repl := Construct(rfn, grid)
	for _, m := range []ElementMapping{base, cons, sm, repl} {
		buf := make([]int, 0, 8)
		m.Domain().ForEach(func(tu index.Tuple) bool {
			want, err := ownersOracle(m, tu)
			if err != nil {
				t.Fatalf("%s: oracle(%s): %v", m.Describe(), tu, err)
			}
			got, err := m.AppendOwners(buf[:0], tu)
			if err != nil {
				t.Fatalf("%s: AppendOwners(%s): %v", m.Describe(), tu, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: AppendOwners(%s) = %v, Owners = %v", m.Describe(), tu, got, want)
			}
			buf = got[:0]
			return true
		})
	}
}
