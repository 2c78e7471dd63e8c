package spmd

import (
	"fmt"
	"math"
	"math/rand/v2"
	gort "runtime"
	"slices"
	"testing"
	"time"

	"hpfnt/internal/align"
	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/expr"
	"hpfnt/internal/index"
	"hpfnt/internal/machine"
	"hpfnt/internal/obs"
	"hpfnt/internal/proc"
	"hpfnt/internal/runtime"
	"hpfnt/internal/transport"
)

// opaque declines bulk tiles for the mapping it wraps, so it is laid
// out by the counting pass: the non-bulk case.
type opaque struct{ core.ElementMapping }

func (opaque) AppendOwnerTiles([]core.Tile, index.Domain) ([]core.Tile, error) {
	return nil, core.ErrNoBulk
}

// stripes owns the elements of any domain in pairs of consecutive
// offsets, round-robin: a mapping with no bulk tiles.
type stripes struct {
	dom index.Domain
	np  int
}

func (s stripes) Domain() index.Domain { return s.dom }
func (s stripes) Describe() string     { return "stripes" }
func (s stripes) AppendOwners(dst []int, i index.Tuple) ([]int, error) {
	off, ok := s.dom.Offset(i)
	if !ok {
		return nil, fmt.Errorf("stripes: %s outside %s", i, s.dom)
	}
	return append(dst, 1+off/2%s.np), nil
}
func (stripes) AppendOwnerTiles([]core.Tile, index.Domain) ([]core.Tile, error) {
	return nil, core.ErrNoBulk
}

// family is one mapping of the layout and remap differentials.
type family struct {
	name string
	m    core.ElementMapping
	// single: single-owner, so a remap between two such mappings has
	// uniform cells.
	single bool
}

// familyDomain is the differentials' array of the given rank: extents
// 13×6×5, every dimension starting at low.
func familyDomain(rank, low int) index.Domain {
	bounds := make([]int, 0, 2*rank)
	for _, n := range []int{13, 6, 5}[:rank] {
		bounds = append(bounds, low, low+n-1)
	}
	return index.Standard(bounds...)
}

// families returns the mappings of familyDomain(rank, low) over the
// system's processors (at least 4): the format families on the first
// dimension, a collapsed leading dimension, an aligned (composed)
// mapping, a non-bulk one, and a replicated one.
func families(t testing.TB, sys *proc.System, rank, low int) []family {
	t.Helper()
	dom := familyDomain(rank, low)
	ind, err := dist.NewIndirect([]int{1, 1, 3, 2, 2, 2, 4, 1, 3, 3, 4, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	first := func(f dist.Format) core.ElementMapping {
		return distMapping(t, sys, dom, []dist.Format{f, dist.Collapsed{}, dist.Collapsed{}}[:rank]...)
	}
	out := []family{
		{"block", first(dist.Block{}), true},
		{"vienna", first(dist.BlockVienna{}), true},
		{"cyclic1", first(dist.Cyclic{K: 1}), true},
		{"cyclic3", first(dist.Cyclic{K: 3}), true},
		{"gblock-empty", first(dist.GeneralBlock{Bounds: []int{5, 5, 9}}), true},
		{"indirect", first(ind), true},
		{"opaque", opaque{first(dist.Cyclic{K: 2})}, true},
	}
	if rank > 1 {
		out = append(out, family{"collapsed", distMapping(t, sys, dom,
			[]dist.Format{dist.Collapsed{}, dist.Collapsed{}, dist.Block{}}[3-rank:]...), true})
	}

	// A(I,J,K) aligned with B(I+2,J,K), B three rows taller and
	// CYCLIC(3) on them.
	bdims := slices.Clone(dom.Dims)
	bdims[0].High += 3
	base := distMapping(t, sys, index.Domain{Dims: bdims}, []dist.Format{dist.Cyclic{K: 3}, dist.Collapsed{}, dist.Collapsed{}}[:rank]...)
	spec := align.Spec{Alignee: "A", Base: "B"}
	for d, name := range []string{"I", "J", "K"}[:rank] {
		spec.Axes = append(spec.Axes, align.DummyAxis(name))
		var sub expr.Expr = expr.Dummy(name)
		if d == 0 {
			sub = expr.Affine(1, name, 2)
		}
		spec.Subs = append(spec.Subs, align.ExprSub(sub))
	}
	fn, err := align.Normalize(spec, dom, base.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, family{"aligned", core.Construct(fn, base), true})

	rep, ok := sys.Lookup("REP")
	if !ok {
		if rep, err = sys.DeclareScalar("REP", proc.ScalarReplicated); err != nil {
			t.Fatal(err)
		}
	}
	dr, err := dist.New(dom, []dist.Format{dist.Collapsed{}, dist.Collapsed{}, dist.Collapsed{}}[:rank], proc.Whole(rep))
	if err != nil {
		t.Fatal(err)
	}
	return append(out, family{"replicated", core.DistMapping{D: dr}, false})
}

// elementLayout is a single-owner layout as the element fill numbered
// it: the owner and slot of every element, and every worker's offsets
// in slot order.
type elementLayout struct {
	owners, slots []int32
	offsets       [][]int32
}

// oracleLayout is the single-owner layout build as it was before the
// tile index: every element of every tile visited through
// Domain.ForEach and located with Domain.Offset, the grids grown by
// append. It defines the slot order the index must reproduce.
func oracleLayout(e *Engine, m core.ElementMapping) (*elementLayout, error) {
	np := e.np
	dom := m.Domain()
	tiles, err := core.OwnerTiles(m, dom)
	if err != nil {
		return nil, err
	}
	l := &elementLayout{owners: make([]int32, dom.Size()), slots: make([]int32, dom.Size()), offsets: make([][]int32, np+1)}
	var ferr error
	for _, tl := range tiles {
		p := tl.Proc
		if p < 1 || p > np {
			return nil, fmt.Errorf("spmd: mapping owner %d out of range 1..%d", p, np)
		}
		tl.Region.ForEach(func(t index.Tuple) bool {
			off, ok := dom.Offset(t)
			if !ok {
				ferr = fmt.Errorf("spmd: tile index %s outside domain %s", t, dom)
				return false
			}
			l.owners[off] = int32(p)
			l.slots[off] = int32(len(l.offsets[p]))
			l.offsets[p] = append(l.offsets[p], int32(off))
			return true
		})
		if ferr != nil {
			return nil, ferr
		}
	}
	return l, nil
}

// matchesElementFill fails unless the layout places every element as
// the element fill did — owner and slot, one locate at a time and in
// the inspector's grids — holds each worker's slots, and walks each
// worker's elements in ascending offset order, as the oracle's grids
// list them, in runs of consecutive offsets and slots.
func matchesElementFill(t testing.TB, got *layout, want *elementLayout) {
	t.Helper()
	if got.idx == nil {
		t.Fatal("single-owner mapping laid out as replicated")
	}
	for off := range want.owners {
		if p, slot := got.idx.locate(off); p != want.owners[off] || slot != want.slots[off] {
			t.Fatalf("offset %d: owner %d slot %d, want owner %d slot %d", off, p, slot, want.owners[off], want.slots[off])
		}
	}
	if owners, slots := got.idx.grids(); !slices.Equal(owners, want.owners) || !slices.Equal(slots, want.slots) {
		t.Fatalf("grids differ:\n got  %v %v\n want %v %v", owners, slots, want.owners, want.slots)
	}
	walked := make([][]int32, len(want.offsets))
	eachLine(got, func(p, off, slot, n int) {
		for i := range n {
			if want.owners[off+i] != int32(p) || want.slots[off+i] != int32(slot+i) {
				t.Fatalf("line of worker %d at offset %d, slot %d, length %d: offset %d is worker %d's slot %d",
					p, off, slot, n, off+i, want.owners[off+i], want.slots[off+i])
			}
			walked[p] = append(walked[p], int32(off+i))
		}
	})
	for p := 1; p < len(want.offsets); p++ {
		if w := slices.Sorted(slices.Values(want.offsets[p])); !slices.Equal(walked[p], w) {
			t.Fatalf("worker %d lines cover offsets %v, want %v", p, walked[p], w)
		}
		if int(got.idx.vol[p]) != len(want.offsets[p]) {
			t.Fatalf("worker %d: %d slots, want %d", p, got.idx.vol[p], len(want.offsets[p]))
		}
	}
}

// grids materializes the owner and slot of every element by offset,
// from the lines: what the inspector once read, the oracle of the
// index's other walks.
func (x *tileIndex) grids() (owners, slots []int32) {
	size := 1
	for _, c := range x.cuts {
		size *= int(c[len(c)-1])
	}
	owners, slots = make([]int32, size), make([]int32, size)
	x.walk(0, true, func(ls []line) {
		for _, ln := range ls {
			for i := range ln.n {
				owners[ln.off+i], slots[ln.off+i] = ln.p, ln.slot+i
			}
		}
	})
	return owners, slots
}

// eachLine calls fn for every line of the layout, one at a time.
func eachLine(l *layout, fn func(p, off, slot, n int)) {
	l.walk(0, true, func(ls []line) {
		for _, ln := range ls {
			fn(int(ln.p), int(ln.off), int(ln.slot), int(ln.n))
		}
	})
}

// sameLayout fails unless two layouts place every element alike.
func sameLayout(t *testing.T, got, want *layout) {
	t.Helper()
	if (got.idx != nil || want.idx != nil) && !got.idx.equal(want.idx) {
		t.Fatalf("tile indexes differ:\n got  %+v\n want %+v", got.idx, want.idx)
	}
	if !slices.EqualFunc(got.repOwns, want.repOwns, slices.Equal[[]int]) {
		t.Fatalf("replica sets differ")
	}
}

// patchwork owns 10×3 in three tiles that are no product of cuts: the
// first two columns whole, the third in two halves. Cutting at the tile
// boundaries splits the first tile's cells across its rows, so the
// index must fall back to a cell per element.
type patchwork struct{}

func (patchwork) Domain() index.Domain { return index.Standard(1, 10, 1, 3) }
func (patchwork) Describe() string     { return "patchwork" }
func (patchwork) AppendOwners(dst []int, i index.Tuple) ([]int, error) {
	switch {
	case i[1] < 3:
		return append(dst, 1), nil
	case i[0] <= 5:
		return append(dst, 2), nil
	}
	return append(dst, 3), nil
}
func (patchwork) AppendOwnerTiles(dst []core.Tile, region index.Domain) ([]core.Tile, error) {
	if !region.Equal(index.Standard(1, 10, 1, 3)) {
		return nil, core.ErrNoBulk
	}
	return append(dst, core.Tile{Region: index.Standard(1, 10, 1, 2), Proc: 1},
		core.Tile{Region: index.Standard(1, 5, 3, 3), Proc: 2},
		core.Tile{Region: index.Standard(6, 10, 3, 3), Proc: 3}), nil
}

// TestLayoutMatchesElementFill: the tile index places every element
// exactly as the element-wise fill did — owner and slot of every
// element, and every worker's elements in ascending offset order — for
// each single-owner family × ranks 1–3 × unit and non-unit lower
// bounds, strided and rank-0 domains and a tiling that is no product of
// cuts; and it refuses an out-of-range owner with the same words.
func TestLayoutMatchesElementFill(t *testing.T) {
	const np = 4
	e := newEngine(t, np)
	check := func(t *testing.T, m core.ElementMapping) {
		t.Helper()
		got, err := buildLayout(e, m)
		if err != nil {
			t.Fatalf("%s: %v", m.Domain(), err)
		}
		want, err := oracleLayout(e, m)
		if err != nil {
			t.Fatalf("%s: %v", m.Domain(), err)
		}
		matchesElementFill(t, got, want)
		for p := 1; p <= np; p++ {
			if len(got.stores[p].data) != len(want.offsets[p]) {
				t.Fatalf("worker %d: %d values for %d slots", p, len(got.stores[p].data), len(want.offsets[p]))
			}
		}
	}
	for rank := 1; rank <= 3; rank++ {
		for _, low := range []int{1, -3} {
			sys, _ := proc.NewSystem(np)
			for _, f := range families(t, sys, rank, low) {
				if f.name == "replicated" {
					continue
				}
				if _, ok := f.m.(opaque); ok {
					if _, err := f.m.AppendOwnerTiles(nil, f.m.Domain()); err != core.ErrNoBulk {
						t.Fatalf("%s: AppendOwnerTiles: %v, want ErrNoBulk", f.name, err)
					}
				}
				t.Run(fmt.Sprintf("%s/rank%d/low%d", f.name, rank, low), func(t *testing.T) { check(t, f.m) })
			}
		}
	}

	// Distributions take standard domains only; a strided or rank-0 one
	// comes with a mapping of another kind, and its enumerated tiles
	// carry the domain's strides. A GENERAL_BLOCK of equal blocks but a
	// longer last one is located by division, and must clamp there.
	sys, _ := proc.NewSystem(np)
	strided := index.New(index.Triplet{Low: 3, High: 27, Stride: 4}, index.Triplet{Low: 10, High: 2, Stride: -2})
	longLast := distMapping(t, sys, index.Standard(1, 10, 1, 2), dist.GeneralBlock{Bounds: []int{2, 4, 6}}, dist.Collapsed{})
	for _, m := range []core.ElementMapping{stripes{strided, np}, stripes{index.Scalar(), np}, patchwork{}, longLast} {
		check(t, m)
	}
	if x, _ := indexOf(e, patchwork{}); len(x.owner) != 30 {
		t.Errorf("patchwork indexed in %d cells, want one per element", len(x.owner))
	}

	// A mapping over more processors than the engine has workers.
	small := newEngine(t, 2)
	m := families(t, sys, 2, 1)[2].m
	_, gerr := buildLayout(small, m)
	_, werr := oracleLayout(small, m)
	if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
		t.Fatalf("out-of-range owner: got %v, element fill %v", gerr, werr)
	}
}

// TestIndirectLayoutMatchesOracle: the counting pass places every
// element of an INDIRECT vector at the owner and slot the element fill
// gives it, and keeps that as its translation table — random vectors
// at np 1–5, one owner everywhere, strict alternation, a single
// element, and a vector aligned in reverse with one (whose owner tiles
// the element walk coalesces in offset order too); CYCLIC(1) and
// GENERAL_BLOCK with empty blocks, cut at their tiles, place theirs
// alike.
func TestIndirectLayoutMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(45, 1))
	for np := 1; np <= 5; np++ {
		e := newEngine(t, np)
		sys, _ := proc.NewSystem(np)
		check := func(name string, m core.ElementMapping, table bool) {
			t.Helper()
			got, err := buildLayout(e, m)
			if err != nil {
				t.Fatalf("np %d %s: %v", np, name, err)
			}
			want, err := oracleLayout(e, m)
			if err != nil {
				t.Fatalf("np %d %s: %v", np, name, err)
			}
			if got.idx == nil || (got.idx.owners != nil) != table {
				t.Fatalf("np %d %s: index %+v, want a translation table: %v", np, name, got.idx, table)
			}
			matchesElementFill(t, got, want)
		}
		vectors := map[string][]int{"single": {np}}
		for _, n := range []int{2, 13, 64, 1000} {
			random, one, alternating := make([]int, n), make([]int, n), make([]int, n)
			for i := range n {
				random[i], one[i], alternating[i] = rng.IntN(np)+1, np, i%np+1
			}
			vectors[fmt.Sprintf("random-%d", n)] = random
			vectors[fmt.Sprintf("one-owner-%d", n)] = one
			vectors[fmt.Sprintf("alternating-%d", n)] = alternating
		}
		for name, owner := range vectors {
			f, err := dist.NewIndirect(owner)
			if err != nil {
				t.Fatal(err)
			}
			dom := index.Standard(1, len(owner))
			base := distMapping(t, sys, dom, f)
			check(name, base, true)
			spec := align.Spec{Alignee: "A", Axes: []align.Axis{align.DummyAxis("I")}, Base: "X",
				Subs: []align.Subscript{align.ExprSub(expr.Affine(-1, "I", len(owner)+1))}}
			fn, err := align.Normalize(spec, dom, dom, nil)
			if err != nil {
				t.Fatal(err)
			}
			check(name+"-reversed", core.Construct(fn, base), true)
		}
		bounds := make([]int, np-1)
		for k := range bounds {
			bounds[k] = min(13, 5*((k+1)/2)) // 0, 5, 5, 10: empty first and third blocks
		}
		check("cyclic1", distMapping(t, sys, index.Standard(1, 13), dist.Cyclic{K: 1}), false)
		check("gblock-empty", distMapping(t, sys, index.Standard(1, 13), dist.GeneralBlock{Bounds: bounds}), false)
	}
}

// TestRemapPatchwork: remaps between (BLOCK,:) and a tiling that is no
// product of cuts — an index with a cell per element, so the uniform
// cells are single elements — lay out and move every value alike by
// cells and by the element walk.
func TestRemapPatchwork(t *testing.T) {
	const np = 4
	sys, _ := proc.NewSystem(np)
	dom := patchwork{}.Domain()
	block := distMapping(t, sys, dom, dist.Block{}, dist.Collapsed{})
	fill := func(tp index.Tuple) float64 { return float64(tp[0]*10 + tp[1]) }
	for _, cells := range []bool{true, false} {
		e := newEngine(t, np)
		a := newArray(t, e, "A", block)
		a.Fill(fill)
		for _, m := range []core.ElementMapping{patchwork{}, block, patchwork{}} {
			remapBy(t, e, a, m, cells)
			want, err := buildLayout(e, m)
			if err != nil {
				t.Fatal(err)
			}
			sameLayout(t, a.lay, want)
			for off, v := range a.Data() {
				if w := fill(dom.TupleAt(off)); v != w {
					t.Fatalf("cells %v, to %s: offset %d holds %g, want %g", cells, m.Describe(), off, v, w)
				}
			}
		}
	}
}

// fuzzMapping draws a mapping from the fuzzer's bytes, each taken by
// next(n) modulo n: a rank (1–3) and lower bound, then one of the
// single-owner families at that bound, or an extent (1..maxExtent) and
// a format per dimension — BLOCK, Vienna block, CYCLIC(k),
// GENERAL_BLOCK, INDIRECT or collapsed, at least one not collapsed —
// over a processor arrangement of np = 4.
func fuzzMapping(t *testing.T, sys *proc.System, next func(n int) int, maxExtent int) core.ElementMapping {
	rank, low := 1+next(3), next(7)-3
	if next(4) == 3 { // a family
		fams := families(t, sys, rank, low)
		return fams[next(len(fams)-1)].m // the last is replicated
	}
	bounds, kinds := make([]int, 0, 2*rank), make([]int, rank)
	for d := range kinds {
		n := 1 + next(maxExtent)
		bounds = append(bounds, low, low+n-1)
		kinds[d] = next(6)
	}
	return fuzzFormats(t, sys, next, index.Standard(bounds...), kinds)
}

// fuzzFormats distributes dom by a format per dimension, of the given
// kinds: 0–4 are distributed (BLOCK, Vienna block, CYCLIC(k),
// GENERAL_BLOCK, INDIRECT), 5 collapsed, and at least one is
// distributed. The target's extents follow from how many are: 4, 2×2
// or 2×2×1.
func fuzzFormats(t *testing.T, sys *proc.System, next func(n int) int, dom index.Domain, kinds []int) core.ElementMapping {
	distributed := 0
	for _, k := range kinds {
		if k < 5 {
			distributed++
		}
	}
	if distributed == 0 {
		kinds[0], distributed = 0, 1
	}
	ext := [][]int{{4}, {2, 2}, {2, 2, 1}}[distributed-1]
	formats, j := make([]dist.Format, len(kinds)), 0
	for d, k := range kinds {
		if k == 5 {
			formats[d] = dist.Collapsed{}
			continue
		}
		n, q := dom.Dims[d].Count(), ext[j]
		j++
		switch k {
		case 0:
			formats[d] = dist.Block{}
		case 1:
			formats[d] = dist.BlockVienna{}
		case 2:
			formats[d] = dist.Cyclic{K: 1 + next(4)}
		case 3:
			g := make([]int, q-1)
			for i := range g {
				g[i] = next(n + 1)
			}
			slices.Sort(g)
			formats[d] = dist.GeneralBlock{Bounds: g}
		case 4:
			owner := make([]int, n)
			for i := range owner {
				owner[i] = 1 + next(q)
			}
			ind, err := dist.NewIndirect(owner)
			if err != nil {
				t.Fatal(err)
			}
			formats[d] = ind
		}
	}
	pbounds := make([]int, 0, 2*len(ext))
	for _, q := range ext {
		pbounds = append(pbounds, 1, q)
	}
	name := fmt.Sprint("T", distributed)
	target, ok := sys.Lookup(name)
	if !ok {
		var err error
		if target, err = sys.DeclareArray(name, index.Standard(pbounds...)); err != nil {
			t.Fatal(err)
		}
	}
	dd, err := dist.New(dom, formats, proc.Whole(target))
	if err != nil {
		t.Fatal(err)
	}
	return core.DistMapping{D: dd}
}

// fuzzBytes returns next for fuzzMapping: the next input byte, mod n,
// and 0 once the input is used up.
func fuzzBytes(in []byte) func(n int) int {
	return func(n int) int {
		if len(in) == 0 {
			return 0
		}
		b := in[0]
		in = in[1:]
		return int(b) % n
	}
}

// FuzzLayoutIndex: for a drawn rank (1–3), lower bounds, extents and
// a format per dimension — BLOCK, Vienna block, CYCLIC(k),
// GENERAL_BLOCK, INDIRECT or collapsed — or one of the single-owner
// families (the aligned one among them) at a drawn lower bound, the
// tile index places every element as the element fill does, and every
// worker's lines walk its elements in ascending offset order.
func FuzzLayoutIndex(f *testing.F) {
	const np = 4
	e, err := New(np, machine.DefaultCost())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { e.Close() })
	f.Add([]byte{0, 3, 12, 2, 0, 7, 5, 1})
	f.Add([]byte{1, 0, 5, 3, 1, 4, 9, 2, 4, 3, 3, 1, 2, 6})
	f.Add([]byte{2, 2, 8, 4, 2, 1, 3, 5, 6, 0, 2, 7})
	f.Add([]byte{3, 8, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		sys, _ := proc.NewSystem(np)
		m := fuzzMapping(t, sys, fuzzBytes(in), 9)
		got, err := buildLayout(e, m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleLayout(e, m)
		if err != nil {
			t.Fatal(err)
		}
		matchesElementFill(t, got, want)
	})
}

// FuzzCellWalk: over FuzzLayoutIndex's mappings, at extents up to 256
// and 65536 elements,
// the cell walk of every worker and of all of them hands each element
// over exactly once, in a line of its worker whose offsets and slots
// advance together along dimension 0 — the owner and slot locate
// finds.
func FuzzCellWalk(f *testing.F) {
	const np = 4
	e, err := New(np, machine.DefaultCost())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { e.Close() })
	f.Add([]byte{1, 4, 0, 191, 2, 191, 5, 0})                                        // (CYCLIC,:) 192²
	f.Add([]byte{0, 3, 0, 15, 4, 1, 2, 2, 3, 1, 1, 4, 2, 3, 3, 3, 1, 2, 4, 4, 1, 2}) // 1-D INDIRECT
	f.Add([]byte{2, 2, 8, 4, 2, 1, 3, 5, 6, 0, 2, 7})
	f.Add([]byte{3, 8, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		sys, _ := proc.NewSystem(np)
		m := fuzzMapping(t, sys, fuzzBytes(in), 256)
		if m.Domain().Size() > 1<<16 { // a 256³ walk is no test of its odometer
			return
		}
		l, err := buildLayout(e, m)
		if err != nil {
			t.Fatal(err)
		}
		x := l.idx
		n0, size := int32(1), int32(0)
		if len(x.cuts) > 0 {
			n0 = x.cuts[0][len(x.cuts[0])-1]
		}
		for _, v := range x.vol {
			size += v
		}
		for w := 0; w <= np; w++ {
			seen := make([]int, size)
			x.walk(w, false, func(ls []line) {
				for _, ln := range ls {
					if ln.n < 1 || w != 0 && int(ln.p) != w || ln.off%n0+ln.n > n0 {
						t.Fatalf("walk of %d: line %+v", w, ln)
					}
					for i := range ln.n {
						if p, slot := x.locate(int(ln.off + i)); p != ln.p || slot != ln.slot+i {
							t.Fatalf("walk of %d: line %+v holds offset %d at worker %d's slot %d, locate finds %d's %d",
								w, ln, ln.off+i, ln.p, ln.slot+i, p, slot)
						}
						seen[ln.off+i]++
					}
				}
			})
			for off, k := range seen {
				if p, _ := x.locate(off); k != 0 && k != 1 || k == 0 && (w == 0 || int(p) == w) {
					t.Fatalf("walk of %d hands offset %d over %d times", w, off, k)
				}
			}
		}
	})
}

// allocated reports the bytes and objects fn allocates.
func allocated(fn func()) (bytes, objects uint64) {
	var m0, m1 gort.MemStats
	gort.ReadMemStats(&m0)
	fn()
	gort.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs
}

// TestLayoutBuildCost keeps a layout build tied to what it keeps: a
// bounded number of allocations however many tiles the mapping has
// (the element fill made one per tile and regrew three grids); and, on
// the two 1024² layouts the remap benchmark alternates between, an
// index of at most a few KiB beside the value segments, with bytes
// allocated within 10 % of bytes retained. For the 1024-element CYCLIC
// vector that is the halo workloads' whole prologue, it takes no more
// time than the element fill took.
func TestLayoutBuildCost(t *testing.T) {
	const np = 2
	e := newEngine(t, np)
	sys, _ := proc.NewSystem(np)
	square := index.Standard(1, 1024, 1, 1024)
	vector := distMapping(t, sys, index.Standard(1, 1024), dist.Cyclic{K: 1})
	for _, tc := range []struct {
		name string
		m    core.ElementMapping
	}{
		{"block-1024x1024", distMapping(t, sys, square, dist.Block{}, dist.Collapsed{})},
		{"cyclic8-1024x1024", distMapping(t, sys, square, dist.Cyclic{K: 8}, dist.Collapsed{})},
		{"cyclic1-1024-vector", vector},
	} {
		var l *layout
		build := func() {
			var err error
			if l, err = buildLayout(e, tc.m); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(3, build); allocs > 24+np {
			t.Errorf("%s: layout build allocates %.0f times", tc.name, allocs)
		}
		if tc.m == vector {
			continue
		}
		bytes, _ := allocated(build)
		values, idx := 0, 4*(cap(l.idx.owner)+cap(l.idx.base)+cap(l.idx.vol))
		for p := 1; p <= np; p++ {
			values += 8 * cap(l.stores[p].data)
		}
		for _, c := range l.idx.cuts {
			idx += 4 * cap(c)
		}
		if idx > 4<<10 {
			t.Errorf("%s: the index holds %d bytes", tc.name, idx)
		}
		if retained := values + idx; float64(bytes) > 1.1*float64(retained) {
			t.Errorf("%s: layout build allocates %d bytes to retain %d", tc.name, bytes, retained)
		}
	}

	// Fastest of many, both ways, so a descheduled run does not decide;
	// the two calls alternate inside one loop so a speed plateau of the
	// machine falls on both sides alike.
	tiled, walked := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		buildLayout(e, vector)
		t1 := time.Now()
		oracleLayout(e, vector)
		tiled, walked = min(tiled, t1.Sub(t0)), min(walked, time.Since(t1))
	}
	if tiled > walked {
		t.Errorf("CYCLIC 1024-vector layout: tile index %v, element fill %v", tiled, walked)
	}

	// A 2²⁰-element INDIRECT vector of random owners, the format built
	// with the layout: a bounded number of allocations, at most 32 bytes
	// an element beside its values, and faster than the element fill.
	rng, owner := rand.New(rand.NewPCG(45, 2)), make([]int, 1<<20)
	for i := range owner {
		owner[i] = rng.IntN(np) + 1
	}
	var ind core.ElementMapping
	build := func() {
		f, err := dist.NewIndirect(owner)
		if err != nil {
			t.Fatal(err)
		}
		ind = distMapping(t, sys, index.Standard(1, len(owner)), f)
		if _, err := buildLayout(e, ind); err != nil {
			t.Fatal(err)
		}
	}
	gort.GC()
	if allocs := testing.AllocsPerRun(2, build); allocs > 40 {
		t.Errorf("indirect-1M-vector: format and layout allocate %.0f times", allocs)
	}
	gort.GC()
	if bytes, _ := allocated(build); bytes > 40*uint64(len(owner)) {
		t.Errorf("indirect-1M-vector: format and layout allocate %d bytes, %.1f an element beside 8 of values",
			bytes, float64(bytes)/float64(len(owner))-8)
	}
	counted, walked := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		buildLayout(e, ind)
		t1 := time.Now()
		oracleLayout(e, ind)
		counted, walked = min(counted, t1.Sub(t0)), min(walked, time.Since(t1))
	}
	if counted > walked {
		t.Errorf("INDIRECT 2^20-vector layout: counting pass %v, element fill %v", counted, walked)
	}
}

// remapBy remaps a to newMap through the chosen enumerator of the remap
// emitter, whatever Remap itself would choose: the blocks of the uniform
// cells (cells, which the two tilings must have) or the element walk.
func remapBy(t *testing.T, e *Engine, a *Array, newMap core.ElementMapping, cells bool) int {
	t.Helper()
	to, err := buildLayout(e, newMap)
	if err != nil {
		t.Fatal(err)
	}
	b := newRemap(e, a, to)
	if cells {
		cuts := b.cells()
		if cuts == nil {
			t.Fatal("the remap has no uniform cells")
		}
		b.byCells(cuts)
	} else {
		b.byElements()
	}
	moved, err := remapTo(a, newMap, b)
	if err != nil {
		t.Fatal(err)
	}
	return moved
}

// cellsOf reports whether the remap of a to m has uniform cells:
// whether it is enumerated by cells or walked.
func cellsOf(t *testing.T, e *Engine, a *Array, m core.ElementMapping) bool {
	t.Helper()
	to, err := buildLayout(e, m)
	if err != nil {
		t.Fatal(err)
	}
	return newRemap(e, a, to).cells() != nil
}

// segmentBits snapshots every hosted segment of an array, bit for bit.
func segmentBits(a *Array) [][]uint64 {
	out := make([][]uint64, len(a.lay.stores))
	for p, st := range a.lay.stores {
		if st == nil {
			continue
		}
		for _, v := range st.data {
			out[p] = append(out[p], math.Float64bits(v))
		}
	}
	return out
}

// TestRemapTileEnumeratorMatchesElementEnumerator: for every ordered
// pair of mapping families × ranks 1–3 × every wire, a remap planned
// from the uniform cells, one planned by the element walk, Remap itself
// (whichever it picks, and the unchanged-tiling shortcut on the
// diagonal) and the element-wise oracle agree on the elements moved, the
// logical report, the wire frames, every value of every replica and the
// resulting layout; and remapping back restores the original segments
// bit for bit. A pair with a replicated side has no uniform cells and
// must take the element enumerator.
func TestRemapTileEnumeratorMatchesElementEnumerator(t *testing.T) {
	const np = 4
	// Negative zero and a NaN payload do not survive arithmetic; a remap
	// is pure data movement and must carry them.
	nan := math.Float64frombits(0x7ff8000000000abc)
	fill := func(tp index.Tuple) float64 {
		v := 0.0
		for d, x := range tp {
			v = v*31 + float64(x*(d+3))
		}
		switch int(math.Abs(v)) % 7 {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return nan
		}
		return v
	}
	for _, kind := range transport.Kinds() {
		// tiles, elements, Remap
		engines := make([]*Engine, 3)
		for i := range engines {
			tr, err := transport.New(kind, np)
			if err != nil {
				t.Fatal(err)
			}
			if engines[i], err = NewOn(tr, machine.DefaultCost()); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { engines[i].Close() })
		}
		for rank := 1; rank <= 3; rank++ {
			sys, _ := proc.NewSystem(np)
			fams := families(t, sys, rank, 1-rank)
			dom := familyDomain(rank, 1-rank)
			for _, from := range fams {
				for _, to := range fams {
					t.Run(fmt.Sprintf("%s/rank%d/%s->%s", kind, rank, from.name, to.name), func(t *testing.T) {
						cells := from.single && to.single
						oracle, err := runtime.NewArray("A", from.m)
						if err != nil {
							t.Fatal(err)
						}
						mach, _ := machine.New(np, machine.DefaultCost())
						wantMoved, err := runtime.Remap(mach, oracle, to.m)
						if err != nil {
							t.Fatal(err)
						}
						// remap moves engine i's array its own way: by cells
						// where there are any, by element, or as Remap decides.
						remap := func(i int, a *Array, m core.ElementMapping) int {
							if i < 2 {
								return remapBy(t, engines[i], a, m, i == 0 && cells)
							}
							moved, err := engines[i].Remap(a, m)
							if err != nil {
								t.Fatal(err)
							}
							return moved
						}
						arrays := make([]*Array, len(engines))
						before := make([][][]uint64, len(engines))
						for i, e := range engines {
							e.Reset()
							a := newArray(t, e, "A", from.m)
							a.Fill(fill)
							arrays[i], before[i] = a, segmentBits(a)
							if got := cellsOf(t, e, a, to.m); got != cells {
								t.Fatalf("uniform cells: %v, want %v", got, cells)
							}
							moved := remap(i, a, to.m)
							if moved != wantMoved {
								t.Fatalf("engine %d moved %d, oracle %d", i, moved, wantMoved)
							}
							if got, want := e.Stats().Logical(), mach.Stats().Logical(); got != want {
								t.Fatalf("engine %d report\n got  %+v\n want %+v", i, got, want)
							}
							if got, want := e.Machine().WireFrames(), engines[0].Machine().WireFrames(); got != want {
								t.Fatalf("engine %d sent %d frames, engine 0 %d", i, got, want)
							}
							want, err := buildLayout(e, to.m)
							if err != nil {
								t.Fatal(err)
							}
							sameLayout(t, a.lay, want)
							eachLine(a.lay, func(p, off, slot, n int) {
								for k := range n {
									if g, w := math.Float64bits(a.lay.stores[p].data[slot+k]), math.Float64bits(fill(dom.TupleAt(off+k))); g != w {
										t.Fatalf("engine %d worker %d slot %d (offset %d) holds %#x, want %#x", i, p, slot+k, off+k, g, w)
									}
								}
							})
						}
						// There and back.
						for i := range engines {
							remap(i, arrays[i], from.m)
							if after := segmentBits(arrays[i]); !slices.EqualFunc(after, before[i], slices.Equal[[]uint64]) {
								t.Fatalf("engine %d: segments after the round trip differ from the original", i)
							}
						}
					})
				}
			}
		}
	}
}

// TestRemapEnumeratorChoice pins which enumerator a remap takes, from
// what its sides' layouts show: cells when both layouts are
// single-owner, however fine their tiles and whether or not the mapping
// has a bulk tiling; the element walk for a replicated side.
func TestRemapEnumeratorChoice(t *testing.T) {
	const np = 2
	e := newEngine(t, np)
	sys, _ := proc.NewSystem(np)
	square, vector := index.Standard(1, 1024, 1, 1024), index.Standard(1, 1<<12)
	rep, err := sys.DeclareScalar("REP", proc.ScalarReplicated)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := dist.New(vector, []dist.Format{dist.Collapsed{}}, proc.Whole(rep))
	if err != nil {
		t.Fatal(err)
	}
	block := distMapping(t, sys, vector, dist.Block{})
	for _, tc := range []struct {
		name     string
		from, to core.ElementMapping
		cells    bool
	}{
		{"(BLOCK,:)->(CYCLIC(8),:)", distMapping(t, sys, square, dist.Block{}, dist.Collapsed{}),
			distMapping(t, sys, square, dist.Cyclic{K: 8}, dist.Collapsed{}), true},
		{"BLOCK->CYCLIC(8)", block, distMapping(t, sys, vector, dist.Cyclic{K: 8}), true},
		{"BLOCK->CYCLIC(7)", block, distMapping(t, sys, vector, dist.Cyclic{K: 7}), true},
		{"CYCLIC(1)->BLOCK", distMapping(t, sys, vector, dist.Cyclic{K: 1}), block, true},
		{"BLOCK->replicated", block, core.DistMapping{D: dr}, false},
		{"replicated->BLOCK", core.DistMapping{D: dr}, block, false},
		{"BLOCK->non-bulk", block, opaque{distMapping(t, sys, vector, dist.Cyclic{K: 64})}, true},
	} {
		if got := cellsOf(t, e, newArray(t, e, "A", tc.from), tc.to); got != tc.cells {
			t.Errorf("%s: enumerated by cells: %v, want %v", tc.name, got, tc.cells)
		}
	}
}

// TestRemapPlanCost keeps a remap tied to its cells, not to their lines
// or elements: (BLOCK,:) ↔ (CYCLIC(8),:) on 1024² compiles to at most
// one copy block per kept cell and at most one shipped block per moved
// cell, each a span of a row per line; one remap allocates at most
// twice the array — its new segments, the messages in flight and the
// plan — and reserves no ghost buffer: the moved blocks land straight
// in the new segments, so the engine's buffers are what they were.
func TestRemapPlanCost(t *testing.T) {
	const np, n = 2, 1024
	e := newEngine(t, np)
	sys, _ := proc.NewSystem(np)
	dom := index.Standard(1, n, 1, n)
	maps := [2]core.ElementMapping{
		distMapping(t, sys, dom, dist.Block{}, dist.Collapsed{}),
		distMapping(t, sys, dom, dist.Cyclic{K: 8}, dist.Collapsed{}),
	}
	a := newArray(t, e, "A", maps[0])
	for i := 1; i <= 2; i++ {
		to := maps[i%2]
		lay, err := buildLayout(e, to)
		if err != nil {
			t.Fatal(err)
		}
		b := newRemap(e, a, lay)
		cuts := b.cells()
		kept, moved := 0, 0
		forEachCell(cuts, func(lo, hi []int) {
			was, _ := a.lay.firstOwner(lo[0] - 1 + (lo[1]-1)*n)
			if now, _ := lay.firstOwner(lo[0] - 1 + (lo[1]-1)*n); was == now {
				kept++
			} else {
				moved++
			}
		})
		b.byCells(cuts)
		copies, shipped := 0, 0
		for _, k := range b.kept {
			copies += len(k)
		}
		for _, segs := range b.pairs {
			for _, sg := range segs {
				shipped += len(sg.slots)
			}
		}
		if copies == 0 || copies > kept || shipped == 0 || shipped > moved {
			t.Errorf("remap %d: %d copy blocks for %d kept cells, %d shipped blocks for %d moved cells", i, copies, kept, shipped, moved)
		}
		bufs := slices.Clone(e.bufs)
		elems := 0
		bytes, _ := allocated(func() {
			if elems, err = e.Remap(a, to); err != nil {
				t.Fatal(err)
			}
		})
		if elems != n*n/2 {
			t.Errorf("remap %d moves %d elements, want %d", i, elems, n*n/2)
		}
		if bytes > 2*8*n*n {
			t.Errorf("remap %d allocates %d bytes for an array of %d", i, bytes, 8*n*n)
		}
		if !slices.EqualFunc(e.bufs, bufs, func(x, y []float64) bool { return len(x) == len(y) }) {
			t.Errorf("remap %d grew the engine's buffers", i)
		}
	}
}

// TestRemapUnchangedTiling: a remap to a mapping that tiles the array
// as the current one does — here a second, equal distribution object —
// keeps every segment where it is: same backing arrays, same layout, no
// epoch, no frame, nothing charged; only the schedules go stale.
func TestRemapUnchangedTiling(t *testing.T) {
	const np, n = 4, 24
	e := newEngine(t, np)
	sys, _ := proc.NewSystem(np)
	dom := index.Standard(1, n, 1, n)
	a := newArray(t, e, "A", mapping(t, sys, dom, dist.Cyclic{K: 3}))
	b := newArray(t, e, "B", mapping(t, sys, dom, dist.Cyclic{K: 3}))
	a.Fill(func(tp index.Tuple) float64 { return float64(tp[0]*100 + tp[1]) })
	sched, err := e.BuildSchedule(b, index.Standard(2, n, 1, n), []Term{ref(a, 1, -1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Execute(); err != nil {
		t.Fatal(err)
	}
	lay, values := a.lay, a.Data()
	segs := make([]*float64, np+1)
	for p := 1; p <= np; p++ {
		segs[p] = &a.lay.stores[p].data[0]
	}
	report, frames, epoch := e.Stats().Logical(), e.Machine().WireFrames(), obs.CurrentEpoch()

	same := mapping(t, sys, dom, dist.Cyclic{K: 3})
	bytes, _ := allocated(func() {
		moved, err := e.Remap(a, same)
		if err != nil || moved != 0 {
			t.Fatalf("remap to an equal mapping: moved %d, err %v", moved, err)
		}
	})
	if bytes > 8*n*n {
		t.Errorf("remap to an equal mapping allocates %d bytes", bytes)
	}
	if a.lay != lay || a.mapping != same {
		t.Errorf("layout kept: %v, mapping adopted: %v", a.lay == lay, a.mapping == same)
	}
	for p := 1; p <= np; p++ {
		if &a.lay.stores[p].data[0] != segs[p] {
			t.Errorf("worker %d: segment reallocated", p)
		}
	}
	if got := obs.CurrentEpoch(); got != epoch {
		t.Errorf("%d epochs dispatched", got-epoch)
	}
	if got := e.Stats().Logical(); got != report {
		t.Errorf("report changed:\n got  %+v\n want %+v", got, report)
	}
	if got := e.Machine().WireFrames(); got != frames {
		t.Errorf("%d wire frames sent", got-frames)
	}
	if !slices.Equal(a.Data(), values) {
		t.Error("values changed")
	}
	if err := sched.Execute(); err == nil || err.Error() != "spmd: schedule over A invalidated by remap; rebuild it" {
		t.Errorf("stale schedule: %v", err)
	}
}

// TestRemapSpans: a traced remap is one "remap" span from entry to
// return with a "build" span inside it covering the new layout and the
// plan, which ends before the first message of the dispatch leaves; an
// unchanged-tiling remap records both and sends nothing.
func TestRemapSpans(t *testing.T) {
	const np = 2
	e := newEngine(t, np)
	sys, _ := proc.NewSystem(np)
	dom := index.Standard(1, 64, 1, 8)
	a := newArray(t, e, "A", mapping(t, sys, dom, dist.Block{}))
	cyclic := mapping(t, sys, dom, dist.Cyclic{K: 4})
	if _, err := e.Remap(a, mapping(t, sys, dom, dist.Block{})); err != nil { // tracing off
		t.Fatal(err)
	}
	for _, tc := range []struct {
		to    core.ElementMapping
		sends int
	}{{cyclic, 2}, {mapping(t, sys, dom, dist.Cyclic{K: 4}), 0}} {
		rec := obs.StartTrace(0, 64)
		_, err := e.Remap(a, tc.to)
		obs.StopTrace()
		if err != nil {
			t.Fatal(err)
		}
		var remap, build []obs.Event
		sends := 0
		firstSend := int64(math.MaxInt64)
		for _, ev := range rec.Snapshot() {
			switch ev.Kind {
			case "remap":
				remap = append(remap, ev)
			case "build":
				build = append(build, ev)
			case "send":
				sends++
				firstSend = min(firstSend, ev.Start)
			}
		}
		if len(remap) != 1 || len(build) != 1 || remap[0].Name != "remap A" || build[0].Name != "remap A" || remap[0].Rank != 0 || build[0].Rank != 0 {
			t.Fatalf("remap spans %+v, build spans %+v, want one of each named \"remap A\" on the dispatcher", remap, build)
		}
		r, b := remap[0], build[0]
		if b.Start < r.Start || b.Start+b.Dur > r.Start+r.Dur {
			t.Errorf("build [%d,+%d] is not inside remap [%d,+%d]", b.Start, b.Dur, r.Start, r.Dur)
		}
		if sends != tc.sends {
			t.Errorf("%d messages sent, want %d", sends, tc.sends)
		}
		if sends > 0 && (firstSend < b.Start+b.Dur || firstSend > r.Start+r.Dur) {
			t.Errorf("first send at %d: build ends at %d, remap at %d", firstSend, b.Start+b.Dur, r.Start+r.Dur)
		}
	}
}
