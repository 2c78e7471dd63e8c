package spmd

import (
	"fmt"
	"math"
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

// opaque hides every optional interface of a mapping — no bulk tiles,
// no owner appender — so it is tiled by core's element enumeration:
// the non-bulk case.
type opaque struct{ core.ElementMapping }

// stripes owns the elements of any domain in pairs of consecutive
// offsets, round-robin: a mapping with nothing but Owners.
type stripes struct {
	dom index.Domain
	np  int
}

func (s stripes) Domain() index.Domain { return s.dom }
func (s stripes) Describe() string     { return "stripes" }
func (s stripes) Owners(i index.Tuple) ([]int, error) {
	off, ok := s.dom.Offset(i)
	if !ok {
		return nil, fmt.Errorf("stripes: %s outside %s", i, s.dom)
	}
	return []int{1 + off/2%s.np}, nil
}

// family is one mapping of the layout and remap differentials.
type family struct {
	name string
	m    core.ElementMapping
	// bulk: single-owner with a closed-form tiling, so a remap between
	// two such mappings has uniform cells.
	bulk bool
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
		{"opaque", opaque{first(dist.Cyclic{K: 2})}, false},
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
	tiles, err := core.AppendOwnerTilesOf(nil, m, dom)
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

// eachLine calls fn for every line of the layout, one at a time.
func eachLine(l *layout, fn func(p, off, slot, n int)) {
	l.lines(0, func(ls []line) {
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
func (patchwork) Owners(i index.Tuple) ([]int, error) {
	switch {
	case i[1] < 3:
		return []int{1}, nil
	case i[0] <= 5:
		return []int{2}, nil
	}
	return []int{3}, nil
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

// TestRemapPatchwork: remaps between (BLOCK,:) and a tiling that is no
// product of cuts — an index with a cell per element, whose uniform
// cells span many index cells — lay out and move every value alike by
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
		next := func(n int) int { // the next input byte, mod n
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b) % n
		}
		sys, _ := proc.NewSystem(np)
		rank, low := 1+next(3), next(7)-3
		var m core.ElementMapping
		if next(4) == 3 { // a family
			fams := families(t, sys, rank, low)
			m = fams[next(len(fams)-1)].m // the last is replicated
		} else {
			// Kinds 0–4 are distributed, 5 collapsed; at least one is
			// distributed. The target's extents follow from how many are:
			// 4, 2×2 or 2×2×1.
			bounds, kinds, distributed := make([]int, 0, 2*rank), make([]int, rank), 0
			for d := range kinds {
				n := 1 + next(9)
				bounds = append(bounds, low, low+n-1)
				if kinds[d] = next(6); kinds[d] < 5 {
					distributed++
				}
			}
			if distributed == 0 {
				kinds[0], distributed = 0, 1
			}
			ext := [][]int{{4}, {2, 2}, {2, 2, 1}}[distributed-1]
			dom, formats, j := index.Standard(bounds...), make([]dist.Format, rank), 0
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
			target, err := sys.DeclareArray("T", index.Standard(pbounds...))
			if err != nil {
				t.Fatal(err)
			}
			dd, err := dist.New(dom, formats, proc.Whole(target))
			if err != nil {
				t.Fatal(err)
			}
			m = core.DistMapping{D: dd}
		}
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
}

// remapBy remaps a to newMap through the chosen enumerator of the remap
// statement's builder, whatever Remap itself would choose: the lines of
// the uniform cells (cells, which the statement must have) or the
// element walk.
func remapBy(t *testing.T, e *Engine, a *Array, newMap core.ElementMapping, cells bool) int {
	t.Helper()
	to, err := buildLayout(e, newMap)
	if err != nil {
		t.Fatal(err)
	}
	b := remapStatement(e, a, newMap, to)
	if cells {
		cuts := b.analyzable(a.dom)
		if cuts == nil {
			t.Fatal("the remap statement has no uniform cells")
		}
		b.tileLines(a.dom, cuts)
	} else if err := b.elementLines(a.dom); err != nil {
		t.Fatal(err)
	}
	moved, err := remapTo(a, newMap, b.finish())
	if err != nil {
		t.Fatal(err)
	}
	return moved
}

// cellsOf reports whether the statement remapping a to m has uniform
// cells: whether the remap is enumerated by cells or walked.
func cellsOf(t *testing.T, e *Engine, a *Array, m core.ElementMapping) bool {
	t.Helper()
	to, err := buildLayout(e, m)
	if err != nil {
		t.Fatal(err)
	}
	return remapStatement(e, a, m, to).analyzable(a.dom) != nil
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
// bit for bit. A pair with a replicated or non-bulk side has no uniform
// cells and must take the element enumerator.
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
						cells := from.bulk && to.bulk
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

// TestRemapEnumeratorChoice pins which enumerator the remap statement
// takes, from what analyzable can observe: cells when both layouts are
// single-owner and bulk, however fine their tiles; the element walk for
// a replicated side or a non-bulk side.
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
		{"BLOCK->non-bulk", block, opaque{distMapping(t, sys, vector, dist.Cyclic{K: 64})}, false},
	} {
		if got := cellsOf(t, e, newArray(t, e, "A", tc.from), tc.to); got != tc.cells {
			t.Errorf("%s: enumerated by cells: %v, want %v", tc.name, got, tc.cells)
		}
	}
}

// TestRemapPlanCost keeps a remap tied to the lines of its cell grid,
// not to its elements: (BLOCK,:) ↔ (CYCLIC(8),:) on 1024² compiles to no
// more kernel runs than the emitter cuts its 128 cells into lines — a
// kept cell into its columns, a moved one into its rows — and to no more
// shipped intervals than the moved cells have rows; and one remap
// allocates at most twice the array — its new segments, the messages in
// flight and the plan. The layout's O(domain) index grids made it four
// times; the element walk allocated nine.
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
		b := remapStatement(e, a, to, lay)
		cuts := b.analyzable(dom)
		lines, rows := 0, 0
		core.ForEachCell(cuts, func(lo, hi []int) {
			was, _ := a.lay.firstOwner(lo[0] - 1 + (lo[1]-1)*n)
			if now, _ := lay.firstOwner(lo[0] - 1 + (lo[1]-1)*n); was == now {
				lines += hi[1] - lo[1] + 1
			} else {
				lines += hi[0] - lo[0] + 1
				rows += hi[0] - lo[0] + 1
			}
		})
		b.tileLines(dom, cuts)
		runs, shipped := 0, 0
		for _, wp := range b.finish().plans {
			if wp == nil {
				continue
			}
			runs += len(wp.kernel.(*runKernel).runs)
			for _, sp := range wp.ex.sends {
				for _, sg := range sp.segs {
					shipped += len(sg.spans)
				}
			}
		}
		if runs == 0 || runs > lines || shipped == 0 || shipped > rows {
			t.Errorf("remap %d: %d kernel runs for %d lines, %d shipped intervals for %d moved rows", i, runs, lines, shipped, rows)
		}
		moved := 0
		bytes, _ := allocated(func() {
			if moved, err = e.Remap(a, to); err != nil {
				t.Fatal(err)
			}
		})
		if moved != n*n/2 {
			t.Errorf("remap %d moves %d elements, want %d", i, moved, n*n/2)
		}
		if bytes > 2*8*n*n {
			t.Errorf("remap %d allocates %d bytes for an array of %d", i, bytes, 8*n*n)
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
	sched, err := e.BuildSchedule(b, index.Standard(2, n, 1, n), []Term{Ref(a, 1, -1, 0)})
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
