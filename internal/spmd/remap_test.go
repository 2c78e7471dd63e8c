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
	fn, err := align.Normalize(spec, dom, base.Domain(), expr.Env{})
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

// oracleLayout is the single-owner layout build as it was before the
// tile-wise fill: every element of every tile visited through
// Domain.ForEach and located with Domain.Offset, the grids grown by
// append. It defines the slot order the fill must reproduce.
func oracleLayout(e *Engine, m core.ElementMapping) (*layout, error) {
	np := e.np
	dom := m.Domain()
	l := &layout{stores: make([]*store, np+1)}
	for p := 1; p <= np; p++ {
		l.stores[p] = &store{}
	}
	tiles, err := core.AppendOwnerTilesOf(nil, m, dom)
	if err != nil {
		return nil, err
	}
	l.owners = make([]int32, dom.Size())
	l.slotGrid = make([]int32, dom.Size())
	var ferr error
	for _, tl := range tiles {
		p := tl.Proc
		if p < 1 || p > np {
			return nil, fmt.Errorf("spmd: mapping owner %d out of range 1..%d", p, np)
		}
		st := l.stores[p]
		tl.Region.ForEach(func(t index.Tuple) bool {
			off, ok := dom.Offset(t)
			if !ok {
				ferr = fmt.Errorf("spmd: tile index %s outside domain %s", t, dom)
				return false
			}
			l.owners[off] = int32(p)
			l.slotGrid[off] = int32(len(st.offsets))
			st.offsets = append(st.offsets, int32(off))
			return true
		})
		if ferr != nil {
			return nil, ferr
		}
	}
	return l, nil
}

// sameLayout fails unless two layouts place every element alike.
func sameLayout(t *testing.T, got, want *layout) {
	t.Helper()
	if !slices.Equal(got.owners, want.owners) {
		t.Fatalf("owners differ:\n got  %v\n want %v", got.owners, want.owners)
	}
	if !slices.Equal(got.slotGrid, want.slotGrid) {
		t.Fatalf("slot grids differ:\n got  %v\n want %v", got.slotGrid, want.slotGrid)
	}
	if !slices.EqualFunc(got.repOwns, want.repOwns, slices.Equal[[]int]) {
		t.Fatalf("replica sets differ")
	}
	for p := 1; p < len(want.stores); p++ {
		if !slices.Equal(got.stores[p].offsets, want.stores[p].offsets) {
			t.Fatalf("worker %d offsets differ:\n got  %v\n want %v", p, got.stores[p].offsets, want.stores[p].offsets)
		}
	}
}

// TestLayoutMatchesElementFill: the tile-wise fill numbers every slot
// exactly as the element-wise one did — owners, slot grid and every
// worker's offsets — for each single-owner family × ranks 1–3 × unit
// and non-unit lower bounds, and refuses an out-of-range owner with
// the same words.
func TestLayoutMatchesElementFill(t *testing.T) {
	const np = 4
	e := newEngine(t, np)
	for rank := 1; rank <= 3; rank++ {
		for _, low := range []int{1, -3} {
			sys, _ := proc.NewSystem(np)
			for _, f := range families(t, sys, rank, low) {
				if f.name == "replicated" {
					continue
				}
				t.Run(fmt.Sprintf("%s/rank%d/low%d", f.name, rank, low), func(t *testing.T) {
					got, err := buildLayout(e, f.m)
					if err != nil {
						t.Fatal(err)
					}
					want, err := oracleLayout(e, f.m)
					if err != nil {
						t.Fatal(err)
					}
					sameLayout(t, got, want)
					for p := 1; p <= np; p++ {
						if len(got.stores[p].data) != len(want.stores[p].offsets) {
							t.Fatalf("worker %d: %d values for %d slots", p, len(got.stores[p].data), len(want.stores[p].offsets))
						}
					}
				})
			}
		}
	}

	// Distributions take standard domains only; a strided or rank-0 one
	// comes with a mapping of another kind, and its enumerated tiles
	// carry the domain's strides.
	sys, _ := proc.NewSystem(np)
	strided := index.New(index.Triplet{Low: 3, High: 27, Stride: 4}, index.Triplet{Low: 10, High: 2, Stride: -2})
	for _, m := range []core.ElementMapping{stripes{strided, np}, stripes{index.Scalar(), np}} {
		got, err := buildLayout(e, m)
		if err != nil {
			t.Fatalf("%s: %v", m.Domain(), err)
		}
		want, err := oracleLayout(e, m)
		if err != nil {
			t.Fatalf("%s: %v", m.Domain(), err)
		}
		sameLayout(t, got, want)
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
// (the element fill made one per tile and regrew three grids), bytes
// allocated within 10 % of bytes retained on the two 1024² layouts the
// remap benchmark alternates between, and — for the 1024-element CYCLIC
// vector that is the halo workloads' whole prologue — no more time than
// the element fill took.
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
		retained := 0
		for p := 1; p <= np; p++ {
			retained += 4*cap(l.stores[p].offsets) + 8*cap(l.stores[p].data)
		}
		retained += 4*cap(l.owners) + 4*cap(l.slotGrid)
		if float64(bytes) > 1.1*float64(retained) {
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
		t.Errorf("CYCLIC 1024-vector layout: tile fill %v, element fill %v", tiled, walked)
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
							for p := 1; p <= np; p++ {
								st := a.lay.stores[p]
								for k, off := range st.offsets {
									if g, w := math.Float64bits(st.data[k]), math.Float64bits(fill(dom.TupleAt(int(off)))); g != w {
										t.Fatalf("engine %d worker %d slot %d (offset %d) holds %#x, want %#x", i, p, k, off, g, w)
									}
								}
							}
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
// allocates at most four times the array — its new grids and segments,
// the plan and the messages in flight; the element walk allocated nine
// times.
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
			if off := lo[0] - 1 + (lo[1]-1)*n; a.lay.owners[off] == lay.owners[off] {
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
		if bytes > 4*8*n*n {
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
