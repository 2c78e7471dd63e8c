package spmd

import (
	"fmt"
	"math"
	gort "runtime"
	"slices"
	"strings"
	"testing"

	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/index"
	"hpfnt/internal/machine"
	"hpfnt/internal/obs"
	"hpfnt/internal/proc"
	"hpfnt/internal/transport"
)

// distMapping distributes dom over the system's rank-1 processor array
// P with one format per dimension (exactly one of them not collapsed).
func distMapping(t testing.TB, sys *proc.System, dom index.Domain, formats ...dist.Format) core.ElementMapping {
	t.Helper()
	arr, ok := sys.Lookup("P")
	if !ok {
		var err error
		if arr, err = sys.DeclareArray("P", index.Standard(1, sys.AP.N())); err != nil {
			t.Fatal(err)
		}
	}
	d, err := dist.New(dom, formats, proc.Whole(arr))
	if err != nil {
		t.Fatal(err)
	}
	return core.DistMapping{D: d}
}

func newArray(t testing.TB, e *Engine, name string, m core.ElementMapping) *Array {
	t.Helper()
	a, err := e.NewArray(name, m)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// planShape is what a schedule's plans add up to.
type planShape struct {
	runs, tmp                int // kernel runs; elements evaluated before store
	sendSpans, recvSpans     int // gather / scatter intervals over all pairs
	ghost, retained, workers int // ghost buffer elements; plan bytes; plans
}

func shapeOf(t testing.TB, s *Schedule) planShape {
	t.Helper()
	var sh planShape
	for _, wp := range s.plans {
		if wp == nil {
			continue
		}
		k, ok := wp.kernel.(*runKernel)
		if !ok {
			t.Fatalf("regular schedule carries a %T", wp.kernel)
		}
		sh.workers++
		sh.runs += len(k.runs)
		sh.tmp += wp.tmp
		sh.ghost += wp.ghost
		sh.retained += 12*cap(k.runs) + 12*cap(k.terms)
		for _, sp := range wp.ex.sends {
			for _, sg := range sp.segs {
				sh.sendSpans += len(sg.spans)
				sh.retained += 12 * cap(sg.spans)
			}
		}
		for _, rp := range wp.ex.recvs {
			sh.recvSpans += len(rp.spans)
			sh.retained += 12 * cap(rp.spans)
		}
	}
	return sh
}

// jacobi766 is the bench probe statement: the 5-point Jacobi update of
// the 766² interior of a 768² array distributed (BLOCK,:) over two
// processors.
func jacobi766(t testing.TB, e *Engine) (*Array, index.Domain, []Term) {
	const n = 768
	sys, _ := proc.NewSystem(2)
	dom := index.Standard(1, n, 1, n)
	m := distMapping(t, sys, dom, dist.Block{}, dist.Collapsed{})
	u, v := newArray(t, e, "U", m), newArray(t, e, "V", m)
	return v, index.Standard(2, n-1, 2, n-1),
		[]Term{ref(u, 0.25, -1, 0), ref(u, 0.25, 1, 0), ref(u, 0.25, 0, -1), ref(u, 0.25, 0, 1)}
}

// TestRunPlanShape pins the compiled form of the three statements the
// benchmark is built on: how many runs, ghost intervals and pair
// intervals they compile to, and which of them store directly.
func TestRunPlanShape(t *testing.T) {
	e := newEngine(t, 2)
	sys, _ := proc.NewSystem(2)

	// Jacobi, (BLOCK,:), 766²: a worker's interior is cut by column —
	// its 383-row tile is column-major, so a column is contiguous — and
	// its one boundary row, whose neighbour is remote, is a single run
	// across the columns. That row travels as one strided interval.
	v, interior, terms := jacobi766(t, e)
	s, err := e.BuildSchedule(v, interior, terms)
	if err != nil {
		t.Fatal(err)
	}
	got := shapeOf(t, s)
	want := planShape{runs: 2 * (766 + 1), sendSpans: 2, recvSpans: 2, ghost: 2 * 766, workers: 2}
	want.retained = got.retained
	if got != want {
		t.Errorf("jacobi (BLOCK,:) 766²: shape %+v, want %+v", got, want)
	}
	if sp := s.plans[1].ex.sends[0].segs[0].spans[0]; sp.stride != 384 || sp.count != 766 {
		t.Errorf("jacobi boundary row ships as %+v, want one interval of 766 values 384 slots apart", sp)
	}
	if s.GhostElements() != 2*766 || s.Messages() != 2 {
		t.Errorf("jacobi: %d ghost elements in %d messages, want 1532 in 2", s.GhostElements(), s.Messages())
	}

	// LU step K on (CYCLIC,:), N=192: R(K+1:N,K+1:N) += A(K:N-1,K:N-1)/16.
	// A worker's tiles are its rows, each a run along the columns; row
	// i-1 always belongs to the other worker, so the second term is all
	// ghost: one gathered interval per row, scattered contiguously. The
	// only read of R is the element being written: stored directly.
	const N, K = 192, 10
	lm := distMapping(t, sys, index.Standard(1, N, 1, N), dist.Cyclic{K: 1}, dist.Collapsed{})
	a, r := newArray(t, e, "A", lm), newArray(t, e, "R", lm)
	s, err = e.BuildSchedule(r, index.Standard(K+1, N, K+1, N), []Term{ref(r, 1, 0, 0), ref(a, 1.0/16, -1, -1)})
	if err != nil {
		t.Fatal(err)
	}
	got = shapeOf(t, s)
	rows := N - K
	want = planShape{runs: rows, sendSpans: rows, recvSpans: 2, ghost: rows * rows, workers: 2, retained: got.retained}
	if got != want {
		t.Errorf("lu (CYCLIC,:) N=%d K=%d: shape %+v, want %+v", N, K, got, want)
	}
	for p := 1; p <= 2; p++ {
		k := s.plans[p].kernel.(*runKernel)
		for i, run := range k.runs {
			if tm := k.terms[2*i : 2*i+2]; int(run.n) != rows || run.stride != 1 || tm[0].ghost || !tm[1].ghost {
				t.Fatalf("lu worker %d run %d: %+v %+v, want %d contiguous values, local R, ghost A", p, i, run, tm, rows)
			}
		}
	}

	// halo, CYCLIC, N=1024: in index space every run has length 1, in
	// slot space a worker's elements, its own reads and both ghost
	// streams advance by one: a single run, a single interval each way.
	// The statement reads A(i±1) while writing A(i): tmp is kept.
	hm := distMapping(t, sys, index.Standard(1, 1024), dist.Cyclic{K: 1})
	h := newArray(t, e, "H", hm)
	s, err = e.BuildSchedule(h, index.Standard(2, 1023), []Term{ref(h, 0.5, 0), ref(h, 0.25, -1), ref(h, 0.25, 1)})
	if err != nil {
		t.Fatal(err)
	}
	got = shapeOf(t, s)
	want = planShape{runs: 2, tmp: 1022, sendSpans: 2, recvSpans: 2, ghost: 1024, workers: 2, retained: got.retained}
	if got != want {
		t.Errorf("halo CYCLIC N=1024: shape %+v, want %+v", got, want)
	}
}

// elementSchedule compiles a shift statement through the element
// enumerator whatever the statement looks like — the path compile
// takes for statements without a closed form, and the oracle for the
// tile enumerator.
func elementSchedule(e *Engine, lhs *Array, region index.Domain, terms []Term) (*Schedule, error) {
	b, err := newPlanBuilder(e, lhs, region, terms)
	if err != nil {
		return nil, err
	}
	if err := b.elementLines(region); err != nil {
		return nil, err
	}
	return b.finish(), nil
}

// producerCase is one statement of the producer differential: formats
// per dimension, or the mapping family of that name (remap_test.go's
// families) when family is set, and for each term which array it reads
// (0 = the lhs, 1.. = sources) and its shift.
type producerCase struct {
	name    string
	formats []dist.Format
	family  string
	extents []int
	reads   []int
	shifts  [][]int
}

// producerCases spans the format families, the non-bulk (opaque) and
// the aligned (composed) mapping × ranks 1–3 × the three statement
// kinds, with shifts reaching past a whole block of the distributed
// dimension.
func producerCases(t testing.TB) []producerCase {
	ind, err := dist.NewIndirect([]int{1, 1, 3, 2, 2, 2, 4, 1, 3, 3, 4, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	formats := []struct {
		name string
		f    dist.Format // nil: the family of that name
		k    int         // block size of the interleaving, for the long shift
	}{
		{"block", dist.Block{}, 1},
		{"vienna", dist.BlockVienna{}, 1},
		{"cyclic1", dist.Cyclic{K: 1}, 1},
		{"cyclic3", dist.Cyclic{K: 3}, 3},
		{"gblock-empty", dist.GeneralBlock{Bounds: []int{5, 5, 9}}, 1},
		{"indirect", ind, 1},
		{"opaque", nil, 2},
		{"aligned", nil, 3},
	}
	var cases []producerCase
	for _, f := range formats {
		for rank := 1; rank <= 3; rank++ {
			// The distributed dimension is the first, except in the
			// "collapsed" variant below.
			fs, family := []dist.Format{f.f, dist.Collapsed{}, dist.Collapsed{}}[:rank], ""
			if f.f == nil {
				fs, family = nil, f.name
			}
			ext := []int{13, 6, 5}[:rank]
			far := make([]int, rank)
			far[0] = f.k + 1
			near := make([]int, rank)
			near[0] = -1
			back := make([]int, rank)
			back[0] = -(f.k + 1)
			side := make([]int, rank)
			side[rank-1] = 1
			zero := make([]int, rank)
			cases = append(cases,
				producerCase{fmt.Sprintf("%s/rank%d/distinct", f.name, rank), fs, family, ext, []int{1, 1, 1}, [][]int{far, near, side}},
				producerCase{fmt.Sprintf("%s/rank%d/in-place", f.name, rank), fs, family, ext, []int{0, 0, 0}, [][]int{zero, back, far}},
				producerCase{fmt.Sprintf("%s/rank%d/two-sources", f.name, rank), fs, family, ext, []int{1, 2, 1, 2}, [][]int{near, near, far, side}},
			)
		}
	}
	// A collapsed leading dimension: runs along it are whole columns.
	for rank := 2; rank <= 3; rank++ {
		fs := []dist.Format{dist.Collapsed{}, dist.Collapsed{}, dist.Block{}}[3-rank:]
		ext := []int{6, 5, 13}[3-rank:]
		up := make([]int, rank)
		up[rank-1] = 2
		down := make([]int, rank)
		down[0], down[rank-1] = 1, -1
		cases = append(cases,
			producerCase{fmt.Sprintf("collapsed/rank%d/distinct", rank), fs, "", ext, []int{1, 1}, [][]int{up, down}},
			producerCase{fmt.Sprintf("collapsed/rank%d/in-place", rank), fs, "", ext, []int{0, 0}, [][]int{up, down}},
		)
	}
	return cases
}

// build materializes the case's arrays on e and returns the statement.
func (pc producerCase) build(t testing.TB, e *Engine, sys *proc.System) (lhs *Array, region index.Domain, terms []Term) {
	bounds := make([]int, 0, 2*len(pc.extents))
	for _, n := range pc.extents {
		bounds = append(bounds, 1, n)
	}
	dom := index.Standard(bounds...)
	arrays := make([]*Array, 3)
	for i := range arrays {
		var m core.ElementMapping
		if pc.family == "" {
			m = distMapping(t, sys, dom, pc.formats...)
		} else {
			for _, fam := range families(t, sys, len(pc.extents), 1) {
				if fam.name == pc.family {
					m = fam.m
				}
			}
		}
		arrays[i] = newArray(t, e, fmt.Sprintf("A%d", i), m)
		i := i
		arrays[i].Fill(func(tp index.Tuple) float64 {
			v := float64(i + 1)
			for d, x := range tp {
				v = v*7 + float64(x*(d+2))
			}
			return v
		})
	}
	dims := make([]index.Triplet, len(pc.extents))
	for d, n := range pc.extents {
		lo, hi := 1, n
		for _, sh := range pc.shifts {
			lo, hi = max(lo, 1-sh[d]), min(hi, n-sh[d])
		}
		dims[d] = index.Unit(lo, hi)
	}
	for i, a := range pc.reads {
		terms = append(terms, ref(arrays[a], 1/float64(i+2), pc.shifts[i]...))
	}
	return arrays[0], index.Domain{Dims: dims}, terms
}

// TestTileProducerMatchesElementProducer: the two enumerators of the
// regular producer must compile the same statement to plans that
// compute the same values and charge the same counters, on every wire
// — the element walk is what statements without a closed form take,
// so it doubles as the oracle of the tile intersection.
func TestTileProducerMatchesElementProducer(t *testing.T) {
	const np, iters = 4, 3
	for _, kind := range transport.Kinds() {
		engines := make([]*Engine, 2)
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
		for _, pc := range producerCases(t) {
			t.Run(kind+"/"+pc.name, func(t *testing.T) {
				var scheds [2]*Schedule
				var outs [2]*Array
				for i, e := range engines {
					sys, _ := proc.NewSystem(np)
					lhs, region, terms := pc.build(t, e, sys)
					if region.Empty() {
						t.Fatalf("empty region %s", region)
					}
					var err error
					if i == 0 {
						b, berr := newPlanBuilder(e, lhs, region, terms)
						if berr != nil {
							t.Fatal(berr)
						}
						if b.analyzable(region) == nil {
							t.Fatal("statement did not take the tile enumerator")
						}
						scheds[i], err = e.BuildSchedule(lhs, region, terms)
					} else {
						scheds[i], err = elementSchedule(e, lhs, region, terms)
					}
					if err != nil {
						t.Fatal(err)
					}
					outs[i] = lhs
					e.Reset()
				}
				if scheds[0].GhostElements() != scheds[1].GhostElements() || scheds[0].Messages() != scheds[1].Messages() {
					t.Fatalf("tiles: %d ghosts in %d messages; elements: %d in %d", scheds[0].GhostElements(),
						scheds[0].Messages(), scheds[1].GhostElements(), scheds[1].Messages())
				}
				if scheds[0].Messages() == 0 {
					t.Fatal("statement moves no data")
				}
				for epoch := 1; epoch <= 2; epoch++ {
					for i := range engines {
						if err := scheds[i].ExecuteN(iters); err != nil {
							t.Fatal(err)
						}
					}
					if got, want := engines[0].Stats().Logical(), engines[1].Stats().Logical(); got != want {
						t.Fatalf("epoch %d: report\n tiles    %+v\n elements %+v", epoch, got, want)
					}
					if got, want := engines[0].Machine().WireFrames(), engines[1].Machine().WireFrames(); got != want {
						t.Fatalf("epoch %d: %d wire frames from tiles, %d from elements", epoch, got, want)
					}
					got, want := outs[0].Data(), outs[1].Data()
					for off := range want {
						if got[off] != want[off] {
							t.Fatalf("epoch %d: offset %d is %g from tiles, %g from elements", epoch, off, got[off], want[off])
						}
					}
				}
			})
		}
	}
}

// FuzzStatementCells: for a lhs and a source mapping over one domain —
// fuzzFormats' draws or, over the families' domain, single-owner
// families — and 1–3 terms reading either array, or a vector, through
// a drawn access (a shift, a permutation of the dimensions with
// offsets, or a vector read along one dimension at an offset) over the
// region that keeps every read in bounds, every cell of analyzable's
// grid lies inside one index cell of every side, and the plans from the
// cells and from the element walk ship the same ghosts in the same
// messages, charge the same logical report and compute the same values,
// bit for bit, over two iterations. Only a statement in which two
// terms read one source along the ghost direction through different
// dimensions of it may have no cells.
func FuzzStatementCells(f *testing.F) {
	const np = 4
	engines := make([]*Engine, 2)
	for i := range engines {
		e, err := New(np, machine.DefaultCost())
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(func() { e.Close() })
		engines[i] = e
	}
	f.Add([]byte{1, 3, 1, 8, 8, 0, 5, 2, 5, 2, 1, 0, 4, 3, 0, 6, 3, 1, 2, 4})
	f.Add([]byte{0, 4, 0, 0, 6, 1, 1, 7, 2, 0, 3, 1, 3, 5, 2})
	f.Add([]byte{2, 2, 0, 1, 8, 1, 1, 1, 0, 0, 4, 2, 2, 1, 5, 1, 6, 0, 3, 2, 1})
	f.Add([]byte{1, 0, 1, 5, 3, 4, 2, 3, 1, 2, 1, 2, 2, 2, 4, 0, 1, 3, 3, 4, 1, 2})
	// A matrix statement over (BLOCK,:) and (:,CYCLIC(2)) reading its
	// source transposed and a vector along the second dimension.
	f.Add([]byte{1, 3, 1, 7, 7, 0, 5, 5, 2, 1, 2, 1, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 2, 1, 2})
	// A cube read twice from one source, once with its first and last
	// dimensions swapped: both terms read the ghost direction (the
	// second dimension) through the same source dimension, so cells.
	f.Add([]byte("20010000010000000011"))
	f.Fuzz(func(t *testing.T, in []byte) {
		sys, _ := proc.NewSystem(np)
		next := fuzzBytes(in)
		rank, low := 1+next(3), next(7)-3
		dom, fams := familyDomain(rank, low), []family(nil)
		if next(2) == 0 {
			fams = families(t, sys, rank, low)
			fams = fams[:len(fams)-1] // the last is replicated
		} else {
			bounds := make([]int, 0, 2*rank)
			for range rank {
				bounds = append(bounds, low, low+next(9))
			}
			dom = index.Standard(bounds...)
		}
		draw := func(dom index.Domain) core.ElementMapping {
			if fams != nil && dom.Rank() == rank && next(2) == 0 {
				return fams[next(len(fams))].m
			}
			kinds := make([]int, dom.Rank())
			for d := range kinds {
				kinds[d] = next(6)
			}
			return fuzzFormats(t, sys, next, dom, kinds)
		}
		maps := []core.ElementMapping{draw(dom), draw(dom)}
		reads, accs := make([]int, 1+next(3)), []index.Access{}
		for range reads {
			sh := make([]int, rank)
			for d := range sh {
				sh[d] = next(7) - 3
			}
			accs = append(accs, index.Shift(sh...))
		}
		for i := range reads {
			reads[i] = next(2)
		}
		// Array 2 is a vector as long as dom's longest dimension.
		vlen := 0
		for _, tr := range dom.Dims {
			vlen = max(vlen, tr.Count())
		}
		for k, acc := range accs {
			switch next(3) {
			case 1: // permuted
				for d := range acc {
					e := next(rank)
					acc[d].Dim, acc[e].Dim = acc[e].Dim, acc[d].Dim
				}
			case 2: // a vector along one dimension
				j := next(rank)
				reads[k], accs[k] = 2, index.Access{{Dim: j, Off: acc[j].Off}}
			}
		}
		vdom := index.Standard(low, low+vlen-1)
		if slices.Contains(reads, 2) {
			maps = append(maps, draw(vdom))
		}
		region := slices.Clone(dom.Dims)
		for k, acc := range accs {
			sdom := []index.Domain{dom, dom, vdom}[reads[k]]
			for d, x := range acc {
				lo, hi := sdom.Dims[d].Low-x.Off, sdom.Dims[d].High-x.Off
				region[x.Dim] = index.Unit(max(region[x.Dim].Low, lo), min(region[x.Dim].High, hi))
			}
		}
		if (index.Domain{Dims: region}).Empty() {
			return
		}
		reg := index.Domain{Dims: region}
		var scheds [2]*Schedule
		var lhs [2]*Array
		for i, e := range engines {
			arrays := make([]*Array, len(maps))
			for j, m := range maps {
				arrays[j] = newArray(t, e, fmt.Sprint("A", j), m)
				arrays[j].Fill(func(tp index.Tuple) float64 {
					v := float64(j + 1)
					for d, x := range tp {
						v = v*7 + float64(x*(d+2))
					}
					return v / 3
				})
			}
			terms := make([]Term, len(reads))
			for k, r := range reads {
				terms[k] = Term{Src: arrays[r], Coeff: 1 / float64(k+2), Access: accs[k]}
			}
			lhs[i] = arrays[0]
			if i == 1 {
				var err error
				if scheds[i], err = elementSchedule(e, lhs[i], reg, terms); err != nil {
					t.Fatal(err)
				}
				break
			}
			b, err := newPlanBuilder(e, lhs[i], reg, terms)
			if err != nil {
				t.Fatal(err)
			}
			cuts := b.analyzable(reg)
			if cuts == nil && !splitsGhostDirection(terms, b.gdim) {
				t.Fatalf("statement has no cells (ghost direction %d)", b.gdim)
			} else if cuts == nil {
				return
			}
			forEachCell(cuts, func(lo, hi []int) {
				for _, sd := range b.sides {
					for d, x := range sd.Access {
						c := sd.Src.lay.idx.cuts[d]
						from := int32(lo[x.Dim] + x.Off - sd.Src.dom.Dims[d].Low)
						at, found := slices.BinarySearch(c, from)
						if !found {
							at--
						}
						if int32(hi[x.Dim]-lo[x.Dim])+from >= c[at+1] {
							t.Fatalf("cell %v..%v crosses index cut %d of %s along %d (access %v)", lo, hi, c[at+1], sd.Src.name, d, sd.Access)
						}
					}
				}
			})
			b.tileLines(reg, cuts)
			scheds[i] = b.finish()
		}
		if g0, g1 := scheds[0].GhostElements(), scheds[1].GhostElements(); g0 != g1 || scheds[0].Messages() != scheds[1].Messages() {
			t.Fatalf("cells: %d ghosts in %d messages; elements: %d in %d", g0, scheds[0].Messages(), g1, scheds[1].Messages())
		}
		for i, e := range engines {
			e.Reset()
			if err := scheds[i].ExecuteN(2); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := engines[0].Stats().Logical(), engines[1].Stats().Logical(); got != want {
			t.Fatalf("report\n cells    %+v\n elements %+v", got, want)
		}
		got, want := lhs[0].Data(), lhs[1].Data()
		for off := range want {
			if math.Float64bits(got[off]) != math.Float64bits(want[off]) {
				t.Fatalf("offset %d is %g from cells, %g from elements", off, got[off], want[off])
			}
		}
	})
}

// splitsGhostDirection reports whether two terms read one source along
// statement dimension gdim through different dimensions of it: the
// statements analyzable refuses, whose ghost lines share no grid line.
func splitsGhostDirection(terms []Term, gdim int) bool {
	along := func(acc index.Access) int {
		return slices.IndexFunc(acc, func(x index.Subscript) bool { return x.Dim == gdim })
	}
	for k, tm := range terms {
		for _, o := range terms[:k] {
			if d, e := along(o.Access), along(tm.Access); o.Src == tm.Src && d >= 0 && e >= 0 && d != e {
				return true
			}
		}
	}
	return false
}

// TestShiftRankMismatch: a shift term over a source of another rank
// than the lhs — a vector or a cube read by a matrix statement — is
// refused up front for its access's rank, on the caller's goroutine
// and without a panic.
func TestShiftRankMismatch(t *testing.T) {
	e := newEngine(t, 2)
	sys, _ := proc.NewSystem(2)
	a := newArray(t, e, "A", distMapping(t, sys, index.Standard(1, 8, 1, 8), dist.Block{}, dist.Collapsed{}))
	for _, src := range []*Array{
		newArray(t, e, "V", distMapping(t, sys, index.Standard(1, 8), dist.Block{})),
		newArray(t, e, "C", distMapping(t, sys, index.Standard(1, 8, 1, 8, 1, 2), dist.Block{}, dist.Collapsed{}, dist.Collapsed{})),
	} {
		if _, err := e.BuildSchedule(a, a.dom, []Term{ref(src, 1, 0, 0)}); err == nil || !strings.Contains(err.Error(), "access of rank 2 reads a source of rank") {
			t.Errorf("A = %s: BuildSchedule = %v, want the access's rank refused", src.name, err)
		}
	}
}

// TestScheduleBuildCost keeps the regular producer's cost tied to the
// statement's runs, not its region: the 766² Jacobi statement (586756
// elements, 4 reads each) must compile in a bounded number of
// allocations and retain a plan proportional to its 1534 runs and 2
// ghost intervals. An element walk fails both by orders of magnitude.
func TestScheduleBuildCost(t *testing.T) {
	e := newEngine(t, 2)
	v, interior, terms := jacobi766(t, e)
	var s *Schedule
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		if s, err = e.BuildSchedule(v, interior, terms); err != nil {
			t.Fatal(err)
		}
	})
	sh := shapeOf(t, s)
	units := sh.runs + sh.sendSpans + sh.recvSpans
	if allocs > 400 {
		t.Errorf("building the 766² Jacobi schedule allocates %.0f times", allocs)
	}
	if sh.retained > 96*units {
		t.Errorf("766² Jacobi plan retains %d bytes for %d runs and intervals (%d each)", sh.retained, units, sh.retained/units)
	}
}

// TestMappedTermBuildCost: E(i,j) = D(i,j) + A(i), §5.1's statement
// with a rank-reducing read, over 512² with D and E (:,BLOCK) and A
// BLOCK on two workers, compiles by cells like E = D + D over the same
// arrays, in at most twice its allocations. An element walk makes one
// per element.
func TestMappedTermBuildCost(t *testing.T) {
	const n = 512
	e := newEngine(t, 2)
	sys, _ := proc.NewSystem(2)
	dom := index.Standard(1, n, 1, n)
	m := distMapping(t, sys, dom, dist.Collapsed{}, dist.Block{})
	d, ea := newArray(t, e, "D", m), newArray(t, e, "E", m)
	a := newArray(t, e, "A", distMapping(t, sys, index.Standard(1, n), dist.Block{}))
	mapped := []Term{ref(d, 1, 0, 0), {Src: a, Coeff: 1, Access: index.Access{{Dim: 0}}}}
	b, err := newPlanBuilder(e, ea, dom, mapped)
	if err != nil {
		t.Fatal(err)
	}
	if b.analyzable(dom) == nil {
		t.Fatal("E = D + A(i) has no cells")
	}
	allocs := func(terms []Term) float64 {
		gort.GC()
		return testing.AllocsPerRun(5, func() {
			if _, err := e.BuildSchedule(ea, dom, terms); err != nil {
				t.Fatal(err)
			}
		})
	}
	shifted := allocs([]Term{ref(d, 1, 0, 0), ref(d, 1, 0, 0)})
	if got := allocs(mapped); got > 2*shifted {
		t.Errorf("E = D + A(i) builds in %.0f allocations, E = D + D in %.0f", got, shifted)
	}
}

// TestBuildSpans: with the trace recorder on, each producer records one
// "build" span on the dispatcher lane per schedule it compiles, so a
// traced run shows where compile time went; with it off nothing is
// recorded (and no label is formatted).
func TestBuildSpans(t *testing.T) {
	e := newEngine(t, 2)
	sys, _ := proc.NewSystem(2)
	m := distMapping(t, sys, index.Standard(1, 16), dist.Block{})
	a, b := newArray(t, e, "A", m), newArray(t, e, "B", m)
	build := func() {
		if _, err := e.BuildSchedule(b, index.Standard(2, 16), []Term{ref(a, 1, -1)}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.BuildIrregular(b, a, ringPattern(16)); err != nil {
			t.Fatal(err)
		}
	}
	build() // tracing off
	rec := obs.StartTrace(0, 64)
	build()
	obs.StopTrace()
	var names []string
	for _, ev := range rec.Snapshot() {
		if ev.Kind == "build" && ev.Rank == 0 {
			names = append(names, ev.Name)
		}
	}
	if want := []string{"compile B[2:16]", "inspect B<-A x32"}; !slices.Equal(names, want) {
		t.Errorf("build spans %q, want %q", names, want)
	}
}

// TestRebuildAllocs keeps a rebuild on a warm engine proportional to
// the plan it keeps, not to the data it moves: compiling the LU sweep's
// first statement R(2:N,2:N) = R(2:N,2:N) + A(1:N-1,1:N-1)/16 on
// (CYCLIC,:) over two workers allocates at most 64 KiB at N=192 and at
// most 2.2 times what it does at N=96, in no more objects. The ghost
// buffers it needs are the engine's, grown by the first build.
func TestRebuildAllocs(t *testing.T) {
	rebuild := func(n int) (bytes, objects uint64) {
		e := newEngine(t, 2)
		sys, _ := proc.NewSystem(2)
		m := distMapping(t, sys, index.Standard(1, n, 1, n), dist.Cyclic{K: 1}, dist.Collapsed{})
		a, r := newArray(t, e, "A", m), newArray(t, e, "R", m)
		region, terms := index.Standard(2, n, 2, n), []Term{ref(r, 1, 0, 0), ref(a, 1.0/16, -1, -1)}
		build := func() {
			if _, err := e.BuildSchedule(r, region, terms); err != nil {
				t.Fatal(err)
			}
		}
		build()
		bytes, objects = math.MaxUint64, math.MaxUint64
		for range 5 { // the fewest, so a collection in between does not count
			b, o := allocated(build)
			bytes, objects = min(bytes, b), min(objects, o)
		}
		return bytes, objects
	}
	b96, o96 := rebuild(96)
	b192, o192 := rebuild(192)
	t.Logf("N=96: %d bytes in %d objects; N=192: %d bytes in %d objects", b96, o96, b192, o192)
	if b192 > 64<<10 || float64(b192) > 2.2*float64(b96) {
		t.Errorf("a rebuild allocates %d bytes at N=192, %d at N=96", b192, b96)
	}
	if o192 > o96 {
		t.Errorf("a rebuild allocates %d objects at N=192, %d at N=96", o192, o96)
	}
}
