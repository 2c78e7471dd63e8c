package spmd

import (
	"fmt"
	"slices"
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
		sh.tmp += len(k.tmp)
		sh.ghost += len(wp.ghost)
		sh.retained += 12*cap(k.runs) + 12*cap(k.terms) + 8*cap(k.tmp) + 8*cap(wp.ghost) + 8*(chunk+accSlack)
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
		[]Term{Ref(u, 0.25, -1, 0), Ref(u, 0.25, 1, 0), Ref(u, 0.25, 0, -1), Ref(u, 0.25, 0, 1)}
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
	s, err = e.BuildSchedule(r, index.Standard(K+1, N, K+1, N), []Term{Ref(r, 1, 0, 0), Ref(a, 1.0/16, -1, -1)})
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
	s, err = e.BuildSchedule(h, index.Standard(2, 1023), []Term{Ref(h, 0.5, 0), Ref(h, 0.25, -1), Ref(h, 0.25, 1)})
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
	cts := make([]cterm, len(terms))
	for i, t := range terms {
		cts[i] = cterm{src: t.Src, coeff: t.Coeff, shift: t.Shift}
	}
	b, err := newPlanBuilder(e, lhs, region, cts)
	if err != nil {
		return nil, err
	}
	if err := b.elementLines(region); err != nil {
		return nil, err
	}
	return b.finish(), nil
}

// producerCase is one statement of the producer differential: formats
// per dimension, and for each term which array it reads (0 = the lhs,
// 1.. = sources) and its shift.
type producerCase struct {
	name    string
	formats []dist.Format
	extents []int
	reads   []int
	shifts  [][]int
}

// producerCases spans the format families × ranks 1–3 × the three
// statement kinds, with shifts reaching past a whole block of the
// distributed dimension.
func producerCases(t testing.TB) []producerCase {
	ind, err := dist.NewIndirect([]int{1, 1, 3, 2, 2, 2, 4, 1, 3, 3, 4, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	formats := []struct {
		name string
		f    dist.Format
		k    int // block size of the interleaving, for the long shift
	}{
		{"block", dist.Block{}, 1},
		{"vienna", dist.BlockVienna{}, 1},
		{"cyclic1", dist.Cyclic{K: 1}, 1},
		{"cyclic3", dist.Cyclic{K: 3}, 3},
		{"gblock-empty", dist.GeneralBlock{Bounds: []int{5, 5, 9}}, 1},
		{"indirect", ind, 1},
	}
	var cases []producerCase
	for _, f := range formats {
		for rank := 1; rank <= 3; rank++ {
			// The distributed dimension is the first, except in the
			// "collapsed" variant below.
			fs := []dist.Format{f.f, dist.Collapsed{}, dist.Collapsed{}}[:rank]
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
				producerCase{fmt.Sprintf("%s/rank%d/distinct", f.name, rank), fs, ext, []int{1, 1, 1}, [][]int{far, near, side}},
				producerCase{fmt.Sprintf("%s/rank%d/in-place", f.name, rank), fs, ext, []int{0, 0, 0}, [][]int{zero, back, far}},
				producerCase{fmt.Sprintf("%s/rank%d/two-sources", f.name, rank), fs, ext, []int{1, 2, 1, 2}, [][]int{near, near, far, side}},
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
			producerCase{fmt.Sprintf("collapsed/rank%d/distinct", rank), fs, ext, []int{1, 1}, [][]int{up, down}},
			producerCase{fmt.Sprintf("collapsed/rank%d/in-place", rank), fs, ext, []int{0, 0}, [][]int{up, down}},
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
		arrays[i] = newArray(t, e, fmt.Sprintf("A%d", i), distMapping(t, sys, dom, pc.formats...))
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
		terms = append(terms, Ref(arrays[a], 1/float64(i+2), pc.shifts[i]...))
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
						cts := make([]cterm, len(terms))
						for j, tm := range terms {
							cts[j] = cterm{src: tm.Src, coeff: tm.Coeff, shift: tm.Shift}
						}
						b, berr := newPlanBuilder(e, lhs, region, cts)
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
		if _, err := e.BuildSchedule(b, index.Standard(2, 16), []Term{Ref(a, 1, -1)}); err != nil {
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

// accPoints returns, mod 4096, every address at which a chunk of one of
// k's runs starts reading a term or writing its destination — the
// first two chunks of each run, since later ones repeat their residues.
func accPoints(k *runKernel, ghost []float64) []int {
	T := len(k.coeffs)
	var pts []int
	at := 0
	for r, run := range k.runs {
		for c0 := 0; c0 < min(int(run.n), 2*chunk); c0 += chunk {
			for t, tm := range k.terms[r*T : r*T+T] {
				src := k.srcs[t]
				if tm.ghost {
					src = ghost
				}
				pts = append(pts, addrMod4K(src, int(tm.base)+c0*int(tm.stride)))
			}
			if k.tmp != nil {
				pts = append(pts, addrMod4K(k.tmp, at+c0))
			} else {
				pts = append(pts, addrMod4K(k.lhs, int(run.base)+c0*int(run.stride)))
			}
		}
		at += int(run.n)
	}
	return pts
}

// circDist is the smallest circular distance mod 4096 from a to pts.
func circDist(a int, pts []int) int {
	best := 4096
	for _, p := range pts {
		d := ((a-p)%4096 + 4096) % 4096
		best = min(best, d, 4096-d)
	}
	return best
}

// TestKernelAccumulatorPlacement checks where runKernel's accumulator
// lives, structurally rather than by timing. For the compiled 766²
// Jacobi plan and the halo plan, the accumulator must lie at least 256
// bytes, mod 4096, from every address at which a chunk of a run starts
// reading a term or writing its destination, whenever some start in its
// buffer allows it (4K aliasing: a load matching an earlier store in
// the low 12 address bits waits for it), and the kernel must sum in it.
// The choice is a function of the plan's own addresses, not of the
// workers' stacks: after a Fill whose callback grew every worker's
// stack 10 000 frames deep, placing the same plans again gives the same
// residues, and plans compiled anew meet the same bound.
func TestKernelAccumulatorPlacement(t *testing.T) {
	e := newEngine(t, 2)
	v, interior, terms := jacobi766(t, e)
	u := terms[0].Src
	u.Fill(func(tp index.Tuple) float64 { return float64(tp[0] + tp[1]) })
	sys, _ := proc.NewSystem(2)
	h := newArray(t, e, "H", distMapping(t, sys, index.Standard(1, 1024), dist.Cyclic{K: 1}))
	// kernels compiles both plans and returns their kernels, checking
	// each one's placement.
	type placed struct {
		k     *runKernel
		ghost []float64
	}
	kernels := func() []placed {
		jac, err := e.BuildSchedule(v, interior, terms)
		if err != nil {
			t.Fatal(err)
		}
		halo, err := e.BuildSchedule(h, index.Standard(2, 1023), []Term{Ref(h, 0.5, 0), Ref(h, 0.25, -1), Ref(h, 0.25, 1)})
		if err != nil {
			t.Fatal(err)
		}
		var out []placed
		for i, s := range []*Schedule{jac, halo} {
			for p, wp := range s.plans {
				if wp == nil {
					continue
				}
				k := wp.kernel.(*runKernel)
				if len(k.acc) != chunk {
					t.Fatalf("plan %d worker %d: accumulator of %d values, want %d", i, p, len(k.acc), chunk)
				}
				pts := accPoints(k, wp.ghost)
				got, best := circDist(addrMod4K(k.acc, 0), pts), 0
				for s := 0; s <= accSlack; s++ {
					best = max(best, circDist(addrMod4K(k.acc, s), pts))
				}
				if got < min(256, best) {
					t.Errorf("plan %d worker %d: accumulator %d bytes from a run's source or destination, %d possible", i, p, got, best)
				}
				out = append(out, placed{k, wp.ghost})
			}
		}
		if err := jac.Execute(); err != nil {
			t.Fatal(err)
		}
		for p, wp := range jac.plans[1:] {
			if k := wp.kernel.(*runKernel); !slices.ContainsFunc(k.acc, func(x float64) bool { return x != 0 }) {
				t.Errorf("worker %d computed a Jacobi sweep without touching its accumulator", p+1)
			}
		}
		return out
	}
	before := kernels()
	residues := make([]int, len(before))
	for i, pk := range before {
		residues[i] = addrMod4K(pk.k.acc, 0)
	}

	var deep func(n int) float64
	deep = func(n int) float64 {
		var frame [8]float64
		if n > 0 {
			frame[n%8] = deep(n - 1)
		}
		return frame[(n+1)%8] + 1
	}
	g := newArray(t, e, "G", distMapping(t, sys, index.Standard(1, 2), dist.Block{}))
	g.Fill(func(index.Tuple) float64 { return deep(10_000) })
	if err := e.tr.Err(); err != nil {
		t.Fatal(err)
	}
	for i, pk := range before {
		pk.k.place(pk.ghost)
		if got := addrMod4K(pk.k.acc, 0); got != residues[i] {
			t.Errorf("kernel %d: accumulator residue %d after the workers' stacks grew, %d before", i, got, residues[i])
		}
	}
	kernels()
}
