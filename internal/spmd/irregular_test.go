package spmd

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	gort "runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/index"
	"hpfnt/internal/inspector"
	"hpfnt/internal/machine"
	"hpfnt/internal/obs"
	"hpfnt/internal/proc"
	"hpfnt/internal/runtime"
	"hpfnt/internal/transport"
)

// engineOn is an engine of np workers on the given wire, closed with
// the test.
func engineOn(t *testing.T, kind string, np int) *Engine {
	t.Helper()
	tr, err := transport.New(kind, np)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewOn(tr, machine.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// indirectFormat distributes 1..n over np workers by a drawn INDIRECT
// owner vector, so an irregular statement's reads are a mix of local
// and remote on every worker.
func indirectFormat(t *testing.T, n, np int) dist.Format {
	t.Helper()
	owner := make([]int, n)
	x := uint32(12345)
	for i := range owner {
		x = x*1664525 + 1013904223
		owner[i] = int(x>>16)%np + 1
	}
	f, err := dist.NewIndirect(owner)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// permutationPattern writes every offset of 0..n-1 once, in a strided
// order, from a strided read; its coefficients include 0.
func permutationPattern(n int) inspector.Pattern {
	var pat inspector.Pattern
	for i := 0; i < n; i++ {
		pat.Writes = append(pat.Writes, int32(i*17%n))
		pat.Reads = append(pat.Reads, int32((i*11+3)%n))
		pat.Coeffs = append(pat.Coeffs, float64(i%5-2))
	}
	return pat
}

// signedFill has negative values and a zero, so a zero coefficient
// makes a -0 product and a negative one a -0 from the zero.
func signedFill(tp index.Tuple) float64 { return float64(tp[0]*7%13 - 6) }

// TestIrregularKernelChoice: BuildIrregular gives a worker the gather
// kernel exactly when the source is not the lhs and no output of the
// worker has two accesses; the in-place permutation X = X(P), a
// pattern with two accesses into one output (only the worker owning
// it keeps the accumulator) and CSR SpMV rows keep accumKernel. On
// every wire each case's values are the element-wise oracle's bit for
// bit and its logical report the oracle's.
func TestIrregularKernelChoice(t *testing.T) {
	const n, np, iters = 40, 4, 3
	sys, _ := proc.NewSystem(np)
	m := mapping(t, sys, index.Standard(1, n), indirectFormat(t, n, np))
	perm := permutationPattern(n)
	twice := permutationPattern(n)
	twice.Writes = append(twice.Writes, twice.Writes[5])
	twice.Reads = append(twice.Reads, 0)
	twice.Coeffs = append(twice.Coeffs, 3)
	var csr inspector.Pattern // row i has 2 + i%3 nonzeros
	for i := 0; i < n; i++ {
		for j := 0; j < 2+i%3; j++ {
			csr.Writes = append(csr.Writes, int32(i))
			csr.Reads = append(csr.Reads, int32((i*13+j*7)%n))
			csr.Coeffs = append(csr.Coeffs, float64(j-1))
		}
	}
	cases := []struct {
		name    string
		inPlace bool
		pat     inspector.Pattern
		gather  bool // the kernel of at least one worker
	}{
		{"gather", false, perm, true},
		{"in-place permutation", true, perm, false},
		{"two accesses into one output", false, twice, false},
		{"CSR SpMV rows", false, csr, false},
	}
	for _, kind := range transport.Kinds() {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/%s", kind, c.name), func(t *testing.T) {
				e := engineOn(t, kind, np)
				x := newTwin(t, e, "X", m, signedFill)
				y := x
				if !c.inPlace {
					y = newTwin(t, e, "Y", m, func(tp index.Tuple) float64 { return float64(-tp[0]) })
				}
				s, err := e.BuildIrregular(y.p, x.p, c.pat)
				if err != nil {
					t.Fatal(err)
				}
				o, err := runtime.BuildIrregular(np, y.r, x.r, c.pat)
				if err != nil {
					t.Fatal(err)
				}
				// A worker may gather when it owns no output written twice.
				writes := make(map[int32]int)
				for _, w := range c.pat.Writes {
					writes[w]++
				}
				owners, _ := y.p.lay.idx.table()
				single := make([]bool, np+1)
				for p := range single {
					single[p] = !c.inPlace
				}
				for w, k := range writes {
					if k > 1 {
						single[owners[w]] = false
					}
				}
				seen := false
				for p, wp := range s.plans {
					if wp == nil {
						continue
					}
					_, gather := wp.kernel.(*gatherKernel)
					if gather != single[p] {
						t.Errorf("worker %d: kernel %T", p, wp.kernel)
					}
					seen = seen || gather == c.gather
				}
				if !seen {
					t.Errorf("no worker takes the %s kernel", map[bool]string{true: "gather", false: "accumulator"}[c.gather])
				}
				mach, _ := machine.New(np, machine.DefaultCost())
				if err := s.ExecuteN(iters); err != nil {
					t.Fatal(err)
				}
				for range iters {
					if err := o.Execute(mach); err != nil {
						t.Fatal(err)
					}
				}
				x.sameValues(t)
				y.sameValues(t)
				if got, want := e.Stats().Logical(), mach.Stats().Logical(); got != want {
					t.Fatalf("report mismatch:\n spmd %+v\n  sim %+v", got, want)
				}
			})
		}
	}
}

// irregularCase is an irregular statement lhs = pat(src); in place,
// the lhs is the source.
type irregularCase struct {
	name    string
	inPlace bool
	pat     inspector.Pattern
}

// irregularCases draws, over n elements, the four statement shapes the
// inspector tells apart: a gather (every output written once), the same
// pattern in place, outputs written several times, and CSR rows of one
// to four nonzeros. Coefficients include 0 and negatives.
func irregularCases(rng *rand.Rand, n int) []irregularCase {
	coeffs := func(k int) []float64 {
		c := make([]float64, k)
		for i := range c {
			c[i] = float64(rng.Intn(7) - 3)
		}
		return c
	}
	var gather, dup, csr inspector.Pattern
	for i, w := range rng.Perm(n) {
		gather.Writes = append(gather.Writes, int32(w))
		gather.Reads = append(gather.Reads, int32(rng.Intn(n)))
		dup.Writes = append(dup.Writes, int32(rng.Intn(n)))
		dup.Reads = append(dup.Reads, int32(rng.Intn(1+i)))
		for range 1 + rng.Intn(4) {
			csr.Writes = append(csr.Writes, int32(i))
			csr.Reads = append(csr.Reads, int32(rng.Intn(n)))
		}
	}
	gather.Coeffs, dup.Coeffs, csr.Coeffs = coeffs(n), coeffs(n), coeffs(len(csr.Writes))
	return []irregularCase{{"gather", false, gather}, {"in place", true, gather}, {"duplicate outputs", false, dup}, {"CSR rows", false, csr}}
}

// lowerSerial is the lowering the inspect epoch replaced, the oracle of
// TestIrregularListsMatchSerial: the serial inspector.Build's schedule,
// in offset space, mapped to local store slots plan by plan and lowered
// pair by pair on one goroutine. It also checks that Build numbers
// every writer's ghost slots in first-need order.
func lowerSerial(t *testing.T, e *Engine, lhs, src *Array, pat inspector.Pattern) *Schedule {
	t.Helper()
	wOwners, wSlots := lhs.lay.idx.table()
	rOwners, rSlots := src.lay.idx.table()
	sched, err := inspector.Build(e.np, wOwners, rOwners, pat)
	if err != nil {
		t.Fatal(err)
	}
	s := &Schedule{plans: make([]*wplan, e.np+1), ghostTotal: sched.GhostElements(), messages: sched.Messages()}
	planOf := func(p int) *wplan {
		if s.plans[p] == nil {
			s.plans[p] = &wplan{kernel: &gatherKernel{}}
		}
		return s.plans[p]
	}
	for p, pl := range sched.Plans {
		if pl == nil {
			continue
		}
		next := int32(0) // the next ghost slot a first need takes
		for _, r := range pl.Reads {
			if g := -r - 1; r < 0 && g >= next {
				if g != next {
					t.Fatalf("worker %d: ghost slot %d needed before slot %d", p, g, next)
				}
				next++
			}
		}
		k := inspector.Plan{NGhost: pl.NGhost, Load: pl.Load, LocalRefs: pl.LocalRefs, RemoteRefs: pl.RemoteRefs}
		lhsData, srcData := lhs.lay.stores[p].data, src.lay.stores[p].data
		wp := planOf(p)
		wp.ghost, wp.load, wp.localRefs, wp.remoteRefs = pl.NGhost, pl.Load, pl.LocalRefs, pl.RemoteRefs
		if lhs != src && len(pl.Outs) == len(pl.Reads) {
			// Every access has an output of its own: access j writes Outs[j].
			k.Local, k.Ghost = make([]inspector.Ref, 0, pl.LocalRefs), make([]inspector.Ref, 0, pl.RemoteRefs)
			for j, r := range pl.Reads {
				if a := (inspector.Ref{Out: wSlots[pl.Outs[j]], C: pl.Coeffs[j]}); r >= 0 {
					a.In = rSlots[r]
					k.Local = append(k.Local, a)
				} else {
					a.In = -r - 1
					k.Ghost = append(k.Ghost, a)
				}
			}
			wp.kernel = &gatherKernel{lhsData, srcData, k}
			continue
		}
		k.Outs, k.WriteIx, k.Reads, k.Coeffs = make([]int32, len(pl.Outs)), pl.WriteIx, make([]int32, len(pl.Reads)), pl.Coeffs
		for i, off := range pl.Outs {
			k.Outs[i] = wSlots[off]
		}
		for j, r := range pl.Reads {
			if k.Reads[j] = r; r >= 0 {
				k.Reads[j] = rSlots[r]
			}
		}
		wp.kernel, wp.tmp = &accumKernel{lhsData, srcData, k}, len(pl.Outs)
	}
	pairs, sg := pairBuilder{}, &segBuild{}
	for _, pr := range sched.Pairs {
		if !slices.IsSorted(pr.Targets) {
			t.Fatalf("pair %d→%d: gather list not in first-need order: %v", pr.Src, pr.Dst, pr.Targets)
		}
		sg.st = src.lay.stores[pr.Src]
		for i, off := range pr.Offsets {
			sg.add(strided(rSlots[off], 0, 1), strided(pr.Targets[i], 0, 1))
		}
		pairs.put(pr.Src, pr.Dst, sg)
	}
	pairs.emit(func(p int) *exchange { return &planOf(p).ex })
	return s
}

// TestIrregularListsMatchSerial: the kernel lists and lowered pairs the
// inspect epoch builds on the workers are exactly those lowered from
// the serial inspector.Build, under the parallel and the sequential
// dispatcher, at np 1..5, for gathers, in-place statements, duplicate
// outputs and CSR rows, over INDIRECT sources and BLOCK or CYCLIC(k)
// lhs arrays (slots that are not offsets).
func TestIrregularListsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for np := 1; np <= 5; np++ {
		sys, _ := proc.NewSystem(np)
		n := 60 + rng.Intn(200)
		owners := make([]int, n)
		for i := range owners {
			owners[i] = 1 + rng.Intn(np)
		}
		f, err := dist.NewIndirect(owners)
		if err != nil {
			t.Fatal(err)
		}
		xm := mapping(t, sys, index.Standard(1, n), f)
		ym := mapping(t, sys, index.Standard(1, n), []dist.Format{dist.Block{}, dist.Cyclic{K: 1 + rng.Intn(3)}}[rng.Intn(2)])
		for _, c := range irregularCases(rng, n) {
			for _, seq := range []bool{false, true} {
				t.Run(fmt.Sprintf("np%d/%s/seq=%v", np, c.name, seq), func(t *testing.T) {
					e := newEngine(t, np)
					e.seq = seq
					x := newArray(t, e, "X", xm)
					y := x
					if !c.inPlace {
						y = newArray(t, e, "Y", ym)
					}
					got, err := e.BuildIrregular(y, x, c.pat)
					if err != nil {
						t.Fatal(err)
					}
					want := lowerSerial(t, e, y, x, c.pat)
					for p := 1; p <= np; p++ {
						if !reflect.DeepEqual(got.plans[p], want.plans[p]) {
							t.Fatalf("worker %d: plan differs from the serial lowering\ngot  %+v\nwant %+v", p, got.plans[p], want.plans[p])
						}
					}
					if got.ghostTotal != want.ghostTotal || got.messages != want.messages {
						t.Fatalf("ghosts %d, messages %d; serial %d, %d", got.ghostTotal, got.messages, want.ghostTotal, want.messages)
					}
				})
			}
		}
	}
}

// TestIrregularBuildAllocs: BuildIrregular allocates a constant plus
// O(np + pairs) objects, whatever the number of accesses, for a gather
// and for a summing statement: the lists are sized before they are
// filled and each worker's scratch comes in one piece.
func TestIrregularBuildAllocs(t *testing.T) {
	const n, np = 100_000, 4
	e := newEngine(t, np)
	sys, _ := proc.NewSystem(np)
	x := newArray(t, e, "X", mapping(t, sys, index.Standard(1, n), indirectFormat(t, n, np)))
	y := newArray(t, e, "Y", mapping(t, sys, index.Standard(1, n), dist.Block{}))
	allocs := func(k, perOut int) float64 {
		rng := rand.New(rand.NewSource(3))
		pat := inspector.Pattern{Writes: make([]int32, k), Reads: make([]int32, k)}
		for i := range k {
			pat.Writes[i], pat.Reads[i] = int32(i/perOut*(n/k)), int32(rng.Intn(n))
		}
		// A collection inside the window would count the sudogs and
		// channel caches it drops as the build's.
		gort.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(3, func() {
			if _, err := e.BuildIrregular(y, x, pat); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, perOut := range []int{1, 3} {
		if small, large := allocs(10_000, perOut), allocs(100_000, perOut); small != large {
			t.Errorf("%d accesses per output: BuildIrregular allocates %.0f times on 10^4 accesses, %.0f on 10^5", perOut, small, large)
		}
	}
}

// TestIrregularBuildBytes bounds what one BuildIrregular allocates: 100k
// random reads of an INDIRECT vector into a BLOCK one at np 2, summing
// or not, take at most 52 bytes per access. The gather plan keeps 16,
// pass 1 takes 8 (the bucket order and the output slots), each worker's
// pass 2 a mark per source element (8 at np 2) and a fetch entry per
// access of its bucket (8), and a ghost's pair lists and spans the
// rest, about 4. Span lists grown to a worker's ghost count and then
// copied do not fit.
func TestIrregularBuildBytes(t *testing.T) {
	if bi, _ := debug.ReadBuildInfo(); bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("the race detector's instrumentation allocates besides the build")
	}
	const n, np = 100_000, 2
	e := newEngine(t, np)
	sys, _ := proc.NewSystem(np)
	x := newArray(t, e, "X", mapping(t, sys, index.Standard(1, n), indirectFormat(t, n, np)))
	y := newArray(t, e, "Y", mapping(t, sys, index.Standard(1, n), dist.Block{}))
	for _, perOut := range []int{1, 3} {
		rng := rand.New(rand.NewSource(3))
		pat := inspector.Pattern{Writes: make([]int32, n), Reads: make([]int32, n)}
		for i := range n {
			pat.Writes[i], pat.Reads[i] = int32(i/perOut), int32(rng.Intn(n))
		}
		if _, err := e.BuildIrregular(y, x, pat); err != nil { // fills the translation tables
			t.Fatal(err)
		}
		// A collection inside the window would count what it frees.
		gort.GC()
		gc := debug.SetGCPercent(-1)
		bytes, _ := allocated(func() {
			if _, err := e.BuildIrregular(y, x, pat); err != nil {
				t.Fatal(err)
			}
		})
		debug.SetGCPercent(gc)
		if per := float64(bytes) / n; per > 52 {
			t.Errorf("%d accesses per output: a build allocates %.1f bytes per access", perOut, per)
		}
	}
}

// TestIrregularInspectSpans: a traced irregular build runs its pass 2
// as one inspect epoch with one worker span per hosted writer, on both
// dispatchers, and the spans belong to that epoch.
func TestIrregularInspectSpans(t *testing.T) {
	const n, np = 64, 3
	for _, seq := range []bool{false, true} {
		e := newEngine(t, np)
		e.seq = seq
		sys, _ := proc.NewSystem(np)
		x := newArray(t, e, "X", mapping(t, sys, index.Standard(1, n), indirectFormat(t, n, np)))
		y := newArray(t, e, "Y", mapping(t, sys, index.Standard(1, n), dist.Block{}))
		rec := obs.StartTrace(0, 256)
		_, err := e.BuildIrregular(y, x, permutationPattern(n))
		obs.StopTrace()
		if err != nil {
			t.Fatal(err)
		}
		var epochs []int64
		workers := map[string]int64{}
		for _, ev := range rec.Snapshot() {
			switch ev.Kind {
			case "inspect":
				epochs = append(epochs, ev.Epoch)
			case "worker":
				workers[ev.Name] = ev.Epoch
			}
		}
		if len(epochs) != 1 || len(workers) != np {
			t.Fatalf("seq=%v: %d inspect epochs and worker spans %v, want 1 and one per rank", seq, len(epochs), workers)
		}
		for p := 1; p <= np; p++ {
			if ep, ok := workers[fmt.Sprintf("rank %d inspect", p)]; !ok || ep != epochs[0] {
				t.Errorf("seq=%v: rank %d has no worker span in the inspect epoch %d: %v", seq, p, epochs[0], workers)
			}
		}
	}
}

// irregularRun is the program every process of TestMultiProcessIrregular
// runs: a gather Y = X(P)·c and a summing CSR product X = A·Y over an
// INDIRECT X and a BLOCK Y. It returns the values, the job's report,
// the frames this process put on the machine and on the wire, whether
// the two builds sent any frame, and what each rank's plans ship.
func irregularRun(e *Engine, xm, ym core.ElementMapping, gather, csr inspector.Pattern) (mpResult, []string, int64, error) {
	var out mpResult
	x, err := e.NewArray("X", xm)
	if err != nil {
		return out, nil, 0, err
	}
	y, err := e.NewArray("Y", ym)
	if err != nil {
		return out, nil, 0, err
	}
	x.Fill(func(tu index.Tuple) float64 { return float64(tu[0]*7%13 - 6) })
	y.Fill(func(tu index.Tuple) float64 { return float64(-tu[0]) })
	wire := func() int64 { return e.tr.(transport.WireCounter).Wire().FramesSent }
	before := wire()
	g, err := e.BuildIrregular(y, x, gather)
	if err != nil {
		return out, nil, 0, err
	}
	a, err := e.BuildIrregular(x, y, csr)
	if err != nil {
		return out, nil, 0, err
	}
	if sent := wire() - before; sent != 0 {
		return out, nil, 0, fmt.Errorf("the builds put %d frames on the wire", sent)
	}
	var ships []string
	for _, s := range []*Schedule{g, a} {
		for p, wp := range s.plans {
			if wp == nil {
				continue
			}
			for _, sp := range wp.ex.sends {
				ships = append(ships, fmt.Sprintf("%d→%d %d values %v", p, sp.dst, sp.elems, sp.segs[0].spans))
			}
		}
	}
	if err := g.ExecuteN(3); err != nil {
		return out, nil, 0, err
	}
	if err := a.ExecuteN(2); err != nil {
		return out, nil, 0, err
	}
	out.data = append(x.Data(), y.Data()...)
	out.rep = e.Stats()
	return out, ships, e.Machine().WireFrames(), nil
}

// TestMultiProcessIrregular boots a real 2-process tcp job of 4 ranks
// (both processes inside this test binary) and runs a gather and a
// summing irregular statement. Each process derives the plans of the
// writers its peer hosts without any wire traffic, so every process
// ships exactly what the single-process engine ships, and the job's
// values, report and frames are the single-process engine's.
func TestMultiProcessIrregular(t *testing.T) {
	const n, np, procs = 96, 4, 2
	sys, _ := proc.NewSystem(np)
	xm := mapping(t, sys, index.Standard(1, n), indirectFormat(t, n, np))
	ym := mapping(t, sys, index.Standard(1, n), dist.Block{})
	rng := rand.New(rand.NewSource(5))
	cases := irregularCases(rng, n)
	gather, csr := cases[0].pat, cases[3].pat

	ref, err := New(np, machine.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, wantShips, wantFrames, err := irregularRun(ref, xm, ym, gather, csr)
	if err != nil || len(wantShips) == 0 {
		t.Fatalf("single process: %v, %d sends", err, len(wantShips))
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	got := make([]mpResult, procs)
	ships := make([][]string, procs)
	frames := make([]int64, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for i := range procs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := transport.Join(transport.TCP, transport.Config{
				Job: "spmd-irregular", NP: np, Procs: procs, Self: i, Generation: 1, Addr: addr,
				Timeout: 15 * time.Second,
			})
			if err != nil {
				errs[i] = err
				return
			}
			e, err := NewOn(tr, machine.DefaultCost())
			if err != nil {
				errs[i] = err
				tr.Close()
				return
			}
			defer e.Close()
			if got[i], ships[i], frames[i], errs[i] = irregularRun(e, xm, ym, gather, csr); errs[i] != nil {
				tr.Fail(errs[i])
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", i, err)
		}
	}
	for i := range procs {
		if !slices.Equal(ships[i], wantShips) {
			t.Errorf("process %d ships\n %v\nsingle process\n %v", i, ships[i], wantShips)
		}
		if got[i].rep != want.rep {
			t.Errorf("process %d report:\n got  %+v\n want %+v", i, got[i].rep, want.rep)
		}
		if !slices.Equal(got[i].data, want.data) {
			t.Errorf("process %d values differ from the single-process engine's", i)
		}
	}
	if frames[0]+frames[1] != wantFrames {
		t.Errorf("the job put %d + %d frames on the wire, the single process %d", frames[0], frames[1], wantFrames)
	}
}
