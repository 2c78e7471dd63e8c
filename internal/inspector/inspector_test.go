package inspector

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// grid builds an owner grid from a literal.
func grid(owners ...int32) []int32 { return owners }

// TestBuildClassifiesLocalAndRemote pins the core partition: accesses
// execute on the writer's owner, reads split into local element
// offsets and ghost slots, and remote reads deduplicate per (element,
// reader).
func TestBuildClassifiesLocalAndRemote(t *testing.T) {
	// lhs offsets 0,1 on worker 1; 2,3 on worker 2.
	wOwn := grid(1, 1, 2, 2)
	// src offsets 0,1 on worker 1; 2,3 on worker 2.
	rOwn := grid(1, 1, 2, 2)
	pat := Pattern{
		//            local(w1)  remote(w1<-2)  dup remote  local(w2)
		Writes: []int32{0, 1, 1, 2},
		Reads:  []int32{1, 3, 3, 2},
		Coeffs: []float64{2, 3, 5, 7},
	}
	s, err := Build(2, wOwn, rOwn, pat)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := s.Plans[1], s.Plans[2]
	if p1 == nil || p2 == nil {
		t.Fatal("both workers have accesses")
	}
	if p1.Load != 3 || p1.LocalRefs != 1 || p1.RemoteRefs != 2 {
		t.Fatalf("worker 1 counters: %+v", p1)
	}
	if p2.Load != 1 || p2.LocalRefs != 1 || p2.RemoteRefs != 0 {
		t.Fatalf("worker 2 counters: %+v", p2)
	}
	// Worker 1 writes offsets 0 and 1; the two remote reads of src
	// offset 3 share one ghost slot.
	if len(p1.Outs) != 2 || p1.Outs[0] != 0 || p1.Outs[1] != 1 {
		t.Fatalf("worker 1 outs: %v", p1.Outs)
	}
	if p1.NGhost != 1 {
		t.Fatalf("ghost slots not deduplicated: %d", p1.NGhost)
	}
	if p1.Reads[0] != 1 || p1.Reads[1] != -1 || p1.Reads[2] != -1 {
		t.Fatalf("worker 1 reads: %v", p1.Reads)
	}
	// One message: worker 2 ships src offset 3 to worker 1.
	if s.Messages() != 1 || s.GhostElements() != 1 {
		t.Fatalf("messages %d, ghost %d", s.Messages(), s.GhostElements())
	}
	pr := s.Pairs[0]
	if pr.Src != 2 || pr.Dst != 1 || len(pr.Offsets) != 1 || pr.Offsets[0] != 3 || pr.Targets[0] != 0 {
		t.Fatalf("pair: %+v", pr)
	}
}

// TestBuildPairOrderDeterministic asserts the pair list is sorted by
// (Src, Dst) regardless of encounter order.
func TestBuildPairOrderDeterministic(t *testing.T) {
	wOwn := grid(3, 2, 1)
	rOwn := grid(1, 2, 3)
	pat := Pattern{
		Writes: []int32{0, 1, 2, 0},
		Reads:  []int32{1, 0, 1, 0},
	}
	s, err := Build(3, wOwn, rOwn, pat)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(s.Pairs); i++ {
		a, b := s.Pairs[i-1], s.Pairs[i]
		if a.Src > b.Src || (a.Src == b.Src && a.Dst >= b.Dst) {
			t.Fatalf("pairs not sorted: %+v", s.Pairs)
		}
	}
	if s.GhostElements() != 4 {
		t.Fatalf("ghost elements = %d, want 4", s.GhostElements())
	}
}

// TestBuildNilCoeffsDefaultToOne checks the coefficient default.
func TestBuildNilCoeffsDefaultToOne(t *testing.T) {
	s, err := Build(1, grid(1, 1), grid(1, 1), Pattern{Writes: []int32{0}, Reads: []int32{1}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Plans[1].Coeffs[0] != 1 {
		t.Fatalf("coeff = %g, want 1", s.Plans[1].Coeffs[0])
	}
}

// TestValidateErrors covers the pattern shape errors.
func TestValidateErrors(t *testing.T) {
	cases := []Pattern{
		{Writes: []int32{0}, Reads: []int32{}},
		{Writes: []int32{0}, Reads: []int32{0}, Coeffs: []float64{1, 2}},
		{Writes: []int32{2}, Reads: []int32{0}},
		{Writes: []int32{0}, Reads: []int32{-1}},
		{Writes: []int32{0}, Reads: []int32{2}}, // src offset 2 owned by 0
		{Writes: []int32{1}, Reads: []int32{3}}, // src offset 3 owned by 2
	}
	for i, pat := range cases {
		if _, err := Build(1, grid(1, 1), grid(1, 1, 0, 2), pat); err == nil {
			t.Fatalf("case %d: invalid pattern accepted", i)
		}
	}
	_, err := Build(1, grid(1, 1), grid(1, 1, 0, 2), Pattern{Writes: []int32{0}, Reads: []int32{2}})
	if want := "inspector: src offset 2 owned by 0, outside 1..1"; err == nil || err.Error() != want {
		t.Fatalf("reader owner error %v, want %q", err, want)
	}
}

// TestBuildErrorPrecedence: a bad offset is reported before any bad
// owner, and a bad write before a bad read, whatever their accesses,
// as Validate followed by the owner walk reported them.
func TestBuildErrorPrecedence(t *testing.T) {
	wOwn, rOwn := grid(1, 0), grid(1, 1)
	for _, tc := range []struct {
		pat  Pattern
		want string
	}{
		{Pattern{Writes: []int32{1, 0, 5}, Reads: []int32{0, 9, 0}}, "inspector: access 2 writes offset 5 outside lhs size 2"},
		{Pattern{Writes: []int32{1, 0}, Reads: []int32{0, 9}}, "inspector: access 1 reads offset 9 outside src size 2"},
		{Pattern{Writes: []int32{0, 1}, Reads: []int32{0, 0}}, "inspector: lhs offset 1 owned by 0, outside 1..1"},
	} {
		_, err := Build(1, wOwn, rOwn, tc.pat)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%+v: error %v, want %q", tc.pat, err, tc.want)
		}
	}
}

// TestBuildEmptyPattern: zero accesses yield an executable no-op.
func TestBuildEmptyPattern(t *testing.T) {
	s, err := Build(2, grid(1, 2), grid(1, 2), Pattern{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Messages() != 0 || s.GhostElements() != 0 {
		t.Fatalf("empty pattern has traffic: %+v", s)
	}
}

// buildMaps is the one-pass, map-based inspector Build replaced: the
// oracle the two-pass Build must reproduce exactly.
func buildMaps(np int, wOwners, rOwners []int32, pat Pattern) (*Schedule, error) {
	if err := pat.Validate(len(wOwners), len(rOwners)); err != nil {
		return nil, err
	}
	s := &Schedule{NP: np, Plans: make([]*Plan, np+1)}
	planOf := func(p int) *Plan {
		if s.Plans[p] == nil {
			s.Plans[p] = &Plan{}
		}
		return s.Plans[p]
	}
	type haloKey struct {
		off int32
		w   int
	}
	accIx := make(map[int32]int32, len(pat.Writes))
	ghosts := map[haloKey]int32{}
	pairIx := map[[2]int]int{}
	var pairs []*GatherList
	for k, woff := range pat.Writes {
		w := int(wOwners[woff])
		if w < 1 || w > np {
			return nil, fmt.Errorf("inspector: lhs offset %d owned by %d, outside 1..%d", woff, w, np)
		}
		wp := planOf(w)
		oi, ok := accIx[woff]
		if !ok {
			oi = int32(len(wp.Outs))
			wp.Outs = append(wp.Outs, woff)
			accIx[woff] = oi
		}
		wp.WriteIx = append(wp.WriteIx, oi)
		c := 1.0
		if pat.Coeffs != nil {
			c = pat.Coeffs[k]
		}
		wp.Coeffs = append(wp.Coeffs, c)
		wp.Load++
		roff := pat.Reads[k]
		r := int(rOwners[roff])
		if r == w {
			wp.LocalRefs++
			wp.Reads = append(wp.Reads, roff)
			continue
		}
		wp.RemoteRefs++
		key := haloKey{off: roff, w: w}
		g, dup := ghosts[key]
		if !dup {
			g = int32(wp.NGhost)
			wp.NGhost++
			ghosts[key] = g
			pr := [2]int{r, w}
			pi, ok := pairIx[pr]
			if !ok {
				pi = len(pairs)
				pairIx[pr] = pi
				pairs = append(pairs, &GatherList{Src: r, Dst: w})
			}
			pairs[pi].Offsets = append(pairs[pi].Offsets, roff)
			pairs[pi].Targets = append(pairs[pi].Targets, g)
		}
		wp.Reads = append(wp.Reads, -(g + 1))
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Src != pairs[j].Src {
			return pairs[i].Src < pairs[j].Src
		}
		return pairs[i].Dst < pairs[j].Dst
	})
	s.Pairs = make([]GatherList, len(pairs))
	for i, pl := range pairs {
		s.Pairs[i] = *pl
	}
	return s, nil
}

// randomCase draws an np-worker pattern of n accesses over random owner
// grids. Writes repeat often (duplicate writes accumulate), reads
// cluster on a few hot elements (remote reads deduplicate), and half
// the cases carry coefficients. With bad set, one offset or one writer
// owner is pushed out of range.
func randomCase(rng *rand.Rand, np, n int, bad bool) ([]int32, []int32, Pattern) {
	lhsSize, srcSize := 1+rng.Intn(2*n+1), 1+rng.Intn(2*n+1)
	owners := func(size int) []int32 {
		g := make([]int32, size)
		for i := range g {
			g[i] = int32(1 + rng.Intn(np))
		}
		return g
	}
	wOwn, rOwn := owners(lhsSize), owners(srcSize)
	pat := Pattern{Writes: make([]int32, n), Reads: make([]int32, n)}
	for k := range n {
		pat.Writes[k] = int32(rng.Intn(lhsSize))
		pat.Reads[k] = int32(rng.Intn(max(1, srcSize/(1+rng.Intn(4)))))
	}
	if rng.Intn(2) == 0 {
		pat.Coeffs = make([]float64, n)
		for k := range pat.Coeffs {
			pat.Coeffs[k] = float64(rng.Intn(7) - 3)
		}
	}
	if bad && n > 0 {
		k := rng.Intn(n)
		switch rng.Intn(3) {
		case 0:
			pat.Writes[k] = int32(lhsSize + rng.Intn(3))
		case 1:
			pat.Reads[k] = int32(-1 - rng.Intn(3))
		default:
			wOwn[pat.Writes[k]] = int32(np + 1)
		}
	}
	return wOwn, rOwn, pat
}

// FuzzInspectorBuild: on random np 1–5, owner grids, duplicate writes
// and nil or non-nil coefficients, Build returns exactly the oracle's
// schedule, or exactly its error.
func FuzzInspectorBuild(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed, uint8(seed), uint16(seed*37), seed%3 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, npb uint8, nb uint16, bad bool) {
		rng := rand.New(rand.NewSource(seed))
		np, n := 1+int(npb)%5, int(nb)%2000
		wOwn, rOwn, pat := randomCase(rng, np, n, bad)
		got, gerr := Build(np, wOwn, rOwn, pat)
		want, werr := buildMaps(np, wOwn, rOwn, pat)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("errors differ: got %v, oracle %v", gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("np %d, %d accesses: schedule differs from the oracle\ngot  %+v\nwant %+v", np, n, got, want)
		}
	})
}

// TestBuildMatchesMaps runs the oracle comparison at sizes the fuzz
// seeds do not reach.
func TestBuildMatchesMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 1000, 100000} {
		for np := 1; np <= 4; np++ {
			wOwn, rOwn, pat := randomCase(rng, np, n, false)
			got, err := Build(np, wOwn, rOwn, pat)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := buildMaps(np, wOwn, rOwn, pat)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("np %d, %d accesses: schedule differs from the oracle", np, n)
			}
		}
	}
}

// TestInspectorBuildCost: Build's allocations are a constant plus
// O(np + pairs) and do not grow with the number of accesses.
func TestInspectorBuildCost(t *testing.T) {
	const np = 4
	allocs := func(n int) float64 {
		rng := rand.New(rand.NewSource(2))
		wOwn, rOwn, pat := randomCase(rng, np, n, false)
		return testing.AllocsPerRun(3, func() {
			if _, err := Build(np, wOwn, rOwn, pat); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(10_000), allocs(100_000); small != large {
		t.Fatalf("Build allocates %.0f times on 10^4 accesses, %.0f on 10^5", small, large)
	}
}

// TestIrregularWritersInspectConcurrently: pass 2 of every writer, each
// on a goroutine of its own with a scratch of its own, builds exactly
// the plans and gather lists of the serial Build. Under the race
// detector this also shows the shared slot array written race-free.
func TestIrregularWritersInspectConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for np := 1; np <= 5; np++ {
		wOwn, rOwn, pat := randomCase(rng, np, 5000, false)
		want, err := Build(np, wOwn, rOwn, pat)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Partition(np, wOwn, rOwn, pat)
		if err != nil {
			t.Fatal(err)
		}
		iota := make([]int32, max(len(wOwn), len(rOwn)))
		for i := range iota {
			iota[i] = int32(i)
		}
		got := &Schedule{NP: np, Plans: make([]*Plan, np+1), Pairs: []GatherList{}}
		lists := make([][]GatherList, np+1)
		var wg sync.WaitGroup
		for w := 1; w <= np; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got.Plans[w], lists[w] = b.Inspect(w, false, iota[:len(wOwn)], iota[:len(rOwn)], &Scratch{})
			}()
		}
		wg.Wait()
		for _, l := range lists {
			got.Pairs = append(got.Pairs, l...)
		}
		sort.Slice(got.Pairs, func(i, j int) bool {
			return got.Pairs[i].Src < got.Pairs[j].Src || got.Pairs[i].Src == got.Pairs[j].Src && got.Pairs[i].Dst < got.Pairs[j].Dst
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("np %d: the concurrent inspection differs from Build", np)
		}
	}
}
