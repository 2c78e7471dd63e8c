package dist

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"hpfnt/internal/index"
	"hpfnt/internal/proc"
)

// checkFormat asserts, for one format over n indices and np
// positions, the §4.1 contract read off one AppendRuns(1..n) walk: the
// runs partition [1, n] in order and are maximal (adjacent runs differ
// in owner); every index's Map is its run's Proc, in 1..np; Local
// numbers each owner's indices 1, 2, 3, … in index order, so (Map,
// Local) is a bijection onto the per-position local index spaces; and
// each interval of intervals gets the clipped sub-list of the walk's
// runs, appended after what dst held, with RunCountEstimate at least
// its length — exactly its length for INDIRECT.
func checkFormat(t *testing.T, f Format, n, np int, intervals [][2]int) {
	t.Helper()
	if err := f.Validate(n, np); err != nil {
		t.Fatalf("%s: Validate(%d,%d): %v", f, n, np, err)
	}
	runs := f.AppendRuns(nil, 1, n, n, np)
	held := make([]int, np+1)
	next := 1
	for k, r := range runs {
		if r.Lo != next || r.Hi < r.Lo || r.Hi > n {
			t.Fatalf("%s: runs of [1,%d] not a partition in order: %+v", f, n, runs)
		}
		if r.Proc < 1 || r.Proc > np {
			t.Fatalf("%s: run %+v owned outside 1..%d", f, r, np)
		}
		if k > 0 && runs[k-1].Proc == r.Proc {
			t.Fatalf("%s: runs %+v and %+v not maximal", f, runs[k-1], r)
		}
		for i := r.Lo; i <= r.Hi; i++ {
			if p := f.Map(i, n, np); p != r.Proc {
				t.Fatalf("%s: run %+v claims %d, Map(%d) = %d", f, r, r.Proc, i, p)
			}
			held[r.Proc]++
			if l := f.Local(i, n, np); l != held[r.Proc] {
				t.Fatalf("%s: Local(%d) = %d, want %d: position %d's indices are not numbered in index order", f, i, l, held[r.Proc], r.Proc)
			}
		}
		next = r.Hi + 1
	}
	if next != n+1 {
		t.Fatalf("%s: runs of [1,%d] stop at %d: %+v", f, n, next-1, runs)
	}

	sentinel := Run{Lo: -1, Hi: -1, Proc: -1}
	got, want := []Run{sentinel}, []Run(nil)
	for _, iv := range intervals {
		lo, hi := iv[0], iv[1]
		want = want[:0]
		for _, r := range runs {
			if r.Hi >= lo && r.Lo <= hi && lo <= hi {
				want = append(want, Run{Lo: max(r.Lo, lo), Hi: min(r.Hi, hi), Proc: r.Proc})
			}
		}
		got = f.AppendRuns(got[:1], lo, hi, n, np)
		if got[0] != sentinel || !slices.Equal(got[1:], want) {
			t.Fatalf("%s: AppendRuns over [%d,%d] after a run = %+v, want the clipped walk %+v", f, lo, hi, got, want)
		}
		est := f.RunCountEstimate(lo, hi, n, np)
		if est < len(want) || (f.Kind() == KindIndirect && est != len(want)) {
			t.Fatalf("%s: RunCountEstimate over [%d,%d] = %d for %d runs", f, lo, hi, est, len(want))
		}
	}
}

// allIntervals lists every [lo, hi] of 1..n, and one empty interval.
func allIntervals(n int) [][2]int {
	ivs := [][2]int{{n, n - 1}}
	for lo := 1; lo <= n; lo++ {
		for hi := lo; hi <= n; hi++ {
			ivs = append(ivs, [2]int{lo, hi})
		}
	}
	return ivs
}

func TestFormatRoundTrips(t *testing.T) {
	ind, err := NewIndirect([]int{3, 1, 1, 4, 2, 4, 1, 3, 3, 2, 2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Owners 2 and 3 hold nothing, and owners 5..9 lie past the
	// largest entry.
	gaps, err := NewIndirect([]int{4, 1, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	// A partitioner-style vector with long runs: the run-count
	// estimate over every subinterval must be exact.
	longRuns, err := NewIndirect([]int{1, 1, 1, 2, 2, 3, 3, 3, 3, 1, 2, 2, 1, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		f    Format
		n    int
		np   int
	}{
		{"block-even", Block{}, 16, 4},
		{"block-ragged", Block{}, 17, 4},
		{"block-sparse", Block{}, 3, 8},
		{"vienna-even", BlockVienna{}, 16, 4},
		{"vienna-ragged", BlockVienna{}, 65, 4},
		{"vienna-sparse", BlockVienna{}, 3, 8},
		{"collapsed", Collapsed{}, 9, 1},
		{"cyclic-1", Cyclic{K: 1}, 17, 4},
		{"cyclic-3", Cyclic{K: 3}, 16, 4},
		{"cyclic-one-position", Cyclic{K: 2}, 9, 1},
		{"cyclic-large-k", Cyclic{K: 64}, 100, 4},
		{"general-uneven", GeneralBlock{Bounds: []int{4, 6, 14}}, 16, 4},
		{"general-empty-block", GeneralBlock{Bounds: []int{0, 5, 5}}, 12, 4},
		{"general-explicit-last", GeneralBlock{Bounds: []int{2, 7, 9, 12}}, 12, 4},
		{"indirect", ind, 13, 4},
		{"indirect-gaps", gaps, 4, 9},
		{"indirect-long-runs", longRuns, 15, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkFormat(t, c.f, c.n, c.np, allIntervals(c.n)) })
	}
}

func TestBlockClosedForms(t *testing.T) {
	// §4.1.1: q = ⌈N/NP⌉, δ(i) = ⌈i/q⌉, local = i-(j-1)q.
	n, np := 16, 4
	for i := 1; i <= n; i++ {
		q := (n + np - 1) / np
		j := (i + q - 1) / q
		if (Block{}).Map(i, n, np) != j {
			t.Fatalf("Map(%d) != ⌈i/q⌉", i)
		}
		if (Block{}).Local(i, n, np) != i-(j-1)*q {
			t.Fatalf("Local(%d) != i-(j-1)q", i)
		}
	}
}

func TestViennaBlockBalanced(t *testing.T) {
	// The Vienna variant keeps block sizes within one of each other
	// and leaves no processor empty when n >= np.
	for _, c := range []struct{ n, np int }{{64, 8}, {65, 4}, {66, 4}, {7, 3}, {8, 8}} {
		sizes := make([]int, c.np+1)
		for _, r := range (BlockVienna{}).AppendRuns(nil, 1, c.n, c.n, c.np) {
			sizes[r.Proc] += r.Count()
		}
		lo, hi := c.n, 0
		for _, size := range sizes[1:] {
			if size < lo {
				lo = size
			}
			if size > hi {
				hi = size
			}
		}
		if hi-lo > 1 {
			t.Fatalf("n=%d np=%d: block sizes range %d..%d", c.n, c.np, lo, hi)
		}
		if c.n >= c.np && lo == 0 {
			t.Fatalf("n=%d np=%d: empty block despite n >= np", c.n, c.np)
		}
	}
}

func TestCyclicSegments(t *testing.T) {
	// CYCLIC(3) over 16/4: segments of 3 dealt round-robin.
	c := Cyclic{K: 3}
	wantOwner := []int{1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 1, 1, 1, 2}
	for i := 1; i <= 16; i++ {
		if got := c.Map(i, 16, 4); got != wantOwner[i-1] {
			t.Fatalf("CYCLIC(3).Map(%d) = %d, want %d", i, got, wantOwner[i-1])
		}
	}
	// Position 1's second cycle starts at local index 4.
	if l := c.Local(13, 16, 4); l != 4 {
		t.Fatalf("Local(13) = %d, want 4", l)
	}
	// CYCLIC(2) over 16/4: index 10 lies in segment 4, position 1's
	// second, at offset 2.
	if l := (Cyclic{K: 2}).Local(10, 16, 4); l != 4 {
		t.Fatalf("CYCLIC(2).Local(10) = %d, want 4", l)
	}
	want := []Run{{1, 3, 1}, {4, 6, 2}, {7, 9, 3}, {10, 12, 4}, {13, 15, 1}, {16, 16, 2}}
	if rs := c.AppendRuns(nil, 1, 16, 16, 4); !slices.Equal(rs, want) {
		t.Fatalf("AppendRuns(1,16) = %v, want %v", rs, want)
	}
}

func TestGeneralBlockBoundSemantics(t *testing.T) {
	// §4.1.2: G(p) is the inclusive upper bound of block p; the last
	// block extends to N.
	g := GeneralBlock{Bounds: []int{4, 6, 14}}
	n, np := 16, 4
	if g.Map(4, n, np) != 1 || g.Map(5, n, np) != 2 || g.Map(7, n, np) != 3 || g.Map(15, n, np) != 4 || g.Map(n, n, np) != np {
		t.Fatal("bound semantics wrong")
	}
	if g.Local(7, n, np) != 1 || g.Local(14, n, np) != 8 {
		t.Fatal("general-block local index wrong")
	}
}

func TestFormatValidateErrors(t *testing.T) {
	ind, _ := NewIndirect([]int{1, 2, 9})
	cases := []struct {
		name string
		f    Format
		n    int
		np   int
	}{
		{"cyclic-zero-k", Cyclic{K: 0}, 8, 4},
		{"cyclic-negative-k", Cyclic{K: -2}, 8, 4},
		{"block-zero-np", Block{}, 8, 0},
		{"block-zero-n", Block{}, 0, 4},
		{"general-too-few", GeneralBlock{Bounds: []int{4}}, 16, 4},
		{"general-decreasing", GeneralBlock{Bounds: []int{8, 4, 12}}, 16, 4},
		{"general-exceeds", GeneralBlock{Bounds: []int{4, 8, 30}}, 16, 4},
		{"general-bad-last", GeneralBlock{Bounds: []int{4, 8, 12, 15}}, 16, 4},
		{"indirect-length", ind, 4, 9},
		{"indirect-owner-high", ind, 3, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.f.Validate(c.n, c.np); err == nil {
				t.Fatalf("%s: Validate(%d,%d) must fail", c.f, c.n, c.np)
			}
		})
	}
}

func TestNewIndirectErrors(t *testing.T) {
	if _, err := NewIndirect(nil); err == nil {
		t.Fatal("empty owner vector must fail")
	}
	if _, err := NewIndirect([]int{1, 0, 2}); err == nil {
		t.Fatal("non-positive owner must fail")
	}
	// Owner entries index the per-owner tables: a huge one is refused
	// before anything of its size is allocated.
	if _, err := NewIndirect([]int{1, 1 << 30}); err == nil || !strings.Contains(err.Error(), "above") {
		t.Fatalf("owner 2^30 gave %v, want a refusal", err)
	}
}

// TestNewIndirectCost: NewIndirect allocates the same few times for
// 10^4 and 10^6 entries — no map, no per-element append — and no more
// bytes than it retains, the owner vector and the local index at 4
// bytes an entry each, plus its per-owner count table.
func TestNewIndirectCost(t *testing.T) {
	cost := func(n int) (allocs float64, bytes uint64) {
		owner := make([]int, n)
		for i := range owner {
			owner[i] = (i*7+i/13)%5 + 1
		}
		build := func() {
			if _, err := NewIndirect(owner); err != nil {
				t.Fatal(err)
			}
		}
		// A collection starting inside the measurement allocates on
		// the runtime's behalf; start each measurement from a fresh heap.
		runtime.GC()
		allocs = testing.AllocsPerRun(3, build)
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		build()
		runtime.ReadMemStats(&m1)
		return allocs, m1.TotalAlloc - m0.TotalAlloc
	}
	small, _ := cost(10_000)
	large, bytes := cost(1_000_000)
	if small != large || large > 4 {
		t.Errorf("NewIndirect allocates %.0f times for 10^4 entries, %.0f for 10^6", small, large)
	}
	if retained := uint64(8 * 1_000_000); bytes > retained+64<<10 {
		t.Errorf("NewIndirect allocates %d bytes for 10^6 entries, to retain %d", bytes, retained)
	}
}

func TestIndirectPrecomputedTables(t *testing.T) {
	f, err := NewIndirect([]int{2, 1, 2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if f.Map(1, 5, 2) != 2 || f.Map(2, 5, 2) != 1 {
		t.Fatal("Map must follow the owner vector")
	}
	// Owner 2 holds global 1, 3, 4 as locals 1, 2, 3.
	if f.Local(3, 5, 2) != 2 || f.Local(4, 5, 2) != 3 || f.Local(5, 5, 2) != 2 {
		t.Fatal("indirect local table wrong")
	}
	want := []Run{{1, 1, 2}, {2, 2, 1}, {3, 4, 2}, {5, 5, 1}}
	if rs := f.AppendRuns(nil, 1, 5, 5, 2); !slices.Equal(rs, want) {
		t.Fatalf("AppendRuns(1,5) = %v, want %v", rs, want)
	}
}

func TestKindAndStringRendering(t *testing.T) {
	short, _ := NewIndirect([]int{1, 2})
	long, _ := NewIndirect(make4096ones())
	cases := []struct {
		f    Format
		kind Kind
		str  string
	}{
		{Block{}, KindBlock, "BLOCK"},
		{BlockVienna{}, KindBlock, "BLOCK"},
		{Collapsed{}, KindCollapsed, ":"},
		{Cyclic{K: 1}, KindCyclic, "CYCLIC"},
		{Cyclic{K: 7}, KindCyclic, "CYCLIC(7)"},
		{GeneralBlock{Bounds: []int{4, 8}}, KindGeneralBlock, "GENERAL_BLOCK(/4,8/)"},
		{short, KindIndirect, "INDIRECT(/1,2/)"},
	}
	for _, c := range cases {
		if c.f.Kind() != c.kind || c.f.String() != c.str {
			t.Fatalf("%T: Kind=%v String=%q", c.f, c.f.Kind(), c.f.String())
		}
	}
	if s := long.String(); !strings.Contains(s, "4096 entries") {
		t.Fatalf("long INDIRECT rendering = %q", s)
	}
	for _, k := range []Kind{KindBlock, KindCyclic, KindGeneralBlock, KindCollapsed, KindIndirect} {
		if k.String() == "?" {
			t.Fatalf("kind %d has no string", int(k))
		}
	}
	if Kind(99).String() != "?" {
		t.Fatal("unknown kind must render ?")
	}
}

func make4096ones() []int {
	v := make([]int, 4096)
	for i := range v {
		v[i] = 1
	}
	return v
}

func TestFormatEqual(t *testing.T) {
	i1, _ := NewIndirect([]int{1, 2})
	i2, _ := NewIndirect([]int{1, 2})
	i3, _ := NewIndirect([]int{2, 1})
	cases := []struct {
		a, b Format
		want bool
	}{
		{Block{}, Block{}, true},
		{Block{}, BlockVienna{}, false},
		{Cyclic{K: 2}, Cyclic{K: 2}, true},
		{Cyclic{K: 2}, Cyclic{K: 3}, false},
		{GeneralBlock{Bounds: []int{1, 2}}, GeneralBlock{Bounds: []int{1, 2}}, true},
		{GeneralBlock{Bounds: []int{1, 2}}, GeneralBlock{Bounds: []int{1, 3}}, false},
		{i1, i2, true},
		{i1, i3, false},
		{Collapsed{}, Collapsed{}, true},
		{Collapsed{}, Block{}, false},
	}
	for _, c := range cases {
		if got := Equal(c.a, c.b); got != c.want {
			t.Fatalf("Equal(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// --- Distribution ---

func target1D(t *testing.T, np int) proc.Target {
	t.Helper()
	sys, err := proc.NewSystem(np)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := sys.DeclareArray("P", index.Standard(1, np))
	if err != nil {
		t.Fatal(err)
	}
	return proc.Whole(arr)
}

func TestDistributionOwners2D(t *testing.T) {
	// (BLOCK, CYCLIC(2)) over a 4x2 grid: owners compose per
	// dimension, column-major over the grid.
	sys, _ := proc.NewSystem(8)
	arr, err := sys.DeclareArray("G", index.Standard(1, 4, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	dom := index.Standard(1, 16, 1, 8)
	d, err := New(dom, []Format{Block{}, Cyclic{K: 2}}, proc.Whole(arr))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 16; i++ {
		for j := 1; j <= 8; j++ {
			os, err := d.Owners(index.Tuple{i, j})
			if err != nil {
				t.Fatal(err)
			}
			r := (Block{}).Map(i, 16, 4)
			c := (Cyclic{K: 2}).Map(j, 8, 2)
			want := (c-1)*4 + r
			if len(os) != 1 || os[0] != want {
				t.Fatalf("Owners(%d,%d) = %v, want [%d]", i, j, os, want)
			}
		}
	}
	if d.NP() != 8 {
		t.Fatalf("NP = %d, want 8", d.NP())
	}
}

func TestDistributionNonUnitLowerBounds(t *testing.T) {
	// U(0:16, 1:8): formats see normalized indices 1..n.
	tg := target1D(t, 4)
	dom := index.Standard(0, 16, 1, 8)
	d, err := New(dom, []Format{Block{}, Collapsed{}}, tg)
	if err != nil {
		t.Fatal(err)
	}
	os, err := d.Owners(index.Tuple{0, 1})
	if err != nil || os[0] != 1 {
		t.Fatalf("Owners(0,1) = %v, %v", os, err)
	}
	os, _ = d.Owners(index.Tuple{16, 8})
	// 17 indices, q = ⌈17/4⌉ = 5: index 16 normalizes to 17 → block 4.
	if os[0] != 4 {
		t.Fatalf("Owners(16,8) = %v", os)
	}
	if _, err := d.Owners(index.Tuple{17, 1}); err == nil {
		t.Fatal("out-of-domain index must fail")
	}
	if _, err := d.Owners(index.Tuple{1}); err == nil {
		t.Fatal("rank mismatch must fail")
	}
}

func TestDistributionSectionTargetConfinement(t *testing.T) {
	// §4's generalization: DISTRIBUTE ... TO Q(1:8:2) confines
	// ownership to the odd processors.
	sys, _ := proc.NewSystem(8)
	arr, _ := sys.DeclareArray("Q", index.Standard(1, 8))
	sel, err := index.NewTriplet(1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := proc.SectionOf(arr, sel)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(index.Standard(1, 64), []Format{Cyclic{K: 1}}, tg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for i := 1; i <= 64; i++ {
		os, err := d.Owners(index.Tuple{i})
		if err != nil {
			t.Fatal(err)
		}
		if os[0]%2 == 0 {
			t.Fatalf("element %d on even processor %d outside section", i, os[0])
		}
		counts[os[0]]++
	}
	for _, p := range []int{1, 3, 5, 7} {
		if counts[p] != 16 {
			t.Fatalf("processor %d owns %d, want 16", p, counts[p])
		}
	}
}

func TestDistributionScalarReplicatedTarget(t *testing.T) {
	sys, _ := proc.NewSystem(4)
	rep, err := sys.DeclareScalar("REP", proc.ScalarReplicated)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(index.Standard(1, 8), []Format{Collapsed{}}, proc.Whole(rep))
	if err != nil {
		t.Fatal(err)
	}
	os, err := d.Owners(index.Tuple{5})
	if err != nil || len(os) != 4 {
		t.Fatalf("replicated owners = %v, %v", os, err)
	}
}

func TestDistributionNewErrors(t *testing.T) {
	tg := target1D(t, 4)
	dom := index.Standard(1, 16)
	if _, err := New(dom, []Format{Block{}}, proc.Target{}); err == nil {
		t.Fatal("missing target must fail")
	}
	if _, err := New(dom, []Format{Block{}, Block{}}, tg); err == nil {
		t.Fatal("format-count/rank mismatch must fail")
	}
	if _, err := New(dom, []Format{Collapsed{}}, tg); err == nil {
		t.Fatal("0 distributed dims against rank-1 target must fail")
	}
	if _, err := New(index.Standard(1, 16, 1, 16), []Format{Block{}, Block{}}, tg); err == nil {
		t.Fatal("2 distributed dims against rank-1 target must fail")
	}
	if _, err := New(dom, []Format{Cyclic{K: 0}}, tg); err == nil {
		t.Fatal("invalid format must fail at New")
	}
	if _, err := New(dom, []Format{nil}, tg); err == nil {
		t.Fatal("nil format must fail")
	}
	strided := index.New(index.Triplet{Low: 1, High: 16, Stride: 2})
	if _, err := New(strided, []Format{Block{}}, tg); err == nil {
		t.Fatal("non-standard domain must fail")
	}
}

func TestDistributionEqualAndString(t *testing.T) {
	tg := target1D(t, 4)
	dom := index.Standard(1, 16, 1, 4)
	d1, err := New(dom, []Format{Block{}, Collapsed{}}, tg)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := New(dom, []Format{Block{}, Collapsed{}}, tg)
	d3, _ := New(dom, []Format{Cyclic{K: 1}, Collapsed{}}, tg)
	if !d1.Equal(d2) || d1.Equal(d3) || d1.Equal(nil) {
		t.Fatal("Equal wrong")
	}
	if got := d1.String(); got != "(BLOCK,:) TO P" {
		t.Fatalf("String = %q", got)
	}
}

func TestOwnersZeroAlloc(t *testing.T) {
	tg := target1D(t, 8)
	d, err := New(index.Standard(1, 256), []Format{Cyclic{K: 4}}, tg)
	if err != nil {
		t.Fatal(err)
	}
	tu := index.Tuple{1}
	allocs := testing.AllocsPerRun(200, func() {
		tu[0] = tu[0]%256 + 1
		if _, err := d.Owners(tu); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Owners allocates %.1f per op, want 0", allocs)
	}
}
