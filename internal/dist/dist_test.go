package dist

import (
	"strings"
	"testing"

	"hpfnt/internal/index"
	"hpfnt/internal/proc"
)

// checkRoundTrip asserts, for one format over n indices and np
// positions, the §4.1 contract: Map is total into 1..np, (Map, Local)
// ↔ Global is a bijection, and OwnedRanges partitions 1..n.
func checkRoundTrip(t *testing.T, f Format, n, np int) {
	t.Helper()
	if err := f.Validate(n, np); err != nil {
		t.Fatalf("%s: Validate(%d,%d): %v", f, n, np, err)
	}
	effNP := np
	if f.Kind() == KindCollapsed {
		effNP = 1
	}
	counts := make([]int, effNP+1)
	for i := 1; i <= n; i++ {
		p := f.Map(i, n, effNP)
		if p < 1 || p > effNP {
			t.Fatalf("%s: Map(%d) = %d outside 1..%d", f, i, p, effNP)
		}
		counts[p]++
		l := f.Local(i, n, effNP)
		if l < 1 {
			t.Fatalf("%s: Local(%d) = %d", f, i, l)
		}
		if g := f.Global(p, l, n, effNP); g != i {
			t.Fatalf("%s: Global(%d,%d) = %d, want %d", f, p, l, g, i)
		}
	}
	// OwnedRanges must partition 1..n with counts matching Map, and
	// Global must enumerate exactly the owned indices in local order.
	seen := make([]bool, n+1)
	for p := 1; p <= effNP; p++ {
		owned := 0
		prevHi := 0
		for _, r := range f.OwnedRanges(p, n, effNP) {
			if r.Low < 1 || r.High > n || r.Low <= prevHi {
				t.Fatalf("%s: position %d has bad range %+v", f, p, r)
			}
			prevHi = r.High
			for i := r.Low; i <= r.High; i++ {
				if seen[i] {
					t.Fatalf("%s: index %d owned twice", f, i)
				}
				seen[i] = true
				if got := f.Map(i, n, effNP); got != p {
					t.Fatalf("%s: range of %d contains %d owned by %d", f, p, i, got)
				}
				owned++
			}
		}
		if owned != counts[p] {
			t.Fatalf("%s: position %d ranges cover %d indices, Map assigns %d", f, p, owned, counts[p])
		}
		for l := 1; l <= owned; l++ {
			g := f.Global(p, l, n, effNP)
			if g < 1 || g > n || f.Map(g, n, effNP) != p || f.Local(g, n, effNP) != l {
				t.Fatalf("%s: Global(%d,%d) = %d does not invert (Map,Local)", f, p, l, g)
			}
		}
		if g := f.Global(p, owned+1, n, effNP); g != 0 {
			t.Fatalf("%s: Global past extent = %d, want 0", f, g)
		}
	}
	for i := 1; i <= n; i++ {
		if !seen[i] {
			t.Fatalf("%s: index %d owned by nobody", f, i)
		}
	}
}

func TestFormatRoundTrips(t *testing.T) {
	ind, err := NewIndirect([]int{3, 1, 1, 4, 2, 4, 1, 3, 3, 2, 2, 2, 1})
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
		{"collapsed", Collapsed{}, 9, 5},
		{"cyclic-1", Cyclic{K: 1}, 17, 4},
		{"cyclic-3", Cyclic{K: 3}, 16, 4},
		{"cyclic-large-k", Cyclic{K: 64}, 100, 4},
		{"general-uneven", GeneralBlock{Bounds: []int{4, 6, 14}}, 16, 4},
		{"general-empty-block", GeneralBlock{Bounds: []int{0, 5, 5}}, 12, 4},
		{"general-explicit-last", GeneralBlock{Bounds: []int{2, 7, 9, 12}}, 12, 4},
		{"indirect", ind, 13, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkRoundTrip(t, c.f, c.n, c.np) })
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
		lo, hi := c.n, 0
		for p := 1; p <= c.np; p++ {
			size := 0
			for _, r := range (BlockVienna{}).OwnedRanges(p, c.n, c.np) {
				size += r.Count()
			}
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
	rs := c.OwnedRanges(1, 16, 4)
	if len(rs) != 2 || rs[0] != (Range{1, 3}) || rs[1] != (Range{13, 15}) {
		t.Fatalf("OwnedRanges(1) = %v", rs)
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

// TestIndirectOwnersHoldingNothing: owners below the largest entry that
// hold no index, and owners past it, answer 0 and nil.
func TestIndirectOwnersHoldingNothing(t *testing.T) {
	f, err := NewIndirect([]int{4, 1, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 2, 3, 5, 9} {
		if g := f.Global(p, 1, 4, 9); g != 0 {
			t.Errorf("Global(%d, 1) = %d, want 0", p, g)
		}
		if rs := f.OwnedRanges(p, 4, 9); rs != nil {
			t.Errorf("OwnedRanges(%d) = %v, want nil", p, rs)
		}
	}
	if rs := f.OwnedRanges(4, 4, 9); len(rs) != 2 || rs[0] != (Range{1, 1}) || rs[1] != (Range{3, 4}) {
		t.Fatalf("OwnedRanges(4) = %v", rs)
	}
	// A caller appending to one owner's runs must not overwrite the next
	// owner's.
	_ = append(f.OwnedRanges(1, 4, 9), Range{9, 9})
	if rs := f.OwnedRanges(4, 4, 9); rs[0] != (Range{1, 1}) {
		t.Fatalf("appending to owner 1's runs changed owner 4's: %v", rs)
	}
}

// TestNewIndirectCost: NewIndirect allocates the same number of times
// for 10^4 and 10^6 entries — no map, no per-element append.
func TestNewIndirectCost(t *testing.T) {
	allocs := func(n int) float64 {
		owner := make([]int, n)
		for i := range owner {
			owner[i] = (i*7+i/13)%5 + 1
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := NewIndirect(owner); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(10_000), allocs(1_000_000); small != large {
		t.Errorf("NewIndirect allocates %.0f times for 10^4 entries, %.0f for 10^6", small, large)
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
	if f.Local(3, 5, 2) != 2 || f.Global(2, 3, 5, 2) != 4 {
		t.Fatal("indirect local/global tables wrong")
	}
	rs := f.OwnedRanges(2, 5, 2)
	if len(rs) != 2 || rs[0] != (Range{1, 1}) || rs[1] != (Range{3, 4}) {
		t.Fatalf("OwnedRanges(2) = %v", rs)
	}
}

// TestIndirectRunEstimateExact pins the INDIRECT fast paths: the
// run-count estimate over any subinterval must equal the number of
// runs AppendRuns emits (not the whole-vector bound), and the emitted
// runs must match a per-element walk of the owner vector.
func TestIndirectRunEstimateExact(t *testing.T) {
	owner := []int{1, 1, 1, 2, 2, 3, 3, 3, 3, 1, 2, 2, 1, 1, 3}
	n, np := len(owner), 3
	f, err := NewIndirect(owner)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 1; lo <= n; lo++ {
		for hi := lo; hi <= n; hi++ {
			runs := Runs(f, lo, hi, n, np)
			if est := f.RunCountEstimate(lo, hi, n, np); est != len(runs) {
				t.Fatalf("estimate over [%d,%d] = %d, want exactly %d", lo, hi, est, len(runs))
			}
			// The runs must partition [lo, hi] with the vector's owners.
			i := lo
			for _, r := range runs {
				if r.Lo != i || r.Hi < r.Lo || r.Hi > hi {
					t.Fatalf("runs over [%d,%d] do not partition: %v", lo, hi, runs)
				}
				for j := r.Lo; j <= r.Hi; j++ {
					if owner[j-1] != r.Proc {
						t.Fatalf("run %v disagrees with owner[%d]=%d", r, j, owner[j-1])
					}
				}
				i = r.Hi + 1
			}
			if i != hi+1 {
				t.Fatalf("runs over [%d,%d] stop at %d: %v", lo, hi, i-1, runs)
			}
		}
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
	if d.NP() != 8 || d.Rank() != 2 || d.Extent(0) != 16 || d.Kind(1) != KindCyclic {
		t.Fatalf("accessors wrong: NP=%d rank=%d", d.NP(), d.Rank())
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
	if d.Size(3) != 8 || d.Size(9) != 0 {
		t.Fatalf("replicated Size = %d / %d", d.Size(3), d.Size(9))
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

func TestDistributionSizePartition(t *testing.T) {
	// Sizes over all processors must sum to the domain size, for
	// every format family.
	sys, _ := proc.NewSystem(8)
	arr, _ := sys.DeclareArray("G", index.Standard(1, 4, 1, 2))
	dom := index.Standard(1, 20, 1, 6)
	ind, _ := NewIndirect([]int{1, 4, 2, 3, 2, 1, 1, 3, 4, 2, 1, 2, 3, 4, 4, 1, 2, 3, 1, 2})
	for _, fs := range [][]Format{
		{Block{}, Cyclic{K: 1}},
		{BlockVienna{}, Block{}},
		{GeneralBlock{Bounds: []int{3, 9, 15}}, BlockVienna{}},
		{ind, Cyclic{K: 2}},
	} {
		d, err := New(dom, fs, proc.Whole(arr))
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for p := 1; p <= 8; p++ {
			total += d.Size(p)
		}
		if total != dom.Size() {
			t.Fatalf("%s: sizes sum to %d, want %d", d, total, dom.Size())
		}
		// Spot check Size against brute-force Owners.
		want := map[int]int{}
		dom.ForEach(func(tu index.Tuple) bool {
			os, err := d.Owners(tu)
			if err != nil {
				t.Fatal(err)
			}
			want[os[0]]++
			return true
		})
		for p := 1; p <= 8; p++ {
			if d.Size(p) != want[p] {
				t.Fatalf("%s: Size(%d) = %d, brute force %d", d, p, d.Size(p), want[p])
			}
		}
	}
}

func TestDistributionLocalOf(t *testing.T) {
	tg := target1D(t, 4)
	d, err := New(index.Standard(0, 15), []Format{Cyclic{K: 2}}, tg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := d.LocalOf(index.Tuple{9})
	if err != nil {
		t.Fatal(err)
	}
	// Index 9 normalizes to 10: segment 4 → owner 1, local 2+2 = 4.
	if len(l) != 1 || l[0] != 4 {
		t.Fatalf("LocalOf(9) = %v", l)
	}
	if _, err := d.LocalOf(index.Tuple{99}); err == nil {
		t.Fatal("out-of-domain LocalOf must fail")
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
