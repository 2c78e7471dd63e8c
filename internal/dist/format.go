// Package dist implements the distribution formats and direct
// (template-free) distributions of §4.1 of Chapman, Mehrotra and
// Zima, "High Performance Fortran Without Templates" (PPoPP 1993).
//
// A distribution format is a per-dimension distribution function
// mapping the (1-based, normalized) indices 1..N of one array
// dimension onto the positions 1..NP of one dimension of a processor
// target. The formats of §4.1 are provided — BLOCK (§4.1.1, both the
// HPF definition and the Vienna Fortran balanced variant assumed in
// the footnote of §8.1.1), GENERAL_BLOCK (§4.1.2), CYCLIC and
// CYCLIC(k) (§4.1.3), the collapsed format ":" — plus the
// user-defined INDIRECT format the paper's generalized
// distribution-function concept provides for (introduction point 3,
// §9).
//
// A Distribution composes one format per array dimension with a
// processor target (a whole arrangement or a section of one, §4) into
// the element-based mapping of Definition 1: a total function from
// the array's index domain to non-empty sets of abstract processors.
// Owner lookup and local↔global index translation are O(1) for
// block/cyclic formats and O(log b) (binary search over the block
// bounds) for GENERAL_BLOCK; per-dimension tables are precomputed at
// construction so the hot paths allocate nothing.
package dist

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Kind identifies a distribution format family.
type Kind int

// The format kinds of §4.1 (plus INDIRECT, the user-defined
// generalization of §9). Both BLOCK definitions share KindBlock: they
// are spelled identically in the directive language.
const (
	// KindBlock is the contiguous block format (HPF or Vienna).
	KindBlock Kind = iota
	// KindCyclic is CYCLIC(k), k >= 1.
	KindCyclic
	// KindGeneralBlock is the irregular block format GENERAL_BLOCK.
	KindGeneralBlock
	// KindCollapsed is ":": the dimension is not distributed.
	KindCollapsed
	// KindIndirect is the user-defined owner-vector format.
	KindIndirect
)

// String renders the kind in directive syntax.
func (k Kind) String() string {
	switch k {
	case KindBlock:
		return "BLOCK"
	case KindCyclic:
		return "CYCLIC"
	case KindGeneralBlock:
		return "GENERAL_BLOCK"
	case KindCollapsed:
		return ":"
	case KindIndirect:
		return "INDIRECT"
	default:
		return "?"
	}
}

// Range is an inclusive run [Low, High] of 1-based global indices.
type Range struct {
	Low  int
	High int
}

// Count reports the number of indices in the range.
func (r Range) Count() int {
	if r.High < r.Low {
		return 0
	}
	return r.High - r.Low + 1
}

// Format is a per-dimension distribution function (§4.1): a total
// mapping from the normalized indices 1..n of an array dimension onto
// the positions 1..np of a target dimension. All methods take n and
// np explicitly so a format value is reusable across dimensions (the
// same CYCLIC(2) literal may distribute several arrays).
type Format interface {
	// Kind identifies the format family.
	Kind() Kind
	// Validate checks that the format can distribute n indices over
	// np processors (e.g. CYCLIC's k >= 1, GENERAL_BLOCK's bound
	// count and monotonicity, INDIRECT's owner-vector length).
	Validate(n, np int) error
	// Map returns the 1-based target position owning global index i
	// (the distribution function δ of §4.1). It is total on 1..n.
	Map(i, n, np int) int
	// Local returns the 1-based local index of global index i on its
	// owner (the paper's local index functions, e.g. i-(j-1)q for
	// BLOCK).
	Local(i, n, np int) int
	// Global is the inverse of (Map, Local): the global index of the
	// l-th local element of position p, or 0 if p holds fewer than l
	// elements.
	Global(p, l, n, np int) int
	// OwnedRanges lists the maximal runs of global indices owned by
	// position p, in increasing order.
	OwnedRanges(p, n, np int) []Range
	// AppendRuns appends the ownership runs covering the interval
	// [lo, hi] of 1..n to dst, in increasing index order: consecutive
	// maximal sub-intervals each owned by a single position. The runs
	// partition [lo, hi] exactly; an empty interval (lo > hi) appends
	// nothing. Closed-form formats produce O(runs) work independent of
	// hi-lo; INDIRECT degrades to a per-element walk of the interval.
	AppendRuns(dst []Run, lo, hi, n, np int) []Run
	// RunCountEstimate bounds (from above) the number of runs
	// AppendRuns would produce over [lo, hi], in O(1) — without
	// materializing them — so AppendRuns' destination can be sized
	// once.
	RunCountEstimate(lo, hi, n, np int) int
	// String renders the format in directive syntax.
	String() string
}

func checkDims(n, np int) error {
	if n < 1 {
		return fmt.Errorf("dist: dimension extent must be positive, got %d", n)
	}
	if np < 1 {
		return fmt.Errorf("dist: processor count must be positive, got %d", np)
	}
	return nil
}

// Block is the HPF BLOCK format (§4.1.1): q = ⌈N/NP⌉ and
// δ(i) = ⌈i/q⌉, so every block except possibly the last has exactly q
// elements and trailing processors may be empty.
type Block struct{}

// Kind reports KindBlock.
func (Block) Kind() Kind { return KindBlock }

// Validate checks the dimension parameters.
func (Block) Validate(n, np int) error { return checkDims(n, np) }

// Map implements δ(i) = ⌈i/q⌉ with q = ⌈n/np⌉.
func (Block) Map(i, n, np int) int {
	q := (n + np - 1) / np
	return (i-1)/q + 1
}

// Local implements the §4.1.1 local index i - (j-1)q.
func (Block) Local(i, n, np int) int {
	q := (n + np - 1) / np
	return i - ((i-1)/q)*q
}

// Global returns (p-1)q + l, or 0 beyond the owned run.
func (Block) Global(p, l, n, np int) int {
	q := (n + np - 1) / np
	g := (p-1)*q + l
	if l < 1 || l > q || g > n {
		return 0
	}
	return g
}

// OwnedRanges returns the single block of position p (empty for
// trailing processors when q·(p-1) ≥ n).
func (Block) OwnedRanges(p, n, np int) []Range {
	q := (n + np - 1) / np
	lo := (p-1)*q + 1
	hi := p * q
	if hi > n {
		hi = n
	}
	if p < 1 || p > np || lo > hi {
		return nil
	}
	return []Range{{Low: lo, High: hi}}
}

// String renders the directive keyword.
func (Block) String() string { return "BLOCK" }

// BlockVienna is the Vienna Fortran balanced block format assumed in
// the footnote of §8.1.1: block sizes differ by at most one
// (⌈N/NP⌉ for the first N mod NP blocks, ⌊N/NP⌋ for the rest), so no
// processor is left empty and equal-rank arrays of extents N and N+1
// stay aligned block-by-block.
type BlockVienna struct{}

// Kind reports KindBlock: the directive keyword is the same BLOCK.
func (BlockVienna) Kind() Kind { return KindBlock }

// Validate checks the dimension parameters.
func (BlockVienna) Validate(n, np int) error { return checkDims(n, np) }

// start returns the 1-based first global index of block p.
func (BlockVienna) start(p, n, np int) int {
	q, r := n/np, n%np
	s := (p-1)*q + 1
	if p-1 < r {
		s += p - 1
	} else {
		s += r
	}
	return s
}

// Map returns the balanced-block owner of i. When q = 0 (n < np),
// cut = n and every valid index takes the first branch.
func (BlockVienna) Map(i, n, np int) int {
	q, r := n/np, n%np
	cut := r * (q + 1)
	if i <= cut {
		return (i-1)/(q+1) + 1
	}
	return r + (i-cut-1)/q + 1
}

// Local returns i's offset within its block.
func (v BlockVienna) Local(i, n, np int) int {
	return i - v.start(v.Map(i, n, np), n, np) + 1
}

// Global returns the l-th element of block p, or 0 past its extent.
func (v BlockVienna) Global(p, l, n, np int) int {
	rs := v.OwnedRanges(p, n, np)
	if len(rs) == 0 || l < 1 || l > rs[0].Count() {
		return 0
	}
	return rs[0].Low + l - 1
}

// OwnedRanges returns the single balanced block of position p.
func (v BlockVienna) OwnedRanges(p, n, np int) []Range {
	if p < 1 || p > np {
		return nil
	}
	lo := v.start(p, n, np)
	hi := v.start(p+1, n, np) - 1
	if hi > n {
		hi = n
	}
	if lo > hi {
		return nil
	}
	return []Range{{Low: lo, High: hi}}
}

// String renders the directive keyword (the Vienna variant is spelled
// BLOCK as well; programs select it via the interpreter's ViennaBlock
// switch).
func (BlockVienna) String() string { return "BLOCK" }

// Collapsed is the ":" format: the dimension is not distributed, so
// every index maps to the single (implicit) position 1 and the
// dimension does not consume a target dimension.
type Collapsed struct{}

// Kind reports KindCollapsed.
func (Collapsed) Kind() Kind { return KindCollapsed }

// Validate checks the dimension extent.
func (Collapsed) Validate(n, np int) error {
	if n < 1 {
		return fmt.Errorf("dist: dimension extent must be positive, got %d", n)
	}
	return nil
}

// Map always returns position 1.
func (Collapsed) Map(i, n, np int) int { return 1 }

// Local is the identity: the whole dimension is local.
func (Collapsed) Local(i, n, np int) int { return i }

// Global is the identity on position 1.
func (Collapsed) Global(p, l, n, np int) int {
	if p != 1 || l < 1 || l > n {
		return 0
	}
	return l
}

// OwnedRanges reports the full dimension for position 1.
func (Collapsed) OwnedRanges(p, n, np int) []Range {
	if p != 1 || n < 1 {
		return nil
	}
	return []Range{{Low: 1, High: n}}
}

// String renders the ":" of the directive syntax.
func (Collapsed) String() string { return ":" }

// Cyclic is the CYCLIC(k) format (§4.1.3): indices are dealt to
// positions round-robin in contiguous segments of length K. CYCLIC is
// CYCLIC(1).
type Cyclic struct {
	// K is the segment length; must be >= 1.
	K int
}

// NewCyclic returns the CYCLIC(k) format. Invalid k is reported by
// Validate, so the constructor composes directly in format lists.
func NewCyclic(k int) Format { return Cyclic{K: k} }

// Kind reports KindCyclic.
func (Cyclic) Kind() Kind { return KindCyclic }

// Validate checks k >= 1 and the dimension parameters.
func (c Cyclic) Validate(n, np int) error {
	if c.K < 1 {
		return fmt.Errorf("dist: CYCLIC segment length must be positive, got %d", c.K)
	}
	return checkDims(n, np)
}

// Map deals segment ⌊(i-1)/k⌋ to position (⌊(i-1)/k⌋ mod np) + 1.
func (c Cyclic) Map(i, n, np int) int {
	return ((i-1)/c.K)%np + 1
}

// Local counts full owned cycles before i plus its offset within the
// current segment.
func (c Cyclic) Local(i, n, np int) int {
	cycle := (i - 1) / (c.K * np)
	return cycle*c.K + (i-1)%c.K + 1
}

// Global inverts Local for position p, or returns 0 past n.
func (c Cyclic) Global(p, l, n, np int) int {
	if l < 1 {
		return 0
	}
	cycle := (l - 1) / c.K
	off := (l - 1) % c.K
	g := (cycle*np+p-1)*c.K + off + 1
	if p < 1 || p > np || g > n {
		return 0
	}
	return g
}

// OwnedRanges lists position p's segments in increasing order.
func (c Cyclic) OwnedRanges(p, n, np int) []Range {
	if p < 1 || p > np {
		return nil
	}
	var out []Range
	for lo := (p-1)*c.K + 1; lo <= n; lo += c.K * np {
		hi := lo + c.K - 1
		if hi > n {
			hi = n
		}
		out = append(out, Range{Low: lo, High: hi})
	}
	return out
}

// String renders CYCLIC or CYCLIC(k).
func (c Cyclic) String() string {
	if c.K == 1 {
		return "CYCLIC"
	}
	return fmt.Sprintf("CYCLIC(%d)", c.K)
}

// GeneralBlock is the GENERAL_BLOCK format (§4.1.2): an irregular
// contiguous block distribution given by the nondecreasing upper
// bounds G(1..NP-1) of the first NP-1 blocks; block p owns
// (G(p-1), G(p)] with G(0) = 0, and block NP extends to N. A bound
// vector of length NP (with G(NP) = N) is also accepted.
type GeneralBlock struct {
	// Bounds are the inclusive per-block upper bounds.
	Bounds []int
}

// Kind reports KindGeneralBlock.
func (GeneralBlock) Kind() Kind { return KindGeneralBlock }

// Validate checks the bound count, monotonicity and range.
func (g GeneralBlock) Validate(n, np int) error {
	if err := checkDims(n, np); err != nil {
		return err
	}
	if len(g.Bounds) != np-1 && len(g.Bounds) != np {
		return fmt.Errorf("dist: GENERAL_BLOCK needs %d (or %d) bounds for %d processors, got %d", np-1, np, np, len(g.Bounds))
	}
	prev := 0
	for k, b := range g.Bounds {
		if b < prev {
			return fmt.Errorf("dist: GENERAL_BLOCK bounds must be nondecreasing, got G(%d)=%d after %d", k+1, b, prev)
		}
		if b > n {
			return fmt.Errorf("dist: GENERAL_BLOCK bound G(%d)=%d exceeds extent %d", k+1, b, n)
		}
		prev = b
	}
	if len(g.Bounds) == np && g.Bounds[np-1] != n {
		return fmt.Errorf("dist: GENERAL_BLOCK final bound %d must equal extent %d", g.Bounds[np-1], n)
	}
	return nil
}

// Map finds i's block by binary search over the bounds: O(log NP).
func (g GeneralBlock) Map(i, n, np int) int {
	bs := g.Bounds
	if len(bs) >= np {
		bs = bs[:np-1]
	}
	p := sort.SearchInts(bs, i) + 1
	if p > np {
		p = np
	}
	return p
}

// lowBound returns G(p-1), the exclusive lower bound of block p.
func (g GeneralBlock) lowBound(p int) int {
	if p <= 1 {
		return 0
	}
	if p-2 < len(g.Bounds) {
		return g.Bounds[p-2]
	}
	return 0
}

// Local returns i - G(p-1) for i's block p.
func (g GeneralBlock) Local(i, n, np int) int {
	return i - g.lowBound(g.Map(i, n, np))
}

// Global returns G(p-1) + l, or 0 past block p's extent.
func (g GeneralBlock) Global(p, l, n, np int) int {
	rs := g.OwnedRanges(p, n, np)
	if len(rs) == 0 || l < 1 || l > rs[0].Count() {
		return 0
	}
	return rs[0].Low + l - 1
}

// OwnedRanges returns block p's single run (G(p-1), G(p)], which may
// be empty for repeated bounds.
func (g GeneralBlock) OwnedRanges(p, n, np int) []Range {
	if p < 1 || p > np {
		return nil
	}
	lo := g.lowBound(p) + 1
	hi := n
	if p-1 < len(g.Bounds) && p < np {
		hi = g.Bounds[p-1]
	}
	if hi > n {
		hi = n
	}
	if lo > hi {
		return nil
	}
	return []Range{{Low: lo, High: hi}}
}

// String renders GENERAL_BLOCK(/b1,b2,.../) in array-constructor
// syntax.
func (g GeneralBlock) String() string {
	parts := make([]string, len(g.Bounds))
	for i, b := range g.Bounds {
		parts[i] = fmt.Sprint(b)
	}
	return "GENERAL_BLOCK(/" + strings.Join(parts, ",") + "/)"
}

// indirect is the user-defined INDIRECT format: an explicit 1-based
// owner vector, one entry per global index — the generality the
// paper's distribution-function concept provides for (intro point 3,
// §9; cf. Kali and Vienna Fortran user-defined distributions). Local
// index tables and per-owner runs are precomputed at construction so
// Map and Local are O(1).
type indirect struct {
	owner []int
	// local[i] is the 1-based local index of global index i+1.
	local []int32
	// byOwner lists global indices grouped by owner, increasing within
	// each group; owner p's are byOwner[at[p]:at[p+1]].
	byOwner []int32
	at      []int32
	// runs are the maximal contiguous runs grouped by owner, in index
	// order within each group; owner p's are runs[runAt[p]:runAt[p+1]].
	runs  []Range
	runAt []int32
	max   int
	// allRuns are the maximal same-owner runs of the whole vector in
	// index order, and runOf[i] is the index into allRuns of the run
	// holding global index i+1 — so any subinterval's runs are a
	// clipped sub-slice of allRuns and its run count is an O(1) exact
	// difference (not the pessimistic whole-vector bound).
	allRuns []Run
	runOf   []int32
}

// maxIndirectOwner bounds INDIRECT owner entries: the per-owner tables
// are indexed by owner.
const maxIndirectOwner = 1 << 20

// NewIndirect builds an INDIRECT format from a 1-based owner vector
// (owner[i-1] is the owner of global index i). Entries must lie in
// 1..2²⁰; the upper bound against the actual processor count is
// checked by Validate. The tables are built in counted passes — check
// and count, then scatter into per-owner groups sized from the counts
// — so construction allocates the same number of times for any vector
// length.
func NewIndirect(owner []int) (Format, error) {
	if len(owner) == 0 {
		return nil, fmt.Errorf("dist: INDIRECT owner vector must be non-empty")
	}
	f := &indirect{owner: slices.Clone(owner)}
	nruns := 0
	for i, p := range f.owner {
		if p < 1 {
			return nil, fmt.Errorf("dist: INDIRECT owner of index %d must be positive, got %d", i+1, p)
		}
		if p > maxIndirectOwner {
			return nil, fmt.Errorf("dist: INDIRECT owner of index %d is %d, above the %d an owner table can index", i+1, p, maxIndirectOwner)
		}
		f.max = max(f.max, p)
		if i == 0 || p != f.owner[i-1] {
			nruns++
		}
	}
	n := len(f.owner)
	f.local, f.byOwner, f.runOf = make([]int32, n), make([]int32, n), make([]int32, n)
	f.allRuns, f.runs = make([]Run, 0, nruns), make([]Range, nruns)
	f.at, f.runAt = make([]int32, f.max+2), make([]int32, f.max+2)
	for i, p := range f.owner {
		if i == 0 || p != f.owner[i-1] {
			f.allRuns = append(f.allRuns, Run{Lo: i + 1, Hi: i + 1, Proc: p})
			f.runAt[p+1]++
		} else {
			f.allRuns[len(f.allRuns)-1].Hi = i + 1
		}
		f.runOf[i] = int32(len(f.allRuns) - 1)
		f.at[p+1]++
	}
	for p := 1; p <= f.max; p++ {
		f.at[p+1] += f.at[p]
		f.runAt[p+1] += f.runAt[p]
	}
	next := slices.Clone(f.at)
	for i, p := range f.owner {
		f.byOwner[next[p]] = int32(i + 1)
		next[p]++
		f.local[i] = next[p] - f.at[p]
	}
	copy(next, f.runAt)
	for _, r := range f.allRuns {
		f.runs[next[r.Proc]] = Range{Low: r.Lo, High: r.Hi}
		next[r.Proc]++
	}
	return f, nil
}

// Kind reports KindIndirect.
func (*indirect) Kind() Kind { return KindIndirect }

// Validate checks the vector length against the extent and the owner
// entries against the processor count.
func (f *indirect) Validate(n, np int) error {
	if err := checkDims(n, np); err != nil {
		return err
	}
	if len(f.owner) != n {
		return fmt.Errorf("dist: INDIRECT owner vector has %d entries for extent %d", len(f.owner), n)
	}
	if f.max > np {
		return fmt.Errorf("dist: INDIRECT owner %d exceeds processor count %d", f.max, np)
	}
	return nil
}

// Map returns the owner-vector entry of i.
func (f *indirect) Map(i, n, np int) int { return f.owner[i-1] }

// Local returns i's precomputed rank among its owner's indices.
func (f *indirect) Local(i, n, np int) int { return int(f.local[i-1]) }

// Global returns the l-th global index owned by p, or 0 when p holds
// fewer than l elements.
func (f *indirect) Global(p, l, n, np int) int {
	if p < 1 || p > f.max || l < 1 || l > int(f.at[p+1]-f.at[p]) {
		return 0
	}
	return int(f.byOwner[int(f.at[p])+l-1])
}

// OwnedRanges returns p's precomputed maximal runs (nil when p holds
// nothing).
func (f *indirect) OwnedRanges(p, n, np int) []Range {
	if p < 1 || p > f.max || f.runAt[p] == f.runAt[p+1] {
		return nil
	}
	return f.runs[f.runAt[p]:f.runAt[p+1]:f.runAt[p+1]]
}

// String renders the owner vector, eliding long vectors.
func (f *indirect) String() string {
	if len(f.owner) > 16 {
		return fmt.Sprintf("INDIRECT(/...%d entries.../)", len(f.owner))
	}
	parts := make([]string, len(f.owner))
	for i, p := range f.owner {
		parts[i] = fmt.Sprint(p)
	}
	return "INDIRECT(/" + strings.Join(parts, ",") + "/)"
}

// Equal reports whether two formats denote the same distribution
// function: the same family with the same parameters. The two BLOCK
// variants are distinct (they map differently whenever NP does not
// divide N).
func Equal(a, b Format) bool {
	switch x := a.(type) {
	case Block:
		_, ok := b.(Block)
		return ok
	case BlockVienna:
		_, ok := b.(BlockVienna)
		return ok
	case Collapsed:
		_, ok := b.(Collapsed)
		return ok
	case Cyclic:
		y, ok := b.(Cyclic)
		return ok && x.K == y.K
	case GeneralBlock:
		y, ok := b.(GeneralBlock)
		return ok && slices.Equal(x.Bounds, y.Bounds)
	case *indirect:
		y, ok := b.(*indirect)
		return ok && slices.Equal(x.owner, y.owner)
	default:
		return false
	}
}
