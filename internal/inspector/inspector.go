// Package inspector implements the inspector phase of the
// inspector–executor technique for irregular (INDIRECT-style)
// communication — the runtime preprocessing of Kali/PARTI that the
// paper's user-defined distribution functions call for (introduction
// point 3, §9): when subscripts are themselves array elements, the
// communication sets of a statement cannot be derived in closed form
// at compile time, so they are derived *once* at runtime and the
// resulting schedule is reused across iterations.
//
// The input is a flattened gather/scatter access pattern over two
// distributed arrays (Pattern): access k accumulates
// Coeffs[k]·src[Reads[k]] into lhs[Writes[k]], with element positions
// given as column-major offsets into each array's index domain. Build
// buckets the accesses by owning processor (the writer executes, per
// the owner-computes rule), classifies each read as local or
// non-local, deduplicates remote reads per (element, reader) pair,
// and emits a Schedule: one executable plan per worker — distinct
// write list, local reads as element offsets, remote reads as
// ghost-buffer slots — plus one deduplicated gather list per ordered
// processor pair (the halo exchange).
//
// The inspector is engine-neutral and starts no goroutines. Pass 1
// (Partition) is serial; pass 2 (Inspect) is per writer and may run
// on each writer's own worker, writing that worker's kernel lists in
// its local store slots, as the spmd engine (package spmd) does. Build
// runs both passes on one goroutine, in offset space, and is what the
// element-wise reference executor (package runtime) replays over
// dense storage as the differential oracle. Both engines charge the
// machine counters recorded here, so their statistics agree by
// construction; values are asserted equal by the
// FuzzIrregularEquivalence target in package engine. In the pipeline
// this package sits beside the spmd regular compiler: regular (shift)
// statements compile through owner tiles, irregular ones through this
// inspector.
package inspector

import (
	"cmp"
	"fmt"
	"slices"
)

// Pattern is a flattened irregular access pattern: for each access k,
// the statement accumulates Coeffs[k]·src[Reads[k]] into
// lhs[Writes[k]], where Writes and Reads hold 0-based column-major
// element offsets into the lhs and src index domains. Elements of the
// lhs never written keep their values; written elements receive the
// sum of their accesses (simultaneous-assignment semantics). A nil
// Coeffs means all coefficients are 1.
type Pattern struct {
	Writes []int32
	Reads  []int32
	Coeffs []float64
}

// Validate checks the pattern's shape against the two array sizes.
func (pat Pattern) Validate(lhsSize, srcSize int) error {
	if len(pat.Writes) != len(pat.Reads) {
		return fmt.Errorf("inspector: %d writes vs %d reads", len(pat.Writes), len(pat.Reads))
	}
	if pat.Coeffs != nil && len(pat.Coeffs) != len(pat.Writes) {
		return fmt.Errorf("inspector: %d coefficients for %d accesses", len(pat.Coeffs), len(pat.Writes))
	}
	for k, w := range pat.Writes {
		if w < 0 || int(w) >= lhsSize {
			return fmt.Errorf("inspector: access %d writes offset %d outside lhs size %d", k, w, lhsSize)
		}
	}
	for k, r := range pat.Reads {
		if r < 0 || int(r) >= srcSize {
			return fmt.Errorf("inspector: access %d reads offset %d outside src size %d", k, r, srcSize)
		}
	}
	return nil
}

// Plan is one worker's executable share of an irregular statement.
// The access lists are parallel: access j computes
// Coeffs[j]·value(Reads[j]) and accumulates it into accumulator slot
// WriteIx[j]; after all accesses, accumulator slot i stores to lhs
// element Outs[i]. Reads[j] >= 0 is a local read of src element
// offset Reads[j]; Reads[j] < 0 is ghost-buffer slot -(Reads[j]+1),
// filled by the halo exchange. Inspect, given slot maps, writes Outs
// and local Reads as slots instead of offsets. A plan in the gather
// form has none of these lists but Local and Ghost, each in access
// order: every output of its worker has one access.
type Plan struct {
	Outs         []int32
	WriteIx      []int32
	Reads        []int32
	Coeffs       []float64
	Local, Ghost []Ref
	// NGhost is the worker's ghost-buffer length.
	NGhost int
	// Load is the per-execution compute load (one unit per access),
	// and LocalRefs/RemoteRefs the reference classification, charged
	// to the machine on every execution.
	Load       int
	LocalRefs  int
	RemoteRefs int
}

// Ref is one access of a plan in the gather form: output slot Out
// takes 0 + C·v, v the value at slot In of the local source or, in the
// ghost list, at ghost slot In.
type Ref struct {
	Out, In int32
	C       float64
}

// GatherList is the deduplicated halo traffic of one ordered
// processor pair: per execution, Src ships src elements Offsets
// (which it owns) to Dst, which scatters value i into ghost slot
// Targets[i]. Offsets and Targets are parallel.
type GatherList struct {
	Src, Dst int
	Offsets  []int32
	Targets  []int32
}

// Schedule is the compiled, reusable form of one irregular statement:
// per-worker plans plus the per-pair halo exchange. Building it costs
// two passes over the accesses with array-based deduplication (the
// inspector); executing it performs no ownership analysis at all (the
// executor), which is where the reuse across iterations pays.
type Schedule struct {
	NP int
	// Plans[p] is worker p's share (index 1..NP); nil when p has no
	// accesses to execute and no elements to ship.
	Plans []*Plan
	// Pairs lists the halo exchange in deterministic (Src, Dst) order.
	Pairs []GatherList
}

// Build runs the inspector: it partitions the pattern's accesses over
// the owners of the written elements, classifies reads against the
// owners of the read elements, deduplicates remote reads, and
// compiles the per-worker plans and per-pair gather lists.
//
// wOwners and rOwners are the materialized single-owner grids of the
// lhs and src arrays (owner of the element at each column-major
// offset). Replicated arrays have no such grid; callers must refuse
// them before calling Build (ErrReplicated provides the shared error
// text). Build is Partition, then Inspect for w = 1..np in offset space
// (each slot map the identity): the spmd engine's inspection, serially.
func Build(np int, wOwners, rOwners []int32, pat Pattern) (*Schedule, error) {
	b, err := Partition(np, wOwners, rOwners, pat)
	if err != nil {
		return nil, err
	}
	s := &Schedule{NP: np, Plans: make([]*Plan, np+1), Pairs: []GatherList{}}
	var sc Scratch
	iota := make([]int32, max(len(wOwners), len(rOwners)))
	for i := range iota {
		iota[i] = int32(i)
	}
	for w := 1; w <= np; w++ {
		pl, pairs := b.Inspect(w, false, iota[:len(wOwners)], iota[:len(rOwners)], &sc)
		s.Plans[w], s.Pairs = pl, append(s.Pairs, pairs...)
	}
	slices.SortFunc(s.Pairs, func(x, y GatherList) int { return cmp.Or(cmp.Compare(x.Src, y.Src), cmp.Compare(x.Dst, y.Dst)) })
	return s, nil
}

// Buckets is pass 1's result, in the CHAOS shape: the checked accesses
// grouped by writer, writer w's bucket order[bound[w]:bound[w+1]] in
// access order. slot[woff] is 1 + the accumulator slot of lhs offset
// woff; one array serves all writers, as lhs offsets are single-owner.
type Buckets struct {
	rOwners            []int32
	pat                Pattern
	order, bound, slot []int32
}

// Partition is pass 1: it checks every access, counts the accesses per
// writer and buckets them by a stable scatter.
func Partition(np int, wOwners, rOwners []int32, pat Pattern) (*Buckets, error) {
	if len(pat.Writes) != len(pat.Reads) || (pat.Coeffs != nil && len(pat.Coeffs) != len(pat.Writes)) {
		return nil, pat.Validate(len(wOwners), len(rOwners))
	}
	// A bad offset defers to Validate (first bad write, else first bad
	// read), which wins over the first owner outside 1..np. A reader
	// grid without such an owner needs no look-up per access.
	outside := func(p int32) bool { return p < 1 || int(p) > np }
	rChecked := !slices.ContainsFunc(rOwners, outside)
	bound := make([]int32, np+2)
	for k, woff := range pat.Writes {
		roff := pat.Reads[k]
		if woff < 0 || int(woff) >= len(wOwners) || roff < 0 || int(roff) >= len(rOwners) {
			return nil, pat.Validate(len(wOwners), len(rOwners))
		}
		w := wOwners[woff]
		if outside(w) || !rChecked && outside(rOwners[roff]) {
			if err := pat.Validate(len(wOwners), len(rOwners)); err != nil {
				return nil, err
			}
			if outside(w) {
				return nil, fmt.Errorf("inspector: lhs offset %d owned by %d, outside 1..%d", woff, w, np)
			}
			return nil, fmt.Errorf("inspector: src offset %d owned by %d, outside 1..%d", roff, rOwners[roff], np)
		}
		bound[w]++
	}
	// A prefix sum makes bound[w] the end of writer w's bucket; the
	// backward scatter moves it to the start, keeping access order.
	b := &Buckets{rOwners: rOwners, pat: pat, bound: bound,
		order: make([]int32, len(pat.Writes)), slot: make([]int32, len(wOwners))}
	for w := 1; w <= np+1; w++ {
		bound[w] += bound[w-1]
	}
	for k := len(pat.Writes) - 1; k >= 0; k-- {
		w := wOwners[pat.Writes[k]]
		bound[w]--
		b.order[bound[w]] = int32(k)
	}
	return b, nil
}

// Scratch is one goroutine's pass-2 state, reused from writer to
// writer; its zero value is ready. mark[roff] - base, when positive, is
// 1 + the current writer's ghost slot of src offset roff: each pass
// raises base past its marks, so an earlier writer's are stale and
// none is ever cleared. fetch[g] is ghost slot g's src slot and reader.
type Scratch struct {
	mark  []int32
	base  int32
	fetch [][2]int32
}

// Inspect is pass 2 for writer w: it walks w's bucket into w's plan
// and the gather lists of the pairs (r, w) it reads from, in the slots
// wSlots and rSlots give lhs and src offsets. The plan takes the gather
// form when gather is set and no output of w has two accesses. Outputs
// are numbered in first-write order, ghost slots and each gather list
// in first-need order. Nil when w has no accesses. Writers may be
// inspected concurrently, each goroutine with a scratch of its own.
func (b *Buckets) Inspect(w int, gather bool, wSlots, rSlots []int32, sc *Scratch) (*Plan, []GatherList) {
	bucket, pat, outs := b.order[b.bound[w]:b.bound[w+1]], b.pat, int32(0)
	if len(bucket) == 0 {
		return nil, nil
	}
	for _, k := range bucket {
		if woff := pat.Writes[k]; b.slot[woff] == 0 {
			outs++
			b.slot[woff] = outs
		}
	}
	pl, refs := &Plan{Load: len(bucket)}, []Ref(nil)
	if gather = gather && int(outs) == len(bucket); gather {
		refs = make([]Ref, len(bucket)) // locals from the front, ghosts from the back
	} else {
		pl.Outs = make([]int32, 0, outs)
		pl.WriteIx, pl.Reads, pl.Coeffs = make([]int32, len(bucket)), make([]int32, len(bucket)), make([]float64, len(bucket))
	}
	if sc.mark == nil {
		sc.mark = make([]int32, len(b.rOwners))
	}
	sc.fetch = slices.Grow(sc.fetch[:0], len(bucket))
	perSrc := make([]int32, len(b.bound)-1) // ghost slots per reader, then the index of its list
	for j, k := range bucket {
		woff, roff, c := pat.Writes[k], pat.Reads[k], 1.0
		if pat.Coeffs != nil {
			c = pat.Coeffs[k]
		}
		// One load of each grid, issued together: in is the local slot,
		// or -(1 + the ghost slot).
		r, in, m := b.rOwners[roff], rSlots[roff], sc.mark[roff]
		if int(r) == w {
			pl.LocalRefs++
		} else {
			pl.RemoteRefs++
			if m <= sc.base {
				sc.fetch = append(sc.fetch, [2]int32{in, r})
				m = sc.base + int32(len(sc.fetch))
				sc.mark[roff] = m
				perSrc[r]++
			}
			in = sc.base - m
		}
		switch {
		case !gather:
			ix := b.slot[woff] - 1
			if int(ix) == len(pl.Outs) {
				pl.Outs = append(pl.Outs, wSlots[woff])
			}
			pl.WriteIx[j], pl.Reads[j], pl.Coeffs[j] = ix, in, c
		case in >= 0:
			refs[pl.LocalRefs-1] = Ref{wSlots[woff], in, c}
		default:
			refs[len(refs)-pl.RemoteRefs] = Ref{wSlots[woff], -in - 1, c}
		}
	}
	if gather {
		pl.Local, pl.Ghost = refs[:pl.LocalRefs], refs[pl.LocalRefs:]
		slices.Reverse(pl.Ghost)
	}
	pl.NGhost = len(sc.fetch)
	var pairs []GatherList
	for r, n := range perSrc {
		if n > 0 {
			perSrc[r] = int32(len(pairs))
			pairs = append(pairs, GatherList{Src: r, Dst: w, Offsets: make([]int32, 0, n), Targets: make([]int32, 0, n)})
		}
	}
	for g, f := range sc.fetch {
		pr := &pairs[perSrc[f[1]]]
		pr.Offsets, pr.Targets = append(pr.Offsets, f[0]), append(pr.Targets, int32(g))
	}
	sc.base += int32(len(sc.fetch))
	return pl, pairs
}

// GhostElements reports the total deduplicated halo traffic per
// execution.
func (s *Schedule) GhostElements() int {
	total := 0
	for _, pr := range s.Pairs {
		total += len(pr.Offsets)
	}
	return total
}

// Messages reports the number of aggregated messages per execution.
func (s *Schedule) Messages() int { return len(s.Pairs) }

// ErrReplicated is the shared error text for irregular statements
// over replicated arrays: they have no single-owner grid, so the
// inspector's ownership partition does not exist. Both engines refuse
// with this same message so differential tests see identical errors.
const ErrReplicated = "irregular schedule requires single-owner mappings"
