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
// partitions the accesses by owning processor (the writer executes,
// per the owner-computes rule), classifies each read as local or
// non-local, deduplicates remote reads per (element, reader) pair,
// and emits a Schedule: one executable plan per worker — distinct
// write list, local reads as element offsets, remote reads as
// ghost-buffer slots — plus one deduplicated gather list per ordered
// processor pair (the halo exchange).
//
// The schedule is engine-neutral: the element-wise reference executor
// (package runtime) executes it over dense storage as the differential
// oracle, and the spmd engine (package spmd) lowers offsets to local
// store slots and ships the gather lists as real messages. Both charge
// the machine counters recorded here, so their statistics agree by
// construction; values are asserted equal by the
// FuzzIrregularEquivalence target in package engine. In the pipeline
// this package sits beside the spmd regular compiler: regular (shift)
// statements compile through owner tiles, irregular ones through this
// inspector.
package inspector

import (
	"fmt"
	"sort"
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
// filled by the halo exchange.
type Plan struct {
	Outs    []int32
	WriteIx []int32
	Reads   []int32
	Coeffs  []float64
	// NGhost is the worker's ghost-buffer length.
	NGhost int
	// Load is the per-execution compute load (one unit per access),
	// and LocalRefs/RemoteRefs the reference classification, charged
	// to the machine on every execution.
	Load       int
	LocalRefs  int
	RemoteRefs int
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
// one pass over the accesses with hash-based deduplication (the
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

// haloKey identifies one deduplicated remote read: src element
// offset per reading worker.
type haloKey struct {
	off int32
	w   int
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
// text).
func Build(np int, wOwners, rOwners []int32, pat Pattern) (*Schedule, error) {
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
	// accIx[w] maps a written lhs offset to its accumulator slot on
	// its owner (offsets are single-owner, so one map serves all
	// workers); ghosts maps deduplicated remote reads to ghost slots.
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
	// Deterministic pair order: sort by (Src, Dst). Insertion order
	// already groups each pair's elements in first-need order.
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
