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

// ghostMark is the ghost slot g worker w gave a src offset; a mark of
// an earlier writer is stale, so the marks never need clearing.
type ghostMark struct{ w, g int32 }

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
//
// Two passes, in the CHAOS shape: pass 1 checks the accesses and
// counts them per writer, a stable scatter buckets them, and pass 2
// walks each bucket into exactly sized lists, deduplicating through
// arrays over the lhs and src offsets rather than maps. A worker's
// lists depend only on its own accesses in access order, so they are
// what one in-order pass over all accesses would build.
func Build(np int, wOwners, rOwners []int32, pat Pattern) (*Schedule, error) {
	if len(pat.Writes) != len(pat.Reads) || (pat.Coeffs != nil && len(pat.Coeffs) != len(pat.Writes)) {
		return nil, pat.Validate(len(wOwners), len(rOwners))
	}
	// Pass 1. A bad offset defers to Validate (first bad write, else
	// first bad read), which wins over the first owner outside 1..np.
	bound := make([]int32, np+2)
	for k, woff := range pat.Writes {
		roff := pat.Reads[k]
		if woff < 0 || int(woff) >= len(wOwners) || roff < 0 || int(roff) >= len(rOwners) {
			return nil, pat.Validate(len(wOwners), len(rOwners))
		}
		w, r := int(wOwners[woff]), int(rOwners[roff])
		if w < 1 || w > np || r < 1 || r > np {
			if err := pat.Validate(len(wOwners), len(rOwners)); err != nil {
				return nil, err
			}
			if w < 1 || w > np {
				return nil, fmt.Errorf("inspector: lhs offset %d owned by %d, outside 1..%d", woff, w, np)
			}
			return nil, fmt.Errorf("inspector: src offset %d owned by %d, outside 1..%d", roff, r, np)
		}
		bound[w]++
	}
	// A prefix sum makes bound[w] the end of writer w's bucket; the
	// backward scatter moves it to the start, keeping access order.
	biggest := int32(0)
	for w := 1; w <= np+1; w++ {
		biggest = max(biggest, bound[w])
		bound[w] += bound[w-1]
	}
	order := make([]int32, len(pat.Writes))
	for k := len(pat.Writes) - 1; k >= 0; k-- {
		w := wOwners[pat.Writes[k]]
		bound[w]--
		order[bound[w]] = int32(k)
	}

	// Pass 2. slot[woff] is 1 + the accumulator slot of lhs offset woff
	// (one array serves all writers: lhs offsets are single-owner).
	slot := make([]int32, len(wOwners))
	marks := make([]ghostMark, len(rOwners))
	ghostOffs := make([]int32, 0, biggest) // the writer's ghost slots' src offsets
	perSrc := make([]int32, np+1)          // the writer's ghost slots per reader
	pairOf := make([]int, np+1)            // index in pairs of (reader, writer)
	pairs := []GatherList{}
	s := &Schedule{NP: np, Plans: make([]*Plan, np+1)}
	for w := 1; w <= np; w++ {
		bucket := order[bound[w]:bound[w+1]]
		if len(bucket) == 0 {
			continue
		}
		pl := &Plan{
			Outs:    make([]int32, 0, len(bucket)),
			WriteIx: make([]int32, len(bucket)),
			Reads:   make([]int32, len(bucket)),
			Coeffs:  make([]float64, len(bucket)),
			Load:    len(bucket),
		}
		ghostOffs = ghostOffs[:0]
		clear(perSrc)
		for j, k := range bucket {
			woff := pat.Writes[k]
			if slot[woff] == 0 {
				pl.Outs = append(pl.Outs, woff)
				slot[woff] = int32(len(pl.Outs))
			}
			pl.WriteIx[j] = slot[woff] - 1
			pl.Coeffs[j] = 1
			if pat.Coeffs != nil {
				pl.Coeffs[j] = pat.Coeffs[k]
			}
			roff := pat.Reads[k]
			r := rOwners[roff]
			if int(r) == w {
				pl.LocalRefs++
				pl.Reads[j] = roff
				continue
			}
			pl.RemoteRefs++
			m := &marks[roff]
			if int(m.w) != w {
				*m = ghostMark{w: int32(w), g: int32(len(ghostOffs))}
				ghostOffs = append(ghostOffs, roff)
				perSrc[r]++
			}
			pl.Reads[j] = -(m.g + 1)
		}
		pl.NGhost = len(ghostOffs)
		s.Plans[w] = pl
		// Filled in ghost-slot order, each gather list is in first-need order.
		for r := 1; r <= np; r++ {
			if perSrc[r] > 0 {
				pairOf[r] = len(pairs)
				pairs = append(pairs, GatherList{Src: r, Dst: w,
					Offsets: make([]int32, 0, perSrc[r]), Targets: make([]int32, 0, perSrc[r])})
			}
		}
		for g, roff := range ghostOffs {
			pr := &pairs[pairOf[rOwners[roff]]]
			pr.Offsets = append(pr.Offsets, roff)
			pr.Targets = append(pr.Targets, int32(g))
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Src != pairs[j].Src {
			return pairs[i].Src < pairs[j].Src
		}
		return pairs[i].Dst < pairs[j].Dst
	})
	s.Pairs = pairs // in deterministic (Src, Dst) order
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
