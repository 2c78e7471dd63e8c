// Package runtime executes array statements over distributed arrays
// under the owner-computes rule, charging communication to a
// simulated machine (package machine). A statement like the
// staggered-grid update of §8.1.1,
//
//	P = U(0:N-1,:) + U(1:N,:) + V(:,0:N-1) + V(:,1:N)
//
// is expressed as a statement whose right-hand-side terms read
// distributed arrays through an index.Access (a shift, a permutation,
// a dropped dimension), built once as a Schedule and executed; every
// reference whose owner differs from the left-hand-side owner becomes
// remote traffic, aggregated into one message per processor pair per
// statement (message vectorization), with per-statement deduplication
// of repeated remote elements.
//
// It is the element-wise reference executor: values live in one dense
// global backing, ownership in per-element owner grids, and every
// analysis walks elements — no owner tiles, cells, layouts or plans.
// That independence is its job. The SPMD engine (package spmd), under
// both its dispatchers, must produce identical array values and
// identical machine statistics to this package for any statement,
// schedule replay, remap or reduction; engine.NewOracle puts it behind
// the backend interface, and the tests and fuzz targets in
// internal/engine assert that equivalence.
package runtime

import (
	"fmt"
	"slices"

	"hpfnt/internal/core"
	"hpfnt/internal/index"
	"hpfnt/internal/machine"
)

// Array is a distributed array: a dense global value backing plus the
// materialized ownership map of its element mapping. (Semantically
// each processor stores only its owned elements; the dense backing
// keeps verification simple while the ownership map drives all
// communication accounting.)
type Array struct {
	Name string
	Dom  index.Domain

	data    []float64
	owners  []int32 // single-owner fast path; nil when replicated
	repOwns [][]int // full owner sets when replicated
	mapping core.ElementMapping
	// gen counts remaps; schedules capture it at build time and refuse
	// to replay against a remapped array.
	gen int
}

// NewArray materializes a distributed array from an element mapping,
// zero-initialized.
func NewArray(name string, m core.ElementMapping) (*Array, error) {
	a := &Array{Name: name, Dom: m.Domain(), mapping: m}
	a.data = make([]float64, a.Dom.Size())
	g, err := core.OwnerGrid(m)
	if err == nil {
		a.owners = g
		return a, nil
	}
	rg, rerr := core.ReplicatedGrid(m)
	if rerr != nil {
		return nil, fmt.Errorf("runtime: materializing %s: %w", name, rerr)
	}
	a.repOwns = rg
	return a, nil
}

// Mapping returns the array's element mapping.
func (a *Array) Mapping() core.ElementMapping { return a.mapping }

// Replicated reports whether any element has more than one owner.
func (a *Array) Replicated() bool { return a.owners == nil }

// At reads the element at tuple t.
func (a *Array) At(t index.Tuple) float64 {
	off, ok := a.Dom.Offset(t)
	if !ok {
		panic(fmt.Sprintf("runtime: %s: index %s out of domain %s", a.Name, t, a.Dom))
	}
	return a.data[off]
}

// Set writes the element at tuple t.
func (a *Array) Set(t index.Tuple, v float64) {
	off, ok := a.Dom.Offset(t)
	if !ok {
		panic(fmt.Sprintf("runtime: %s: index %s out of domain %s", a.Name, t, a.Dom))
	}
	a.data[off] = v
}

// Fill initializes every element from fn.
func (a *Array) Fill(fn func(t index.Tuple) float64) {
	k := 0
	a.Dom.ForEach(func(t index.Tuple) bool {
		a.data[k] = fn(t)
		k++
		return true
	})
}

// Data exposes the dense backing (column-major) for verification.
func (a *Array) Data() []float64 { return a.data }

// ownerSet returns the owners of the element at offset off.
func (a *Array) ownerSet(off int) []int {
	if a.owners != nil {
		return []int{int(a.owners[off])}
	}
	return a.repOwns[off]
}

// ownedBy reports whether processor p owns the element at offset off.
func (a *Array) ownedBy(off int, p int) bool {
	if a.owners != nil {
		return int(a.owners[off]) == p
	}
	return slices.Contains(a.repOwns[off], p)
}

// Term is one right-hand-side reference Coeff · Src(Access(t)): a
// shift, a permutation or a rank-reducing read such as the A(i) in
// E(i,j) = D(i,j) + A(i).
type Term struct {
	Src    *Array
	Coeff  float64
	Access index.Access
}

// at returns the source offset term tm reads for the lhs index t; ref,
// built in buf, is the source index.
func (tm Term) at(t, buf index.Tuple) (off int, ref index.Tuple, ok bool) {
	ref = tm.Access.Apply(t, buf)
	off, ok = tm.Src.Dom.Offset(ref)
	return off, ref, ok
}

type commKey struct {
	src *Array
	off int
	dst int
}

// evaluate computes lhs(region) = Σ terms into a temporary and then
// stores it (simultaneous assignment semantics); nothing is stored
// when a region index or a reference is out of bounds.
func evaluate(lhs *Array, region index.Domain, terms []Term) error {
	vals := make([]float64, region.Size())
	offs := make([]int, region.Size())
	buf := make(index.Tuple, lhs.Dom.Rank())
	k := 0
	var ferr error
	region.ForEach(func(t index.Tuple) bool {
		loff, ok := lhs.Dom.Offset(t)
		if !ok {
			ferr = fmt.Errorf("runtime: region index %s outside %s domain %s", t, lhs.Name, lhs.Dom)
			return false
		}
		offs[k] = loff
		sum := 0.0
		for _, tm := range terms {
			roff, ref, ok := tm.at(t, buf)
			if !ok {
				ferr = fmt.Errorf("runtime: reference %s(%s) out of bounds in assignment to %s(%s)", tm.Src.Name, ref, lhs.Name, t)
				return false
			}
			sum += tm.Coeff * tm.Src.data[roff]
		}
		vals[k] = sum
		k++
		return true
	})
	if ferr != nil {
		return ferr
	}
	for i := 0; i < k; i++ {
		lhs.data[offs[i]] = vals[i]
	}
	return nil
}

// RemapSender picks which holder of a (possibly replicated) element
// ships it to new owner dst during a remap: destinations are spread
// round-robin over the replica set, so a replicated source does not
// funnel all outgoing remap traffic through its first owner. Both this
// executor and the spmd engine use this rule, keeping their traffic
// statistics identical.
func RemapSender(old []int, dst int) int {
	if len(old) == 1 {
		return old[0]
	}
	return old[(dst-1)%len(old)]
}

// Remap moves an array to a new element mapping, charging one
// aggregated message per processor pair for all elements whose owner
// set changes, and returns the number of elements moved. The values
// are unchanged; only ownership (and therefore placement) moves. This
// is the data movement behind REDISTRIBUTE, REALIGN and explicit
// dummy-argument remapping (§4.2, §5.2, §7). Owner sets are compared
// element by element.
func Remap(m *machine.Machine, a *Array, newMap core.ElementMapping) (int, error) {
	if !newMap.Domain().Equal(a.Dom) {
		return 0, fmt.Errorf("runtime: remap of %s to mapping over %s (have %s)", a.Name, newMap.Domain(), a.Dom)
	}
	b := &Array{Name: a.Name, Dom: a.Dom, mapping: newMap}
	var err error
	if b.owners, err = core.OwnerGrid(newMap); err != nil {
		if b.repOwns, err = core.ReplicatedGrid(newMap); err != nil {
			return 0, fmt.Errorf("runtime: remap of %s: %w", a.Name, err)
		}
	}
	moved := 0
	pairElems := map[[2]int]int{}
	for off := range a.data {
		old, gained := a.ownerSet(off), false
		for _, p := range b.ownerSet(off) {
			if !slices.Contains(old, p) {
				gained = true
				pairElems[[2]int{RemapSender(old, p), p}]++
			}
		}
		if gained {
			moved++
		}
	}
	if m != nil {
		for pr, n := range pairElems {
			m.Send(pr[0], pr[1], n)
		}
	}
	a.owners, a.repOwns, a.mapping = b.owners, b.repOwns, newMap
	a.gen++
	return moved, nil
}

// SeqArray is the sequential reference executor's array: values only,
// no distribution.
type SeqArray struct {
	Dom  index.Domain
	data []float64
}

// NewSeqArray allocates a zeroed sequential array.
func NewSeqArray(dom index.Domain) *SeqArray {
	return &SeqArray{Dom: dom, data: make([]float64, dom.Size())}
}

// Fill initializes every element from fn.
func (a *SeqArray) Fill(fn func(t index.Tuple) float64) {
	k := 0
	a.Dom.ForEach(func(t index.Tuple) bool {
		a.data[k] = fn(t)
		k++
		return true
	})
}

// At reads the element at t.
func (a *SeqArray) At(t index.Tuple) float64 {
	off, ok := a.Dom.Offset(t)
	if !ok {
		panic(fmt.Sprintf("runtime: seq index %s out of domain %s", t, a.Dom))
	}
	return a.data[off]
}

// Data exposes the dense backing.
func (a *SeqArray) Data() []float64 { return a.data }

// SeqTerm is a shifted reference for the sequential executor.
type SeqTerm struct {
	Src   *SeqArray
	Shift []int
	Coeff float64
}

// SeqShiftAssign is the sequential reference semantics of a shifted
// statement, used to verify the distributed executor.
func SeqShiftAssign(lhs *SeqArray, region index.Domain, terms []SeqTerm) error {
	vals := make([]float64, region.Size())
	offs := make([]int, region.Size())
	ref := make(index.Tuple, lhs.Dom.Rank())
	k := 0
	var ferr error
	region.ForEach(func(t index.Tuple) bool {
		loff, ok := lhs.Dom.Offset(t)
		if !ok {
			ferr = fmt.Errorf("runtime: region index %s outside domain %s", t, lhs.Dom)
			return false
		}
		offs[k] = loff
		sum := 0.0
		for _, tm := range terms {
			for d := range t {
				ref[d] = t[d] + tm.Shift[d]
			}
			roff, ok := tm.Src.Dom.Offset(ref)
			if !ok {
				ferr = fmt.Errorf("runtime: seq reference %s out of bounds", ref)
				return false
			}
			sum += tm.Coeff * tm.Src.data[roff]
		}
		vals[k] = sum
		k++
		return true
	})
	if ferr != nil {
		return ferr
	}
	for i := 0; i < k; i++ {
		lhs.data[offs[i]] = vals[i]
	}
	return nil
}
