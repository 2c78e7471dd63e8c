package dist

import (
	"fmt"
	"strings"

	"hpfnt/internal/index"
	"hpfnt/internal/proc"
)

// dimTable is the precomputed per-dimension state of a distribution:
// the dimension's bounds, its format, and — for distributed
// dimensions — the extent of the matched target dimension and its
// column-major multiplier into the target's effective index domain.
type dimTable struct {
	low, high int // inclusive global bounds of the array dimension
	n         int // extent
	f         Format
	collapsed bool
	np        int // matched target-dimension extent (1 if collapsed)
	mult      int // column-major multiplier of the matched target dim
}

// Distribution is a direct (template-free) distribution of one array
// (§4): one format per dimension applied to a processor target. The
// k-th non-collapsed format is matched to the k-th dimension of the
// target's effective index domain, whose rank must equal the number
// of non-collapsed formats.
//
// All per-dimension tables and the target's abstract-processor
// numbering are precomputed at New, so Owners is allocation-free on
// the hot path: it returns an owner-set slice interned per processor.
// Callers must treat the returned slices as immutable.
type Distribution struct {
	// Array is the distributee's index domain.
	Array index.Domain
	// Formats holds the per-dimension distribution formats.
	Formats []Format
	// Target is the processor arrangement or section distributed to.
	Target proc.Target

	dims []dimTable
	// aps[k] is the abstract processor at column-major position k of
	// the target's effective domain.
	aps []int
	// singles[k] is the interned one-element owner set {aps[k]}.
	singles [][]int
	// repl is the owner set of every element when the target is a
	// conceptually scalar arrangement (§3: one processor, or all of
	// them under the replicated policy); nil for array targets.
	repl []int
}

// New builds the distribution of an array with index domain dom by
// the given per-dimension formats onto target. It validates rank
// agreement (len(formats) == dom.Rank(), non-collapsed formats ==
// target rank) and each format against its dimension, and precomputes
// the owner-lookup tables.
func New(dom index.Domain, formats []Format, target proc.Target) (*Distribution, error) {
	if target.Arr == nil {
		return nil, fmt.Errorf("dist: distribution requires a processor target")
	}
	if len(formats) != dom.Rank() {
		return nil, fmt.Errorf("dist: %d formats for a rank-%d array", len(formats), dom.Rank())
	}
	if !dom.IsStandard() {
		return nil, fmt.Errorf("dist: distributee domain %s must be standard (stride 1)", dom)
	}
	if dom.Empty() && dom.Rank() > 0 {
		return nil, fmt.Errorf("dist: distributee domain %s is empty", dom)
	}
	for i, f := range formats {
		if f == nil {
			return nil, fmt.Errorf("dist: nil format in dimension %d", i+1)
		}
	}

	d := &Distribution{
		Array:   dom,
		Formats: append([]Format(nil), formats...),
		Target:  target,
	}

	eff := target.Domain()
	nonColon := 0
	for _, f := range formats {
		if f.Kind() != KindCollapsed {
			nonColon++
		}
	}
	if nonColon != eff.Rank() {
		return nil, fmt.Errorf("dist: %d distributed dimensions but target %s has rank %d", nonColon, target, eff.Rank())
	}

	d.dims = make([]dimTable, dom.Rank())
	k, mult := 0, 1
	for i, f := range formats {
		tr := dom.Dims[i]
		dt := dimTable{low: tr.Low, high: tr.High, n: tr.Count(), f: f, np: 1, mult: 0}
		dt.collapsed = f.Kind() == KindCollapsed
		if !dt.collapsed {
			dt.np = eff.Extent(k)
			dt.mult = mult
			mult *= dt.np
			k++
		}
		if err := f.Validate(dt.n, dt.np); err != nil {
			return nil, fmt.Errorf("dist: dimension %d: %w", i+1, err)
		}
		d.dims[i] = dt
	}

	if target.Arr.Scalar {
		d.repl = target.Arr.ScalarAPNumbers()
		return d, nil
	}
	aps, err := target.APNumbers()
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	d.aps = aps
	d.singles = make([][]int, len(aps))
	for i, p := range aps {
		d.singles[i] = []int{p}
	}
	return d, nil
}

// Owners returns the non-empty owner set of element i (Definition 1).
// For array targets the set is a single abstract processor; for
// scalar targets it follows the arrangement's placement policy
// (possibly all processors, under replication). The returned slice is
// shared and must not be modified.
func (d *Distribution) Owners(i index.Tuple) ([]int, error) {
	k, err := d.position(i)
	if err != nil {
		return nil, err
	}
	if d.repl != nil {
		return d.repl, nil
	}
	return d.singles[k], nil
}

// AppendOwners appends the owner set of element i to dst: Owners for
// callers that own their slice (inquiry functions, replicated-write
// paths).
func (d *Distribution) AppendOwners(dst []int, i index.Tuple) ([]int, error) {
	k, err := d.position(i)
	if err != nil {
		return nil, err
	}
	if d.repl != nil {
		return append(dst, d.repl...), nil
	}
	return append(dst, d.aps[k]), nil
}

// position returns the column-major position in the target's
// effective domain of element i's owner, composed from each
// distributed dimension's δ. Scalar targets validate i and return 0:
// their owner set is repl.
func (d *Distribution) position(i index.Tuple) (int, error) {
	if len(i) != len(d.dims) {
		return 0, fmt.Errorf("dist: rank-%d index %s for rank-%d distribution", len(i), i, len(d.dims))
	}
	k := 0
	for dim := range d.dims {
		dt := &d.dims[dim]
		v := i[dim]
		if v < dt.low || v > dt.high {
			return 0, fmt.Errorf("dist: index %s outside domain %s", i, d.Array)
		}
		if !dt.collapsed {
			k += (dt.f.Map(v-dt.low+1, dt.n, dt.np) - 1) * dt.mult
		}
	}
	if d.repl == nil && (k < 0 || k >= len(d.aps)) {
		return 0, fmt.Errorf("dist: index %s mapped outside target %s", i, d.Target)
	}
	return k, nil
}

// NP reports the number of processors in the target.
func (d *Distribution) NP() int { return d.Target.NP() }

// Equal reports structural equality: same distributee domain, same
// per-dimension formats, same target.
func (d *Distribution) Equal(o *Distribution) bool {
	if d == nil || o == nil {
		return d == o
	}
	if !d.Array.Equal(o.Array) || !d.Target.Equal(o.Target) || len(d.Formats) != len(o.Formats) {
		return false
	}
	for i := range d.Formats {
		if !Equal(d.Formats[i], o.Formats[i]) {
			return false
		}
	}
	return true
}

// String renders the distribution in directive syntax:
// "(BLOCK,:) TO P".
func (d *Distribution) String() string {
	parts := make([]string, len(d.Formats))
	for i, f := range d.Formats {
		parts[i] = f.String()
	}
	return "(" + strings.Join(parts, ",") + ") TO " + d.Target.String()
}
