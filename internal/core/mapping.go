// Package core implements the paper's distribution-and-alignment
// model without templates: the data space and alignment forest of
// §2.4 (trees of height at most 1 with primary and secondary arrays),
// the CONSTRUCT composition of Definition 4, the DISTRIBUTE / ALIGN /
// REDISTRIBUTE / REALIGN semantics of §4–§5, allocatable array
// handling per §6, and the procedure-boundary machinery of §7. In
// the pipeline this is the composition layer: it turns the
// per-dimension formats of package dist and the alignment functions
// of package align into the ElementMapping every executor consumes,
// and extends the run-length ownership kernel (owner tiles) across
// alignment and procedure-boundary composition.
package core

import (
	"fmt"

	"hpfnt/internal/align"
	"hpfnt/internal/dist"
	"hpfnt/internal/index"
)

// ElementMapping is the element-based view of an index mapping
// (Definition 1, §2.1): a total function from an array's index domain
// to non-empty sets of abstract processors. Direct distributions,
// constructed (aligned) distributions, and inherited section mappings
// all implement it.
type ElementMapping interface {
	// Domain is the array's index domain.
	Domain() index.Domain
	// AppendOwners appends the non-empty set of abstract processor
	// numbers owning element i to dst, each once.
	AppendOwners(dst []int, i index.Tuple) ([]int, error)
	// AppendOwnerTiles appends tiles that exactly partition region
	// (a standard sub-rectangle of the domain), each owned by a
	// single abstract processor. It returns dist.ErrMultiOwner when
	// some element has several owners, and ErrNoBulk when the mapping
	// (or a mapping it composes over) admits no closed-form
	// decomposition; it never enumerates elements itself (OwnerTiles
	// does).
	AppendOwnerTiles(dst []Tile, region index.Domain) ([]Tile, error)
	// Describe renders a human-readable description of the mapping.
	Describe() string
}

// DistMapping adapts a direct distribution to ElementMapping.
type DistMapping struct {
	D *dist.Distribution
}

// Domain returns the distributee's domain.
func (m DistMapping) Domain() index.Domain { return m.D.Array }

// Describe renders the distribution in directive syntax.
func (m DistMapping) Describe() string { return m.D.String() }

// Constructed is the distribution of a secondary array, built by
// Definition 4: δ_A = CONSTRUCT(α, δ_B), i.e.
// δ_A(i) = ∪_{j ∈ α(i)} δ_B(j). If i is mapped to an index j of B via
// α, then A(i) and B(j) are guaranteed to reside in the same
// processor under any distribution of B.
type Constructed struct {
	// Alpha is the alignment function from the secondary to its base.
	Alpha *align.Function
	// BaseMap is the base's element mapping (always a DistMapping in
	// a well-formed forest, since bases are primary).
	BaseMap ElementMapping
}

// Construct builds δ_A = CONSTRUCT(α, δ_B).
func Construct(alpha *align.Function, baseMap ElementMapping) *Constructed {
	return &Constructed{Alpha: alpha, BaseMap: baseMap}
}

// Domain returns the alignee's domain.
func (c *Constructed) Domain() index.Domain { return c.Alpha.Alignee }

// Describe renders the construction.
func (c *Constructed) Describe() string {
	return fmt.Sprintf("CONSTRUCT(%s, %s)", c.Alpha.Spec(), c.BaseMap.Describe())
}

// SectionMapping is the mapping inherited by a dummy argument whose
// actual argument is an array section (§8.1.2): the dummy's
// normalized index domain maps through the section's subscript
// triplets into the actual array's mapping. Such inherited
// distributions "cannot be explicitly specified" as format lists in
// general; inquiry functions (package inquiry) interrogate them.
type SectionMapping struct {
	// Dummy is the dummy argument's (normalized) index domain.
	Dummy index.Domain
	// Section holds the selecting triplets over the actual array.
	Section index.Domain
	// Actual is the actual argument's element mapping.
	Actual ElementMapping
}

// NewSectionMapping builds the inherited mapping of a section actual.
func NewSectionMapping(section index.Domain, actual ElementMapping) (*SectionMapping, error) {
	if section.Rank() != actual.Domain().Rank() {
		return nil, fmt.Errorf("core: section rank %d does not match array rank %d", section.Rank(), actual.Domain().Rank())
	}
	return &SectionMapping{Dummy: section.Normalize(), Section: section, Actual: actual}, nil
}

// Domain returns the dummy's normalized domain.
func (s *SectionMapping) Domain() index.Domain { return s.Dummy }

// Describe renders the inherited-section mapping.
func (s *SectionMapping) Describe() string {
	return fmt.Sprintf("INHERITED %s OF %s", s.Section, s.Actual.Describe())
}

// OwnerGrid materializes the single-owner map of a mapping into a
// dense column-major slice, one AppendOwners per element into one
// reused buffer (and reports an error if any element is replicated;
// use ReplicatedGrid then). It is the ownership map of the
// element-wise reference executor (package runtime).
func OwnerGrid(m ElementMapping) ([]int32, error) {
	dom := m.Domain()
	out := make([]int32, dom.Size())
	var scratch []int
	var ferr error
	k := 0
	dom.ForEach(func(t index.Tuple) bool {
		os, err := m.AppendOwners(scratch[:0], t)
		if err != nil {
			ferr = err
			return false
		}
		scratch = os
		if len(os) != 1 {
			ferr = fmt.Errorf("core: element %s has %d owners; OwnerGrid requires single-owner mappings (use ReplicatedGrid)", t, len(os))
			return false
		}
		out[k] = int32(os[0])
		k++
		return true
	})
	if ferr != nil {
		return nil, ferr
	}
	return out, nil
}

// ReplicatedGrid materializes the full owner sets of a mapping. This
// is the replicated-write path; owner sets are appended straight into
// the per-element result slices, with no intermediate garbage.
func ReplicatedGrid(m ElementMapping) ([][]int, error) {
	dom := m.Domain()
	out := make([][]int, dom.Size())
	var ferr error
	k := 0
	dom.ForEach(func(t index.Tuple) bool {
		os, err := m.AppendOwners(nil, t)
		if err != nil {
			ferr = err
			return false
		}
		out[k] = os
		k++
		return true
	})
	if ferr != nil {
		return nil, ferr
	}
	return out, nil
}
