// Package inquiry implements distribution and alignment inquiry
// functions. The paper relies on these where HPF would have needed to
// pass templates across procedure boundaries (§8.1.2, §8.2: "Even in
// the case of inherited distributions which cannot be explicitly
// specified, inquiry functions can be used to determine every aspect
// of the distribution passed into the procedure"). In the pipeline it
// is a read-only consumer: it describes the element mappings package
// core produces, without affecting execution.
package inquiry

import (
	"fmt"
	"sort"
	"strings"

	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/index"
	"hpfnt/internal/template"
)

// DimInfo summarizes one dimension of a format-based distribution.
type DimInfo struct {
	// Format is the distribution format kind of the dimension.
	Format dist.Kind
	// CyclicK is the segment length for CYCLIC formats.
	CyclicK int
	// GeneralBounds holds GENERAL_BLOCK bounds when applicable.
	GeneralBounds []int
	// Distributed reports whether the dimension is matched to a
	// target dimension.
	Distributed bool
}

// Info is the full inquiry result for an array mapping.
type Info struct {
	// Rank of the array.
	Rank int
	// Domain is the array's index domain.
	Domain index.Domain
	// Direct reports whether the mapping is a format-based
	// distribution of the array itself.
	Direct bool
	// Dims holds per-dimension format information when Direct.
	Dims []DimInfo
	// TargetName names the distribution target when Direct.
	TargetName string
	// NP is the number of processors holding the array.
	NP int
	// Replicated reports whether any element has several owners.
	Replicated bool
	// Aligned reports whether the mapping is a constructed
	// (alignment-derived) distribution.
	Aligned bool
	// Inherited reports whether the mapping was inherited through a
	// procedure boundary (possibly a section, and possibly not
	// expressible as a format list — the §8.1.2 case).
	Inherited bool
	// Description is the mapping's self-description.
	Description string
}

// Describe interrogates an element mapping.
func Describe(m core.ElementMapping) Info {
	info := Info{
		Rank:        m.Domain().Rank(),
		Domain:      m.Domain(),
		Description: m.Describe(),
	}
	switch v := m.(type) {
	case core.DistMapping:
		info.Direct = true
		info.NP = v.D.NP()
		info.TargetName = v.D.Target.String()
		for _, f := range v.D.Formats {
			di := DimInfo{Format: f.Kind(), Distributed: f.Kind() != dist.KindCollapsed}
			switch ff := f.(type) {
			case dist.Cyclic:
				di.CyclicK = ff.K
			case dist.GeneralBlock:
				di.GeneralBounds = append([]int(nil), ff.Bounds...)
			}
			info.Dims = append(info.Dims, di)
		}
	case *core.Constructed:
		info.Aligned = true
		base := Describe(v.BaseMap)
		info.NP = base.NP
		info.Replicated = v.Alpha.Replicates() || base.Replicated
	case *core.SectionMapping:
		info.Inherited = true
		inner := Describe(v.Actual)
		info.NP = inner.NP
		info.Replicated = inner.Replicated
	case template.Mapping:
		// A template-aligned array is described as the composed core
		// mapping that resolves its owners.
		if cm, err := v.Resolve(); err == nil {
			info = Describe(cm)
			info.Description = m.Describe()
		}
	}
	return info
}

// OwnersOf is the element-level inquiry: the processor set holding
// one element, sorted.
func OwnersOf(m core.ElementMapping, i index.Tuple) ([]int, error) {
	out, err := m.AppendOwners(nil, i)
	if err != nil {
		return nil, err
	}
	sort.Ints(out)
	return out, nil
}

// LocalExtents counts the elements of the mapping each processor owns
// (the HPF-style "number of local elements" inquiry, for every
// processor at once): counts[p] for abstract processor p, with
// counts[0] unused and processors past the slice's end owning nothing.
// It sums owner-tile volumes for single-owner mappings and makes one
// per-element owner-set scan only when elements are replicated.
func LocalExtents(m core.ElementMapping) ([]int, error) {
	var counts []int
	add := func(p, n int) {
		if p >= len(counts) {
			counts = append(counts, make([]int, p+1-len(counts))...)
		}
		counts[p] += n
	}
	if tiles, err := core.OwnerTiles(m, m.Domain()); err == nil {
		for _, tl := range tiles {
			add(tl.Proc, tl.Region.Size())
		}
		return counts, nil
	}
	var buf []int
	var ferr error
	m.Domain().ForEach(func(t index.Tuple) bool {
		buf, ferr = m.AppendOwners(buf[:0], t)
		if ferr != nil {
			return false
		}
		for _, o := range buf {
			add(o, 1)
		}
		return true
	})
	if ferr != nil {
		return nil, ferr
	}
	return counts, nil
}

// Render formats the inquiry result as a short report.
func (i Info) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rank=%d domain=%s np=%d", i.Rank, i.Domain, i.NP)
	switch {
	case i.Direct:
		fmt.Fprintf(&b, " direct target=%s formats=", i.TargetName)
		for k, d := range i.Dims {
			if k > 0 {
				b.WriteString(",")
			}
			switch {
			case d.Format == dist.KindCyclic && d.CyclicK > 1:
				fmt.Fprintf(&b, "CYCLIC(%d)", d.CyclicK)
			case d.Format == dist.KindGeneralBlock:
				fmt.Fprintf(&b, "GENERAL_BLOCK%v", d.GeneralBounds)
			default:
				b.WriteString(d.Format.String())
			}
		}
	case i.Aligned:
		b.WriteString(" aligned")
	case i.Inherited:
		b.WriteString(" inherited")
	}
	if i.Replicated {
		b.WriteString(" replicated")
	}
	return b.String()
}
