package spmd

import (
	"fmt"
	"slices"

	"hpfnt/internal/core"
	"hpfnt/internal/index"
	"hpfnt/internal/obs"
)

// Remap moves an array to a new element mapping. A remap is the
// identity statement new(:) = old(:) between the two mappings, compiled
// as one (remapStatement) and run by Schedule.Execute. Its own are four
// rules: runtime.RemapSender's sender, so the engine and the oracle
// charge identical traffic; a copyKernel, which moves values bit for
// bit; no load or reference charges; and planRemap's unchanged-tiling
// check. Returns the number of elements whose owner set gained a
// member. Compiled schedules over the array are invalidated.
func (e *Engine) Remap(a *Array, newMap core.ElementMapping) (int, error) {
	if a.eng != e {
		return 0, fmt.Errorf("spmd: array %s belongs to a different engine", a.name)
	}
	if !newMap.Domain().Equal(a.dom) {
		return 0, fmt.Errorf("spmd: remap of %s to mapping over %s (have %s)", a.name, newMap.Domain(), a.dom)
	}
	// A failed engine stays failed, with or without a dispatch.
	if err := e.tr.Err(); err != nil {
		return 0, err
	}
	var built func()
	if obs.TraceEnabled() {
		label := "remap " + a.name
		if end := obs.BeginSpan("remap", label, 0); end != nil {
			defer end()
		}
		built = obs.BeginSpan("build", label, 0)
	}
	s, err := planRemap(e, a, newMap)
	if built != nil {
		built()
	}
	if err != nil {
		return 0, fmt.Errorf("spmd: remap of %s: %w", a.name, err)
	}
	return remapTo(a, newMap, s)
}

// planRemap compiles the move of a to newMap, or returns nil when the
// new mapping's tile index is the one a's layout holds: equal layouts
// slot for slot, with nothing to build or dispatch.
func planRemap(e *Engine, a *Array, newMap core.ElementMapping) (*Schedule, error) {
	x, err := indexOf(e, newMap)
	if err != nil || x.equal(a.lay.idx) {
		return nil, err
	}
	to, err := layoutOf(e, newMap, x)
	if err != nil {
		return nil, err
	}
	return remapStatement(e, a, newMap, to).build(a.dom)
}

// remapStatement is the builder of new(:) = a(:), new being a on
// newMap's layout to: one term, the old array at shift 0 and
// coefficient 1, over the whole domain.
func remapStatement(e *Engine, a *Array, newMap core.ElementMapping, to *layout) *planBuilder {
	lhs := &Array{name: a.name, dom: a.dom, mapping: newMap, eng: e, lay: to}
	// One engine and one domain: the builder has nothing to refuse.
	b, _ := newPlanBuilder(e, lhs, a.dom, []Term{{Src: a, Coeff: 1, Access: index.Shift(make([]int, a.dom.Rank())...)}})
	b.remap = true
	return b
}

// remapTo runs the compiled remap s of a, if any, and moves a onto the
// layout of its lhs.
func remapTo(a *Array, newMap core.ElementMapping, s *Schedule) (int, error) {
	moved := 0
	if s != nil {
		to := s.arrays[0].lay
		s.label = "remap"
		for _, wp := range s.plans {
			if wp != nil {
				moved += wp.remoteRefs
				wp.load, wp.localRefs, wp.remoteRefs = 0, 0, 0
				wp.kernel = (*copyKernel)(wp.kernel.(*runKernel))
			}
		}
		if to.idx == nil { // an element may gain several owners
			moved = 0
			for off, news := range to.repOwns {
				if slices.ContainsFunc(news, func(p int) bool { _, ok := a.lay.slotIn(p, off); return !ok }) {
					moved++
				}
			}
		}
		if err := s.Execute(); err != nil {
			return 0, err
		}
		a.lay = to
	}
	a.mapping = newMap
	a.gen++
	return moved, nil
}
