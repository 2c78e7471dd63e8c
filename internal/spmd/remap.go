package spmd

import (
	"fmt"
	"slices"

	"hpfnt/internal/core"
	"hpfnt/internal/obs"
	"hpfnt/internal/runtime"
)

// Remap moves an array to a new element mapping: every worker builds
// its new local segment, keeps the elements it still owns by local
// copy, and receives the rest from the old owners as one aggregated
// message per processor pair. The sender for each (replica set,
// destination) pair follows runtime.RemapSender, so the spmd engine
// and the sequential oracle charge identical traffic. Returns the
// number of elements whose owner set gained a member. Compiled
// schedules over the array are invalidated.
func (e *Engine) Remap(a *Array, newMap core.ElementMapping) (int, error) {
	if a.eng != e {
		return 0, fmt.Errorf("spmd: array %s belongs to a different engine", a.name)
	}
	if !newMap.Domain().Equal(a.dom) {
		return 0, fmt.Errorf("spmd: remap of %s to mapping over %s (have %s)", a.name, newMap.Domain(), a.dom)
	}
	nl, err := buildLayout(e, newMap)
	if err != nil {
		return 0, fmt.Errorf("spmd: remap of %s: %w", a.name, err)
	}
	// Per worker: local old→new slot copies for the elements it keeps,
	// and its side of the per-pair shipment of the rest.
	copies := make([][][2]int32, e.np+1)
	ships := make([]exchange, e.np+1)
	pairs := pairBuilder{}
	moved := 0
	size := a.dom.Size()
	var oldScratch, newScratch []int
	var sg *segBuild
	var from, to int
	for off := 0; off < size; off++ {
		oldScratch = a.lay.appendOwners(oldScratch[:0], off)
		newScratch = nl.appendOwners(newScratch[:0], off)
		anyNew := false
		for _, p := range newScratch {
			if slices.Contains(oldScratch, p) {
				copies[p] = append(copies[p], [2]int32{a.lay.slotOf(p, off), nl.slotOf(p, off)})
				continue
			}
			anyNew = true
			s := runtime.RemapSender(oldScratch, p)
			// Consecutive elements mostly move between the same pair.
			if sg == nil || s != from || p != to {
				sg, from, to = pairs.seg(s, p, a.lay.stores[s]), s, p
			}
			sg.add(a.lay.slotOf(s, off), 0, nl.slotOf(p, off), 0, 1)
		}
		if anyNew {
			moved++
		}
	}
	pairs.emit(func(p int) *exchange { return &ships[p] })
	span := obs.BeginSpan("remap", fmt.Sprintf("remap %s", a.name), 0)
	err = e.run(func(p int) {
		oldData := a.lay.stores[p].data
		newData := nl.stores[p].data
		for _, cp := range copies[p] {
			newData[cp[1]] = oldData[cp[0]]
		}
		// The shipment is the schedules' exchange with the new segment
		// as its destination.
		ships[p].run(e, p, newData)
		if len(ships[p].sends) > 0 {
			e.flush(p, &counters{sends: ships[p].sendCounts(1, 1)})
		}
	})
	if span != nil {
		span()
	}
	if err != nil {
		return 0, err
	}
	a.lay = nl
	a.mapping = newMap
	a.gen++
	return moved, nil
}
