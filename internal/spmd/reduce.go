package spmd

import (
	"fmt"
	"math/bits"

	"hpfnt/internal/machine"
	"hpfnt/internal/runtime"
)

// Reduce computes a global reduction across the workers: each worker
// folds its owned elements (replicated elements count once, at their
// first owner) in ascending global-offset order, then the partials
// combine along the binary tree the element-wise oracle charges —
// ⌈log2 k⌉ rounds of single-element messages — so both the float
// result and the machine statistics are bit-identical to the oracle.
func (e *Engine) Reduce(a *Array, op runtime.ReduceOp) (float64, error) {
	if a.eng != e {
		return 0, fmt.Errorf("spmd: array %s belongs to a different engine", a.name)
	}
	// A worker folds its elements, but of a replicated element only the
	// first owner's copy; count[p] is how many.
	lay, count := a.lay, make([]int, e.np+1)
	if lay.idx != nil {
		for p := range count {
			count[p] = int(lay.idx.vol[p])
		}
	} else {
		for _, ps := range lay.repOwns {
			count[ps[0]]++
		}
	}
	r := &reduction{a: a, op: op, count: count, pos: make([]int, e.np+1), partials: make([]float64, e.np+1)}
	for p := 1; p <= e.np; p++ {
		if count[p] > 0 {
			r.pos[p] = len(r.procs)
			r.procs = append(r.procs, p)
		}
	}
	if len(r.procs) == 0 {
		return 0, fmt.Errorf("spmd: reduction over empty array %s", a.name)
	}
	if err := e.run(r); err != nil {
		return 0, err
	}
	root := r.procs[0]
	result := r.partials[root]
	// On a multi-process transport the tree root's host broadcasts
	// the result so every process's dispatcher returns the same value
	// (the broadcast is job bookkeeping, not modelled communication —
	// the oracle charges only the combine tree).
	if tr := e.tr; tr.Procs() > 1 {
		var vals []float64
		if e.hosted(root) {
			vals = []float64{result}
		}
		out := tr.Bcast(tr.HostOf(root), vals)
		if err := tr.Err(); err != nil {
			return 0, err
		}
		if len(out) == 1 {
			result = out[0]
		}
	}
	return result, nil
}

// reduction is a Reduce epoch. procs lists the workers holding
// elements, ascending, and pos[p] is worker p's position in it. In
// round r of the combine tree (h = 2^r) the worker at a position
// i ≡ h (mod 2h) sends its partial to position i−h, which folds it
// in, and drops out: pairs of neighbours, then pairs of pairs. Round r
// is phase 2r, the sends, and phase 2r+1, the receives; phase 0 folds
// the local elements first.
type reduction struct {
	a        *Array
	op       runtime.ReduceOp
	count    []int
	procs    []int
	pos      []int
	partials []float64
}

// reducing is the machine phase of every phase of a reduction.
var reducing = []machine.Phase{machine.PhaseReduce}

func (r *reduction) phases() (int, []machine.Phase) {
	return max(1, 2*bits.Len(uint(len(r.procs)-1))), reducing
}

func (r *reduction) do(p, k int) {
	if r.count[p] == 0 {
		return
	}
	if k == 0 {
		// Lines come in ascending global-offset order, which is the
		// fold order defining the float result.
		lay, started := r.a.lay, false
		data := lay.stores[p].data
		lay.walk(p, true, func(ls []line) {
			for _, ln := range ls {
				if lay.idx == nil && lay.repOwns[ln.off][0] != p {
					continue
				}
				vals := data[ln.slot : ln.slot+ln.n]
				if !started {
					r.partials[p], vals, started = vals[0], vals[1:], true
				}
				for _, v := range vals {
					r.fold(p, v)
				}
			}
		})
	}
	e, i, h := r.a.eng, r.pos[p], 1<<(k/2)
	switch {
	case k%2 == 0 && i&(2*h-1) == h:
		e.tr.Send(p, r.procs[i-h], []float64{r.partials[p]})
	case k%2 == 1 && i&(2*h-1) == 0 && i+h < len(r.procs):
		src := r.procs[i+h]
		msg := e.tr.Recv(src, p)
		if msg == nil {
			return // the transport has failed; its error is sticky
		}
		if len(msg) != 1 {
			e.tr.Fail(fmt.Errorf("spmd: message %d→%d carries %d values, plan expects 1", src, p, len(msg)))
			return
		}
		r.fold(p, msg[0])
	}
}

// fold folds v into worker p's partial.
func (r *reduction) fold(p int, v float64) {
	switch cur := r.partials[p]; {
	case r.op == runtime.ReduceSum:
		r.partials[p] = cur + v
	case r.op == runtime.ReduceMax && v > cur, r.op == runtime.ReduceMin && v < cur:
		r.partials[p] = v
	}
}

func (r *reduction) span(p int) (string, string) {
	if p == 0 {
		return "reduce", "reduce " + r.a.name
	}
	return "", ""
}

// cost: a worker folds its elements, and all but the root send their
// partial once, to the position their lowest set bit clears.
func (r *reduction) cost(p int) counters {
	c := counters{load: r.count[p], msgs: 1, frames: 1}
	if i := r.pos[p]; i > 0 {
		c.sends = []pairSend{{dst: r.procs[i&(i-1)], elems: 1}}
	}
	return c
}
