package spmd

import (
	"fmt"
	"time"

	"hpfnt/internal/machine"
	"hpfnt/internal/obs"
	"hpfnt/internal/runtime"
)

// treeStep is one worker's part in one round of the combine tree: send
// its running partial to peer, or receive peer's partial and fold it
// in; peer 0 sits the round out.
type treeStep struct {
	send bool
	peer int
}

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
	var procs []int
	for p := 1; p <= e.np; p++ {
		if count[p] > 0 {
			procs = append(procs, p)
		}
	}
	if len(procs) == 0 {
		return 0, fmt.Errorf("spmd: reduction over empty array %s", a.name)
	}
	// rounds[r][p] is worker p's step in round r.
	var rounds [][]treeStep
	for len(procs) > 1 {
		step := make([]treeStep, e.np+1)
		var next []int
		for i := 0; i+1 < len(procs); i += 2 {
			src, dst := procs[i+1], procs[i]
			step[src] = treeStep{send: true, peer: dst}
			step[dst] = treeStep{peer: src}
			next = append(next, dst)
		}
		if len(procs)%2 == 1 {
			next = append(next, procs[len(procs)-1])
		}
		rounds = append(rounds, step)
		procs = next
	}
	root := procs[0]
	acc := func(cur, v float64) float64 {
		switch {
		case op == runtime.ReduceSum:
			return cur + v
		case op == runtime.ReduceMax && v > cur, op == runtime.ReduceMin && v < cur:
			return v
		}
		return cur
	}
	var result float64
	timing := obs.TimingEnabled()
	var span func()
	if obs.TraceEnabled() {
		span = obs.BeginSpan("reduce", "reduce "+a.name, 0)
	}
	partials := make([]float64, e.np+1)
	cs := make([]counters, e.np+1)
	var tallies []phaseTally
	if timing {
		tallies = make([]phaseTally, e.np+1)
	}
	// Round r is phase 2r, the sends, and phase 2r+1, the receives;
	// phase 0 folds the local elements first.
	last := max(1, 2*len(rounds)) - 1
	err := e.run(last+1, func(p, k int) {
		if count[p] == 0 {
			return
		}
		var t0 time.Time
		if timing {
			t0 = time.Now()
		}
		if k == 0 {
			// Lines come in ascending global-offset order, which is the
			// fold order defining the float result.
			data, started := lay.stores[p].data, false
			lay.walk(p, true, func(ls []line) {
				for _, ln := range ls {
					if lay.idx == nil && lay.repOwns[ln.off][0] != p {
						continue
					}
					vals := data[ln.slot : ln.slot+ln.n]
					if !started {
						partials[p], vals, started = vals[0], vals[1:], true
					}
					for _, v := range vals {
						partials[p] = acc(partials[p], v)
					}
				}
			})
			cs[p].load = count[p]
		}
		if r := k / 2; r < len(rounds) && rounds[r][p].peer != 0 {
			switch st := rounds[r][p]; {
			case st.send && k%2 == 0:
				e.send(p, st.peer, []float64{partials[p]})
				cs[p].sends = append(cs[p].sends, pairSend{dst: st.peer, elems: 1})
				cs[p].msgs, cs[p].frames = 1, 1
			case !st.send && k%2 == 1:
				msg := e.recv(st.peer, p)
				if msg == nil {
					return // the transport has failed; its error is sticky
				}
				if len(msg) != 1 {
					e.tr.Fail(fmt.Errorf("spmd: message %d→%d carries %d values, plan expects 1", st.peer, p, len(msg)))
					return
				}
				partials[p] = acc(partials[p], msg[0])
			}
		}
		if timing {
			tallies[p][machine.PhaseReduce] += int64(time.Since(t0))
		}
		if k < last {
			return
		}
		if p == root {
			// Published to the dispatcher through the epoch barrier.
			result = partials[p]
		}
		if timing {
			cs[p].phase = &tallies[p]
		}
		e.flush(p, &cs[p])
	})
	if span != nil {
		span()
	}
	if err != nil {
		return 0, err
	}
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
