// Package partition computes GENERAL_BLOCK bounds from per-index
// workload weights. The paper's key generalization over the HPF draft
// is the GENERAL_BLOCK distribution format, "which allows the
// specification of irregular block distributions, which are important
// for the support of load balancing, and can be implemented
// efficiently". This package is the load-balancing side of that
// claim: given w(i) for each index, it chooses contiguous block
// boundaries that equalize per-processor weight, and it measures any
// format's balance and locality over that format's ownership runs. In
// the pipeline it feeds computed bound vectors into GENERAL_BLOCK
// formats (package dist) for the load-balancing experiments (E4, E13)
// and examples.
package partition

import (
	"fmt"
	"slices"

	"hpfnt/internal/dist"
)

// Balance computes GENERAL_BLOCK bounds for distributing n indices
// with weights w (len(w) == n, w[i-1] is the weight of 1-based index
// i) over np processors. It uses the classic prefix-sum heuristic:
// block k ends at the first index where cumulative weight reaches
// k/np of the total. Bounds are nondecreasing and valid for
// dist.GeneralBlock.
func Balance(w []float64, np int) (dist.GeneralBlock, error) {
	n := len(w)
	if n == 0 {
		return dist.GeneralBlock{}, fmt.Errorf("partition: empty weight vector")
	}
	if np < 1 {
		return dist.GeneralBlock{}, fmt.Errorf("partition: processor count must be positive, got %d", np)
	}
	total := 0.0
	for i, x := range w {
		if x < 0 {
			return dist.GeneralBlock{}, fmt.Errorf("partition: negative weight %g at index %d", x, i+1)
		}
		total += x
	}
	bounds := make([]int, np-1)
	cum := 0.0
	idx := 0 // 0-based index into w; bound value is idx (1-based count consumed)
	for k := 1; k < np; k++ {
		goal := total * float64(k) / float64(np)
		for idx < n && cum < goal {
			// Include index idx+1 in block k if doing so brings us
			// closer to the goal than stopping short.
			if cum+w[idx] <= goal || goal-cum > cum+w[idx]-goal {
				cum += w[idx]
				idx++
			} else {
				break
			}
		}
		bounds[k-1] = idx
	}
	return dist.GeneralBlock{Bounds: bounds}, nil
}

// FormatImbalance reports the largest per-processor weight divided
// by the ideal per-processor weight when a rank-1 format distributes
// weights w (w[i-1] for index i) over np processors; 1.0 is a perfect
// balance. One pass over the format's runs sums each processor's
// weights in index order.
func FormatImbalance(f dist.Format, w []float64, np int) float64 {
	n := len(w)
	total := 0.0
	for _, x := range w {
		total += x
	}
	if total == 0 {
		return 1
	}
	load := make([]float64, np+1)
	for _, r := range f.AppendRuns(nil, 1, n, n, np) {
		for i := r.Lo; i <= r.Hi; i++ {
			load[r.Proc] += w[i-1]
		}
	}
	return slices.Max(load) / (total / float64(np))
}

// BoundaryRows counts, for a rank-1 format over n indices and np
// processors, the number of adjacent index pairs (i, i+1) whose
// owners differ — the locality cost a cyclic distribution pays to buy
// balance, and the quantity GENERAL_BLOCK keeps at np-1. Only the
// boundaries between the format's runs can differ.
func BoundaryRows(f dist.Format, n, np int) int {
	runs := f.AppendRuns(nil, 1, n, n, np)
	cuts := 0
	for k := 1; k < len(runs); k++ {
		if runs[k].Proc != runs[k-1].Proc {
			cuts++
		}
	}
	return cuts
}
