package main

// The reference kernels: each program once more as plain
// single-threaded Go over dense slices, with no distribution, no
// schedules and no messages. A kernel returns the values the
// program's PRINT statements produce, in order; the harness demands
// agreement to 1e-9 relative on every run, and times the kernel once
// per traced pass as the serial baseline (serial.go_s).

// kernel is the oracle of one program.
type kernel struct {
	run func(in *inputs) []float64
	// counts derives the expected logical machine counts from the
	// inputs when they depend on the seed; nil when they are pinned.
	counts func(in *inputs) counts
}

func sumMax(a []float64) (sum, max float64) {
	max = a[0]
	for _, v := range a {
		sum += v
		if v > max {
			max = v
		}
	}
	return sum, max
}

// stencilKernel is programs/stencil.hpf: U and V are N×N, element
// (i,j) at [(i-1)*n+(j-1)].
var stencilKernel = kernel{run: func(in *inputs) []float64 {
	n, iters, s := in.params["N"], in.params["ITERS"], in.params["S"]
	u := make([]float64, n*n)
	v := make([]float64, n*n)
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			u[(i-1)*n+j-1] = float64((i*7 + j*3 + s) % 11)
		}
	}
	for k := 0; k < iters; k++ {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				v[i*n+j] = 0.25*u[(i-1)*n+j] + 0.25*u[(i+1)*n+j] + 0.25*u[i*n+j-1] + 0.25*u[i*n+j+1]
			}
		}
		for i := 1; i < n-1; i++ {
			copy(u[i*n+1:i*n+n-1], v[i*n+1:i*n+n-1])
		}
	}
	sum, max := sumMax(u)
	return []float64{sum, max, u[(n/2-1)*n+n/2-1]}
}}

// haloKernel is programs/halo.hpf. The statement reads the array it
// writes, so (array-assignment semantics) every read sees the values
// from before the statement: two buffers, swapped per iteration.
var haloKernel = kernel{run: func(in *inputs) []float64 {
	n, iters, s := in.params["N"], in.params["ITERS"], in.params["S"]
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 1; i <= n; i++ {
		a[i-1] = float64((i*i + s) % 17)
	}
	b[0], b[n-1] = a[0], a[n-1]
	for k := 0; k < iters; k++ {
		for i := 1; i < n-1; i++ {
			b[i] = 0.5*a[i] + 0.25*a[i-1] + 0.25*a[i+1]
		}
		a, b = b, a
	}
	sum, max := sumMax(a)
	return []float64{sum, max, a[n/2-1]}
}}

// luKernel is programs/lu.hpf.
var luKernel = kernel{run: func(in *inputs) []float64 {
	n, s := in.params["N"], in.params["S"]
	a := make([]float64, n*n)
	r := make([]float64, n*n)
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			a[(i-1)*n+j-1] = float64((i*5+j*j+s)%13 + 1)
		}
	}
	for k := 1; k < n; k++ {
		for i := k; i < n; i++ {
			for j := k; j < n; j++ {
				r[i*n+j] += 1.0 / 16 * a[(i-1)*n+j-1]
			}
		}
	}
	sum, _ := sumMax(r)
	return []float64{sum, r[n*n-1], r[n+1]}
}}

// gatherKernel is programs/gather.hpf. Its logical counts depend on
// the generated OWN and COL vectors, so they are derived here from
// the owner-computes rule instead of pinned: the BLOCK owner of Y(k)
// executes access k, a read of X(COL(k)) is remote when OWN disagrees,
// and each distinct (element, reader) pair moves once per iteration in
// one message per processor pair.
var gatherKernel = kernel{
	run: func(in *inputs) []float64 {
		n, m, s := in.params["N"], in.params["M"], in.params["S"]
		x := make([]float64, n)
		for i := 1; i <= n; i++ {
			x[i-1] = float64((i*7 + s) % 101)
		}
		y := make([]float64, m)
		for k, c := range in.arrays["COL"] {
			y[k] = 2 * x[c-1]
		}
		sum, max := sumMax(y)
		return []float64{sum, max, y[m/2-1]}
	},
	counts: func(in *inputs) counts {
		m, nproc, iters := in.params["M"], in.params["NP"], int64(in.params["ITERS"])
		own, col := in.arrays["OWN"], in.arrays["COL"]
		block := (m + nproc - 1) / nproc
		var local, remote int64
		moved := map[[2]int]bool{} // (element, reader)
		pairs := map[[2]int]bool{} // (owner, reader)
		for k, c := range col {
			reader := k/block + 1
			if own[c-1] == reader {
				local++
				continue
			}
			remote++
			moved[[2]int{c, reader}] = true
			pairs[[2]int{own[c-1], reader}] = true
		}
		// The two PRINT reductions each combine over a tree of np-1
		// one-element messages.
		reduce := int64(2 * (nproc - 1))
		return counts{
			Msgs:       iters*int64(len(pairs)) + reduce,
			Elems:      iters*int64(len(moved)) + reduce,
			LocalRefs:  iters * local,
			RemoteRefs: iters * remote,
		}
	},
}

// remapKernel is programs/remap.hpf: redistribution moves data and
// changes no value.
var remapKernel = kernel{run: func(in *inputs) []float64 {
	n, s := in.params["N"], in.params["S"]
	a := make([]float64, n*n)
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			a[(i-1)*n+j-1] = float64((i*3 + j*5 + s) % 23)
		}
	}
	sum, max := sumMax(a)
	return []float64{sum, max, a[(n/2-1)*n+n/3-1]}
}}
