package spmd

import (
	"fmt"
	"testing"

	"hpfnt/internal/dist"
	"hpfnt/internal/index"
	"hpfnt/internal/inspector"
	"hpfnt/internal/machine"
	"hpfnt/internal/proc"
	"hpfnt/internal/runtime"
	"hpfnt/internal/transport"
)

// engineOn is an engine of np workers on the given wire, closed with
// the test.
func engineOn(t *testing.T, kind string, np int) *Engine {
	t.Helper()
	tr, err := transport.New(kind, np)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewOn(tr, machine.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// indirectFormat distributes 1..n over np workers by a drawn INDIRECT
// owner vector, so an irregular statement's reads are a mix of local
// and remote on every worker.
func indirectFormat(t *testing.T, n, np int) dist.Format {
	t.Helper()
	owner := make([]int, n)
	x := uint32(12345)
	for i := range owner {
		x = x*1664525 + 1013904223
		owner[i] = int(x>>16)%np + 1
	}
	f, err := dist.NewIndirect(owner)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// permutationPattern writes every offset of 0..n-1 once, in a strided
// order, from a strided read; its coefficients include 0.
func permutationPattern(n int) inspector.Pattern {
	var pat inspector.Pattern
	for i := 0; i < n; i++ {
		pat.Writes = append(pat.Writes, int32(i*17%n))
		pat.Reads = append(pat.Reads, int32((i*11+3)%n))
		pat.Coeffs = append(pat.Coeffs, float64(i%5-2))
	}
	return pat
}

// signedFill has negative values and a zero, so a zero coefficient
// makes a -0 product and a negative one a -0 from the zero.
func signedFill(tp index.Tuple) float64 { return float64(tp[0]*7%13 - 6) }

// TestIrregularKernelChoice: BuildIrregular gives a worker the gather
// kernel exactly when the source is not the lhs and no output of the
// worker has two accesses; the in-place permutation X = X(P), a
// pattern with two accesses into one output (only the worker owning
// it keeps the accumulator) and CSR SpMV rows keep accumKernel. On
// every wire each case's values are the element-wise oracle's bit for
// bit and its logical report the oracle's.
func TestIrregularKernelChoice(t *testing.T) {
	const n, np, iters = 40, 4, 3
	sys, _ := proc.NewSystem(np)
	m := mapping(t, sys, index.Standard(1, n), indirectFormat(t, n, np))
	perm := permutationPattern(n)
	twice := permutationPattern(n)
	twice.Writes = append(twice.Writes, twice.Writes[5])
	twice.Reads = append(twice.Reads, 0)
	twice.Coeffs = append(twice.Coeffs, 3)
	var csr inspector.Pattern // row i has 2 + i%3 nonzeros
	for i := 0; i < n; i++ {
		for j := 0; j < 2+i%3; j++ {
			csr.Writes = append(csr.Writes, int32(i))
			csr.Reads = append(csr.Reads, int32((i*13+j*7)%n))
			csr.Coeffs = append(csr.Coeffs, float64(j-1))
		}
	}
	cases := []struct {
		name    string
		inPlace bool
		pat     inspector.Pattern
		gather  bool // the kernel of at least one worker
	}{
		{"gather", false, perm, true},
		{"in-place permutation", true, perm, false},
		{"two accesses into one output", false, twice, false},
		{"CSR SpMV rows", false, csr, false},
	}
	for _, kind := range transport.Kinds() {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/%s", kind, c.name), func(t *testing.T) {
				e := engineOn(t, kind, np)
				x := newTwin(t, e, "X", m, signedFill)
				y := x
				if !c.inPlace {
					y = newTwin(t, e, "Y", m, func(tp index.Tuple) float64 { return float64(-tp[0]) })
				}
				s, err := e.BuildIrregular(y.p, x.p, c.pat)
				if err != nil {
					t.Fatal(err)
				}
				o, err := runtime.BuildIrregular(np, y.r, x.r, c.pat)
				if err != nil {
					t.Fatal(err)
				}
				// A worker may gather when it owns no output written twice.
				writes := make(map[int32]int)
				for _, w := range c.pat.Writes {
					writes[w]++
				}
				owners, _ := y.p.lay.idx.table()
				single := make([]bool, np+1)
				for p := range single {
					single[p] = !c.inPlace
				}
				for w, k := range writes {
					if k > 1 {
						single[owners[w]] = false
					}
				}
				seen := false
				for p, wp := range s.plans {
					if wp == nil {
						continue
					}
					_, gather := wp.kernel.(*gatherKernel)
					if gather != single[p] {
						t.Errorf("worker %d: kernel %T", p, wp.kernel)
					}
					seen = seen || gather == c.gather
				}
				if !seen {
					t.Errorf("no worker takes the %s kernel", map[bool]string{true: "gather", false: "accumulator"}[c.gather])
				}
				mach, _ := machine.New(np, machine.DefaultCost())
				if err := s.ExecuteN(iters); err != nil {
					t.Fatal(err)
				}
				for range iters {
					if err := o.Execute(mach); err != nil {
						t.Fatal(err)
					}
				}
				x.sameValues(t)
				y.sameValues(t)
				if got, want := e.Stats().Logical(), mach.Stats().Logical(); got != want {
					t.Fatalf("report mismatch:\n spmd %+v\n  sim %+v", got, want)
				}
			})
		}
	}
}
