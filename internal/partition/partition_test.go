package partition

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hpfnt/internal/dist"
)

func TestBalanceUniform(t *testing.T) {
	w := make([]float64, 16)
	for i := range w {
		w[i] = 1
	}
	g, err := Balance(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 8, 12}
	for i := range want {
		if g.Bounds[i] != want[i] {
			t.Fatalf("Bounds = %v, want %v", g.Bounds, want)
		}
	}
	if imb := FormatImbalance(g, w, 4); imb != 1.0 {
		t.Fatalf("uniform imbalance = %f", imb)
	}
}

func TestBalanceTriangular(t *testing.T) {
	// w(i) = i: the GENERAL_BLOCK partition should be near-perfect
	// while BLOCK is ~2x imbalanced.
	n, np := 4096, 16
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(i + 1)
	}
	g, err := Balance(w, np)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(n, np); err != nil {
		t.Fatalf("balanced bounds invalid: %v", err)
	}
	gImb := FormatImbalance(g, w, np)
	bImb := FormatImbalance(dist.Block{}, w, np)
	cImb := FormatImbalance(dist.Cyclic{K: 1}, w, np)
	if gImb > 1.05 {
		t.Fatalf("GENERAL_BLOCK imbalance = %f, want near 1", gImb)
	}
	if bImb < 1.8 {
		t.Fatalf("BLOCK imbalance = %f, want near 2 for triangular weights", bImb)
	}
	if cImb > 1.05 {
		t.Fatalf("CYCLIC imbalance = %f, want near 1", cImb)
	}
	// But CYCLIC pays in locality: many more boundary rows.
	gCuts := BoundaryRows(g, n, np)
	cCuts := BoundaryRows(dist.Cyclic{K: 1}, n, np)
	if gCuts != np-1 {
		t.Fatalf("GENERAL_BLOCK cuts = %d, want %d", gCuts, np-1)
	}
	if cCuts != n-1 {
		t.Fatalf("CYCLIC cuts = %d, want %d", cCuts, n-1)
	}
}

func TestBalanceHeavyTail(t *testing.T) {
	g, err := Balance([]float64{1, 1, 1, 1, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Total 8, ideal 4 per block: first block takes indices 1..4.
	if g.Bounds[0] != 4 {
		t.Fatalf("Bounds = %v", g.Bounds)
	}
}

func TestBalanceValidation(t *testing.T) {
	if _, err := Balance(nil, 4); err == nil {
		t.Fatal("empty weights must fail")
	}
	if _, err := Balance([]float64{1}, 0); err == nil {
		t.Fatal("np=0 must fail")
	}
	if _, err := Balance([]float64{1, -1}, 2); err == nil {
		t.Fatal("negative weight must fail")
	}
}

func TestBalanceSingleProcessor(t *testing.T) {
	g, err := Balance([]float64{3, 1, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Bounds) != 0 {
		t.Fatalf("Bounds = %v", g.Bounds)
	}
	if imb := FormatImbalance(g, []float64{3, 1, 4}, 1); imb != 1.0 {
		t.Fatalf("single-proc imbalance = %f", imb)
	}
}

func TestZeroWeights(t *testing.T) {
	w := make([]float64, 8)
	g, err := Balance(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(8, 4); err != nil {
		t.Fatal(err)
	}
	if imb := FormatImbalance(g, w, 4); imb != 1.0 {
		t.Fatalf("zero-weight imbalance = %f", imb)
	}
}

func TestBoundaryRowsBlock(t *testing.T) {
	if got := BoundaryRows(dist.Block{}, 16, 4); got != 3 {
		t.Fatalf("BLOCK cuts = %d, want 3", got)
	}
	if got := BoundaryRows(dist.Cyclic{K: 4}, 16, 4); got != 3 {
		t.Fatalf("CYCLIC(4) over 16/4 cuts = %d, want 3", got)
	}
}

// Property: Balance always yields valid GENERAL_BLOCK bounds, and the
// resulting imbalance never exceeds the worst single weight over the
// ideal (the prefix-sum bound).
func TestBalanceValidityProperty(t *testing.T) {
	f := func(raw []uint8, pp uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		np := int(pp%8) + 1
		w := make([]float64, len(raw))
		total := 0.0
		maxw := 0.0
		for i, x := range raw {
			w[i] = float64(x%32) + 1
			total += w[i]
			if w[i] > maxw {
				maxw = w[i]
			}
		}
		g, err := Balance(w, np)
		if err != nil {
			return false
		}
		if err := g.Validate(len(w), np); err != nil {
			return false
		}
		imb := FormatImbalance(g, w, np)
		ideal := total / float64(np)
		// Each block exceeds the ideal by at most one item's weight.
		return imb <= (ideal+maxw)/ideal+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestRunsMatchMap checks FormatImbalance and BoundaryRows, which read
// a format's runs, against a per-element Map oracle bit for bit: each
// processor's weights summed in index order, and the owner changes
// between adjacent indices, for all six formats on random weights.
func TestRunsMatchMap(t *testing.T) {
	n, np := 97, 4
	owner := make([]int, n)
	rng := rand.New(rand.NewSource(39))
	for i := range owner {
		// Runs of random length, so the vector has both long runs and
		// single-element ones.
		if i == 0 || rng.Intn(3) == 0 {
			owner[i] = rng.Intn(np) + 1
		} else {
			owner[i] = owner[i-1]
		}
	}
	ind, err := dist.NewIndirect(owner)
	if err != nil {
		t.Fatal(err)
	}
	formats := []dist.Format{
		dist.Block{},
		dist.BlockVienna{},
		dist.Collapsed{},
		dist.Cyclic{K: 1},
		dist.Cyclic{K: 5},
		dist.GeneralBlock{Bounds: []int{20, 20, 71}},
		ind,
	}
	for trial := 0; trial < 20; trial++ {
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64() * 100
		}
		for _, f := range formats {
			load := make([]float64, np+1)
			cuts := 0
			for i := 1; i <= n; i++ {
				load[f.Map(i, n, np)] += w[i-1]
				if i > 1 && f.Map(i, n, np) != f.Map(i-1, n, np) {
					cuts++
				}
			}
			total, maxW := 0.0, 0.0
			for _, x := range w {
				total += x
			}
			for _, x := range load[1:] {
				maxW = max(maxW, x)
			}
			want := maxW / (total / float64(np))
			if got := FormatImbalance(f, w, np); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: FormatImbalance = %v, per-element oracle %v", f, got, want)
			}
			if got := BoundaryRows(f, n, np); got != cuts {
				t.Fatalf("%s: BoundaryRows = %d, per-element oracle %d", f, got, cuts)
			}
		}
	}
}
