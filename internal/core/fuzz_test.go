package core

import (
	"fmt"
	"testing"

	"hpfnt/internal/align"
	"hpfnt/internal/dist"
	"hpfnt/internal/expr"
	"hpfnt/internal/index"
	"hpfnt/internal/proc"
)

// lcg is a tiny deterministic pseudo-random generator so the fuzz
// sequences are reproducible.
type lcg struct{ s uint64 }

func (r *lcg) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s >> 33
}

func (r *lcg) intn(n int) int { return int(r.next() % uint64(n)) }

// TestForestFuzz applies long random sequences of the model's
// operations (DISTRIBUTE, ALIGN, REDISTRIBUTE, REALIGN, ALLOCATE,
// DEALLOCATE) and verifies after every step that the §2.4 forest
// invariants hold and that every created array still resolves to a
// total element mapping with non-empty owner sets.
func TestForestFuzz(t *testing.T) {
	const (
		seeds = 8
		steps = 200
		nArr  = 6
		np    = 8
	)
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := &lcg{s: uint64(seed)*2654435761 + 12345}
			sys, err := proc.NewSystem(np)
			if err != nil {
				t.Fatal(err)
			}
			arr, err := sys.DeclareArray("P", index.Standard(1, np))
			if err != nil {
				t.Fatal(err)
			}
			tg := proc.Whole(arr)
			u := NewUnit("FUZZ", sys)

			names := make([]string, nArr)
			for i := range names {
				names[i] = fmt.Sprintf("A%d", i)
				if i%2 == 0 {
					if _, err := u.DeclareArray(names[i], index.Standard(1, 16+8*i)); err != nil {
						t.Fatal(err)
					}
				} else {
					if _, err := u.DeclareAllocatable(names[i], 1); err != nil {
						t.Fatal(err)
					}
				}
				if err := u.SetDynamic(names[i]); err != nil {
					t.Fatal(err)
				}
			}

			randFormat := func() dist.Format {
				switch r.intn(3) {
				case 0:
					return dist.Block{}
				case 1:
					return dist.BlockVienna{}
				default:
					return dist.Cyclic{K: r.intn(4) + 1}
				}
			}
			randAlign := func(alignee, base string) align.Spec {
				c := r.intn(2) + 1
				return align.Spec{
					Alignee: alignee, Axes: []align.Axis{align.DummyAxis("I")},
					Base: base, Subs: []align.Subscript{align.ExprSub(expr.Affine(c, "I", 0))},
				}
			}

			for step := 0; step < steps; step++ {
				a := names[r.intn(nArr)]
				b := names[r.intn(nArr)]
				// Errors are acceptable (invalid ops on the current
				// state); corruption is not.
				switch r.intn(5) {
				case 0:
					_ = u.Redistribute(a, []dist.Format{randFormat()}, tg)
				case 1:
					if a != b {
						_ = u.Realign(randAlign(a, b))
					}
				case 2:
					_ = u.Allocate(a, index.Standard(1, 8+8*r.intn(4)))
				case 3:
					_ = u.Deallocate(a)
				case 4:
					if a != b {
						_ = u.Align(randAlign(a, b))
					}
				}
				if err := u.CheckInvariants(); err != nil {
					t.Fatalf("step %d: %v\n%s", step, err, u.Describe())
				}
				for _, name := range names {
					ar, _ := u.Array(name)
					if !ar.Created {
						continue
					}
					m, err := u.MappingOf(name)
					if err != nil {
						t.Fatalf("step %d: mapping of created array %s: %v", step, name, err)
					}
					// Spot-check totality on a few indices.
					dom := m.Domain()
					for _, k := range []int{0, dom.Size() / 2, dom.Size() - 1} {
						os, err := m.AppendOwners(nil, dom.TupleAt(k))
						if err != nil || len(os) == 0 {
							t.Fatalf("step %d: owners of %s at %d: %v %v", step, name, k, os, err)
						}
						for _, p := range os {
							if p < 1 || p > np {
								t.Fatalf("step %d: %s owner %d out of range", step, name, p)
							}
						}
					}
				}
			}
		})
	}
}
