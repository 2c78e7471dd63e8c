package runtime

import (
	"strings"
	"testing"
	"testing/quick"

	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/index"
	"hpfnt/internal/machine"
	"hpfnt/internal/proc"
)

func blockMapping(t *testing.T, sys *proc.System, name string, dom index.Domain, f dist.Format) core.ElementMapping {
	t.Helper()
	arr, ok := sys.Lookup("P")
	if !ok {
		var err error
		arr, err = sys.DeclareArray("P", index.Standard(1, sys.AP.N()))
		if err != nil {
			t.Fatal(err)
		}
	}
	formats := make([]dist.Format, dom.Rank())
	formats[0] = f
	for i := 1; i < dom.Rank(); i++ {
		formats[i] = dist.Collapsed{}
	}
	d, err := dist.New(dom, formats, proc.Whole(arr))
	if err != nil {
		t.Fatal(err)
	}
	return core.DistMapping{D: d}
}

func mkMachine(t *testing.T, np int) *machine.Machine {
	t.Helper()
	m, err := machine.New(np, machine.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// ref is the shifted reference term coeff · src(t + shift).
func ref(src *Array, coeff float64, shift ...int) Term {
	return Term{Src: src, Coeff: coeff, Access: index.Shift(shift...)}
}

// assign builds lhs(region) = Σ terms as a schedule and executes it
// once on m, the one-shot form of a statement.
func assign(m *machine.Machine, lhs *Array, region index.Domain, terms []Term) error {
	s, err := BuildSchedule(lhs, region, terms)
	if err != nil {
		return err
	}
	return s.Execute(m)
}

func TestArrayBasics(t *testing.T) {
	sys, _ := proc.NewSystem(4)
	dom := index.Standard(1, 8)
	a, err := NewArray("A", blockMapping(t, sys, "A", dom, dist.Block{}))
	if err != nil {
		t.Fatal(err)
	}
	if a.Replicated() {
		t.Fatal("block array must not be replicated")
	}
	a.Set(index.Tuple{3}, 42)
	if a.At(index.Tuple{3}) != 42 {
		t.Fatal("Set/At roundtrip failed")
	}
	a.Fill(func(tu index.Tuple) float64 { return float64(tu[0] * 2) })
	if a.At(index.Tuple{5}) != 10 {
		t.Fatal("Fill failed")
	}
}

func TestShiftAssignValuesMatchSequential(t *testing.T) {
	// The distributed executor must compute exactly what the
	// sequential reference computes, for any mapping.
	sys, _ := proc.NewSystem(4)
	n := 16
	adom := index.Standard(1, n, 1, n)
	for _, f := range []dist.Format{dist.Block{}, dist.Cyclic{K: 3}} {
		am := blockMapping(t, sys, "A", adom, f)
		bm := blockMapping(t, sys, "B", adom, f)
		a, _ := NewArray("A", am)
		b, _ := NewArray("B", bm)
		fill := func(tu index.Tuple) float64 { return float64(tu[0]*31 + tu[1]*7) }
		a.Fill(fill)
		m := mkMachine(t, 4)
		interior := index.Standard(2, n-1, 2, n-1)
		terms := []Term{
			ref(a, 0.25, -1, 0), ref(a, 0.25, 1, 0), ref(a, 0.25, 0, -1), ref(a, 0.25, 0, 1),
		}
		if err := assign(m, b, interior, terms); err != nil {
			t.Fatal(err)
		}
		as := NewSeqArray(adom)
		bs := NewSeqArray(adom)
		as.Fill(fill)
		if err := SeqShiftAssign(bs, interior, []SeqTerm{
			{Src: as, Shift: []int{-1, 0}, Coeff: 0.25},
			{Src: as, Shift: []int{1, 0}, Coeff: 0.25},
			{Src: as, Shift: []int{0, -1}, Coeff: 0.25},
			{Src: as, Shift: []int{0, 1}, Coeff: 0.25},
		}); err != nil {
			t.Fatal(err)
		}
		bd, sd := b.Data(), bs.Data()
		for i := range bd {
			if bd[i] != sd[i] {
				t.Fatalf("format %s: value mismatch at %d: %f vs %f", f, i, bd[i], sd[i])
			}
		}
	}
}

func TestSimultaneousSemantics(t *testing.T) {
	// A = A(shifted) must read pre-assignment values (Fortran array
	// assignment semantics).
	sys, _ := proc.NewSystem(2)
	dom := index.Standard(1, 6)
	a, _ := NewArray("A", blockMapping(t, sys, "A", dom, dist.Block{}))
	a.Fill(func(tu index.Tuple) float64 { return float64(tu[0]) })
	region := index.Standard(2, 6)
	// A(i) = A(i-1) for i in 2..6: result must be 1,1,2,3,4,5.
	if err := assign(nil, a, region, []Term{ref(a, 1, -1)}); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 2, 3, 4, 5}
	for i, w := range want {
		if got := a.At(index.Tuple{i + 1}); got != w {
			t.Fatalf("A(%d) = %f, want %f (simultaneous semantics)", i+1, got, w)
		}
	}
}

func TestCommunicationCounting(t *testing.T) {
	// 1-D shift across a block boundary: exactly one element crosses
	// each boundary, in one message.
	sys, _ := proc.NewSystem(4)
	dom := index.Standard(1, 16)
	a, _ := NewArray("A", blockMapping(t, sys, "A", dom, dist.Block{}))
	b, _ := NewArray("B", blockMapping(t, sys, "B", dom, dist.Block{}))
	a.Fill(func(tu index.Tuple) float64 { return float64(tu[0]) })
	m := mkMachine(t, 4)
	region := index.Standard(2, 16)
	if err := assign(m, b, region, []Term{ref(a, 1, -1)}); err != nil {
		t.Fatal(err)
	}
	r := m.Stats()
	// Owners of B(i) and A(i-1) differ only at block starts i = 5, 9,
	// 13: 3 remote refs, 3 messages (one per neighboring pair).
	if r.RemoteRefs != 3 {
		t.Fatalf("RemoteRefs = %d, want 3", r.RemoteRefs)
	}
	if r.Messages != 3 {
		t.Fatalf("Messages = %d, want 3", r.Messages)
	}
	if r.ElementsMoved != 3 {
		t.Fatalf("Elements = %d, want 3", r.ElementsMoved)
	}
	if r.LocalRefs != 12 {
		t.Fatalf("LocalRefs = %d, want 12", r.LocalRefs)
	}
}

func TestStatementDeduplication(t *testing.T) {
	// Two terms reading the same remote element in one statement must
	// fetch it once.
	sys, _ := proc.NewSystem(4)
	dom := index.Standard(1, 16)
	a, _ := NewArray("A", blockMapping(t, sys, "A", dom, dist.Block{}))
	b, _ := NewArray("B", blockMapping(t, sys, "B", dom, dist.Block{}))
	m := mkMachine(t, 4)
	region := index.Standard(5, 5) // single element B(5) on proc 2
	// Both terms read A(4), owned by proc 1.
	if err := assign(m, b, region, []Term{ref(a, 1, -1), ref(a, 2, -1)}); err != nil {
		t.Fatal(err)
	}
	r := m.Stats()
	if r.ElementsMoved != 1 {
		t.Fatalf("deduplication failed: %d elements moved", r.ElementsMoved)
	}
	if r.RemoteRefs != 2 {
		t.Fatalf("RemoteRefs = %d (both references are remote)", r.RemoteRefs)
	}
}

func TestMessageVectorization(t *testing.T) {
	// A whole-boundary exchange must be one message per processor
	// pair, not one per element.
	sys, _ := proc.NewSystem(2)
	n := 32
	dom := index.Standard(1, n, 1, n)
	a, _ := NewArray("A", blockMapping(t, sys, "A", dom, dist.Block{}))
	b, _ := NewArray("B", blockMapping(t, sys, "B", dom, dist.Block{}))
	m := mkMachine(t, 2)
	region := index.Standard(2, n, 1, n)
	if err := assign(m, b, region, []Term{ref(a, 1, -1, 0)}); err != nil {
		t.Fatal(err)
	}
	r := m.Stats()
	if r.Messages != 1 {
		t.Fatalf("Messages = %d, want 1 (vectorized)", r.Messages)
	}
	if r.ElementsMoved != int64(n) {
		t.Fatalf("Elements = %d, want %d (one boundary row)", r.ElementsMoved, n)
	}
}

func TestReplicatedReadIsLocal(t *testing.T) {
	// A replicated source makes every read local (E10's effect).
	sys, _ := proc.NewSystem(4)
	rep, err := sys.DeclareScalar("REP", proc.ScalarReplicated)
	if err != nil {
		t.Fatal(err)
	}
	dom := index.Standard(1, 16)
	dr, err := dist.New(dom, []dist.Format{dist.Collapsed{}}, proc.Whole(rep))
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewArray("R", core.DistMapping{D: dr})
	if err != nil {
		t.Fatal(err)
	}
	if !src.Replicated() {
		t.Fatal("expected replicated array")
	}
	dst, _ := NewArray("B", blockMapping(t, sys, "B", dom, dist.Block{}))
	m := mkMachine(t, 4)
	if err := assign(m, dst, dom, []Term{ref(src, 1, 0)}); err != nil {
		t.Fatal(err)
	}
	r := m.Stats()
	if r.RemoteRefs != 0 {
		t.Fatalf("reads of replicated array must be local, got %d remote", r.RemoteRefs)
	}
}

func TestReplicatedWriteLoadsAllOwners(t *testing.T) {
	sys, _ := proc.NewSystem(4)
	rep, _ := sys.DeclareScalar("REP2", proc.ScalarReplicated)
	dom := index.Standard(1, 8)
	dr, _ := dist.New(dom, []dist.Format{dist.Collapsed{}}, proc.Whole(rep))
	dst, _ := NewArray("R", core.DistMapping{D: dr})
	src, _ := NewArray("A", blockMapping(t, sys, "A", dom, dist.Block{}))
	m := mkMachine(t, 4)
	if err := assign(m, dst, dom, []Term{ref(src, 1, 0)}); err != nil {
		t.Fatal(err)
	}
	r := m.Stats()
	// Every processor computes all 8 elements: total load 32.
	if r.TotalLoad != 32 {
		t.Fatalf("TotalLoad = %d, want 32", r.TotalLoad)
	}
}

func TestRemapCountsAndMoves(t *testing.T) {
	sys, _ := proc.NewSystem(4)
	dom := index.Standard(1, 16)
	a, _ := NewArray("A", blockMapping(t, sys, "A", dom, dist.Block{}))
	a.Fill(func(tu index.Tuple) float64 { return float64(tu[0]) })
	m := mkMachine(t, 4)
	newMap := blockMapping(t, sys, "A", dom, dist.Cyclic{K: 1})
	moved, err := Remap(m, a, newMap)
	if err != nil {
		t.Fatal(err)
	}
	stay := 0
	for i := 1; i <= 16; i++ {
		if (i-1)/4 == (i-1)%4 {
			stay++
		}
	}
	if moved != 16-stay {
		t.Fatalf("moved = %d, want %d", moved, 16-stay)
	}
	// Values unchanged.
	for i := 1; i <= 16; i++ {
		if a.At(index.Tuple{i}) != float64(i) {
			t.Fatal("remap must not change values")
		}
	}
	// Second remap to the same mapping is free.
	moved, _ = Remap(m, a, newMap)
	if moved != 0 {
		t.Fatalf("idempotent remap moved %d", moved)
	}
}

func TestRemapShapeMismatch(t *testing.T) {
	sys, _ := proc.NewSystem(4)
	a, _ := NewArray("A", blockMapping(t, sys, "A", index.Standard(1, 16), dist.Block{}))
	bad := blockMapping(t, sys, "A", index.Standard(1, 8), dist.Block{})
	if _, err := Remap(nil, a, bad); err == nil {
		t.Fatal("shape mismatch must fail")
	}
}

func TestOutOfBoundsReference(t *testing.T) {
	sys, _ := proc.NewSystem(2)
	dom := index.Standard(1, 8)
	a, _ := NewArray("A", blockMapping(t, sys, "A", dom, dist.Block{}))
	b, _ := NewArray("B", blockMapping(t, sys, "B", dom, dist.Block{}))
	// Shift -1 over the full domain reads A(0): out of bounds.
	if err := assign(nil, b, dom, []Term{ref(a, 1, -1)}); err == nil {
		t.Fatal("out-of-bounds reference must fail")
	}
}

func TestShiftRankMismatch(t *testing.T) {
	sys, _ := proc.NewSystem(2)
	dom := index.Standard(1, 8)
	a, _ := NewArray("A", blockMapping(t, sys, "A", dom, dist.Block{}))
	b, _ := NewArray("B", blockMapping(t, sys, "B", dom, dist.Block{}))
	if err := assign(nil, b, dom, []Term{ref(a, 1, 0, 0)}); err == nil {
		t.Fatal("shift rank mismatch must fail")
	}
	if err := assign(nil, b, index.Standard(1, 8, 1, 8), []Term{ref(a, 1, 0)}); err == nil {
		t.Fatal("region rank mismatch must fail")
	}
}

// Property: for random block/cyclic mappings and shifts, distributed
// and sequential executors agree exactly.
func TestExecutorEquivalenceProperty(t *testing.T) {
	sys, _ := proc.NewSystem(4)
	f := func(useCyclic bool, kk uint8, sh int8) bool {
		n := 12
		shift := int(sh % 3)
		dom := index.Standard(1, n)
		var fm dist.Format = dist.Block{}
		if useCyclic {
			fm = dist.Cyclic{K: int(kk%3) + 1}
		}
		a, err := NewArray("A", blockMapping(t, sys, "A", dom, fm))
		if err != nil {
			return false
		}
		b, _ := NewArray("B", blockMapping(t, sys, "B", dom, fm))
		fill := func(tu index.Tuple) float64 { return float64(tu[0]*tu[0] - 3) }
		a.Fill(fill)
		lo, hi := 1, n
		if shift < 0 {
			lo = 1 - shift
		} else {
			hi = n - shift
		}
		if lo > hi {
			return true
		}
		region := index.Standard(lo, hi)
		m := mkMachine(t, 4)
		if err := assign(m, b, region, []Term{ref(a, 2, shift)}); err != nil {
			return false
		}
		as := NewSeqArray(dom)
		bs := NewSeqArray(dom)
		as.Fill(fill)
		if err := SeqShiftAssign(bs, region, []SeqTerm{{Src: as, Shift: []int{shift}, Coeff: 2}}); err != nil {
			return false
		}
		bd, sd := b.Data(), bs.Data()
		for i := range bd {
			if bd[i] != sd[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneralAssignMatchesSequential(t *testing.T) {
	// A rank-reducing read: E(i,j) = D(i,j) + 2*A(i).
	sys, _ := proc.NewSystem(4)
	ddom := index.Standard(1, 12, 1, 6)
	adom := index.Standard(1, 12)
	d, _ := NewArray("D", blockMapping(t, sys, "D", ddom, dist.Block{}))
	e, _ := NewArray("E", blockMapping(t, sys, "E", ddom, dist.Block{}))
	a, _ := NewArray("A", blockMapping(t, sys, "A", adom, dist.Cyclic{K: 2}))
	d.Fill(func(tu index.Tuple) float64 { return float64(tu[0]*10 + tu[1]) })
	a.Fill(func(tu index.Tuple) float64 { return float64(tu[0] * tu[0]) })
	m := mkMachine(t, 4)
	err := assign(m, e, ddom, []Term{
		ref(d, 1, 0, 0),
		{Src: a, Coeff: 2, Access: index.Access{{Dim: 0}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var bad int
	ddom.ForEach(func(tu index.Tuple) bool {
		want := float64(tu[0]*10+tu[1]) + 2*float64(tu[0]*tu[0])
		if e.At(tu) != want {
			bad++
		}
		return true
	})
	if bad != 0 {
		t.Fatalf("%d wrong values", bad)
	}
	// Cross-mapping reads must generate traffic (block rows vs cyclic A).
	if m.Stats().RemoteRefs == 0 {
		t.Fatal("expected remote reads of the cyclic array")
	}
}

func TestGeneralAssignErrors(t *testing.T) {
	sys, _ := proc.NewSystem(2)
	dom := index.Standard(1, 8)
	a, _ := NewArray("A", blockMapping(t, sys, "A", dom, dist.Block{}))
	b, _ := NewArray("B", blockMapping(t, sys, "B", dom, dist.Block{}))
	err := assign(nil, b, dom, []Term{
		ref(a, 1, 100),
	})
	if err == nil {
		t.Fatal("out-of-domain reference must fail")
	}
	// An access must read the source's rank, each of its subscripts
	// from one dimension of the statement, none twice.
	for _, acc := range []index.Access{{{Dim: 0}, {Dim: 0}, {Dim: 0}}, {}, {{Dim: 1}}} {
		if err := assign(nil, b, dom, []Term{{Src: a, Coeff: 1, Access: acc}}); err == nil || !strings.Contains(err.Error(), "access") {
			t.Fatalf("access %v: %v, want it refused", acc, err)
		}
	}
	if err := assign(nil, b, index.Standard(1, 8, 1, 8), nil); err == nil {
		t.Fatal("region rank mismatch must fail")
	}
}

func TestArrayMappingAccessorAndSeqAt(t *testing.T) {
	sys, _ := proc.NewSystem(2)
	dom := index.Standard(1, 4)
	mp := blockMapping(t, sys, "A", dom, dist.Block{})
	a, _ := NewArray("A", mp)
	if a.Mapping() != mp {
		t.Fatal("Mapping accessor wrong")
	}
	s := NewSeqArray(dom)
	s.Fill(func(tu index.Tuple) float64 { return float64(tu[0]) })
	if s.At(index.Tuple{3}) != 3 {
		t.Fatal("SeqArray.At wrong")
	}
}

func TestRemapSenderSpread(t *testing.T) {
	old := []int{3, 7}
	if RemapSender(old, 1) != 3 || RemapSender(old, 2) != 7 || RemapSender(old, 4) != 7 {
		t.Fatalf("round-robin sender wrong: %d %d %d",
			RemapSender(old, 1), RemapSender(old, 2), RemapSender(old, 4))
	}
	if RemapSender([]int{5}, 9) != 5 {
		t.Fatal("single owner must always send")
	}
}
