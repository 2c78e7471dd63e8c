package dist

import (
	"testing"
)

// FuzzFormatRoundTrip fuzzes the §4.1 distribution-function contract
// over every format family with checkFormat's one AppendRuns walk: the
// runs partition 1..n maximally, Map agrees with every run, Local
// numbers each position's indices 1, 2, 3, … in index order, and a
// drawn subinterval gets the clipped runs. The raw bytes seed the
// format family, the dimension parameters and (for GENERAL_BLOCK /
// INDIRECT) the bound or owner vectors.
func FuzzFormatRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(16), uint8(4), uint8(3), []byte{})
	f.Add(uint8(1), uint8(65), uint8(4), uint8(1), []byte{})
	f.Add(uint8(2), uint8(17), uint8(3), uint8(2), []byte{})
	f.Add(uint8(3), uint8(16), uint8(4), uint8(1), []byte{4, 6, 14})
	f.Add(uint8(4), uint8(12), uint8(3), uint8(1), []byte{2, 1, 3, 1, 2, 3, 3, 1, 2, 2, 1, 3})
	f.Add(uint8(2), uint8(100), uint8(5), uint8(64), []byte{})
	f.Add(uint8(3), uint8(12), uint8(4), uint8(1), []byte{0, 5, 5})

	f.Fuzz(func(t *testing.T, family, nn, pp, kk uint8, raw []byte) {
		n := int(nn)%128 + 1
		np := int(pp)%16 + 1
		var fm Format
		switch family % 5 {
		case 0:
			fm = Block{}
		case 1:
			fm = BlockVienna{}
		case 2:
			fm = Cyclic{K: int(kk)%8 + 1}
		case 3:
			// Build nondecreasing bounds within [0, n] from the raw
			// bytes by accumulating capped increments.
			bounds := make([]int, np-1)
			cur := 0
			for i := range bounds {
				inc := 0
				if i < len(raw) {
					inc = int(raw[i]) % (n/np + 2)
				}
				cur += inc
				if cur > n {
					cur = n
				}
				bounds[i] = cur
			}
			fm = GeneralBlock{Bounds: bounds}
		case 4:
			owner := make([]int, n)
			for i := range owner {
				b := byte(i)
				if i < len(raw) {
					b = raw[i]
				}
				owner[i] = int(b)%np + 1
			}
			var err error
			fm, err = NewIndirect(owner)
			if err != nil {
				t.Fatalf("NewIndirect over valid entries: %v", err)
			}
		}
		// The whole line, the drawn interval, single points at both
		// ends and an empty interval.
		lo := int(kk)%n + 1
		hi := lo + int(nn)%(n-lo+1)
		checkFormat(t, fm, n, np, [][2]int{{1, n}, {lo, hi}, {lo, lo}, {n, n}, {hi, lo - 1}})
	})
}
