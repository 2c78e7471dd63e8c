package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// The two float codecs, side by side and deliberately not merged: each
// serves a different input. A tcp frame may cross hosts, so its floats
// are explicit little-endian IEEE-754 bit patterns; an shm frame never
// leaves the machine that wrote it, so it is the native memory view and
// costs one memcpy.

// appendFloats appends vals to dst in the tcp wire encoding.
func appendFloats(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// decodeFloats decodes a tcp payload into alloc(n), n its floats; a
// length that is not a whole number of floats is a framing error,
// never silently truncated.
func decodeFloats(b []byte, alloc func(n int) []float64) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("payload of %d bytes is not a multiple of 8", len(b))
	}
	out := alloc(len(b) / 8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// floatBytes is the shm encoding: the slice's own memory as bytes
// (native byte order — both ends share one machine by construction).
func floatBytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}
