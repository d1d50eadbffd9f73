package tensor

import (
	"math"
	"testing"
)

// TestQuantizeRoundTripMatchesWire pins the scalar quantizers to the wire
// codec's semantics: scale = maxAbs/127 with round-half-away-from-zero
// clamped to ±127, and fp16 round-to-nearest-even — including the
// non-finite handling the codec documents (±Inf saturates, NaN → 0).
func TestQuantizeRoundTripMatchesWire(t *testing.T) {
	row := []float32{0, 1, -1, 0.5, -127, 254, float32(math.Inf(1)), float32(math.NaN()), 1e-8}
	scale := Int8RowScale(row)
	if want := float32(254.0 / 127); scale != want {
		t.Fatalf("scale = %g, want %g", scale, want)
	}
	q := make([]int8, len(row))
	for i, v := range row {
		q[i] = QuantizeInt8(v, scale)
	}
	wantQ := []int8{0, 1, -1, 0, -64, 127, 127, 0, 0}
	for i := range q {
		if q[i] != wantQ[i] {
			t.Fatalf("q[%d] = %d, want %d", i, q[i], wantQ[i])
		}
	}

	// A zero (or all-non-finite) row quantizes to zeros under scale 0.
	if s := Int8RowScale([]float32{0, 0}); s != 0 {
		t.Fatalf("zero-row scale = %g", s)
	}
	if v := QuantizeInt8(5, 0); v != 0 {
		t.Fatalf("zero-scale quantize = %d", v)
	}

	// fp16 round trip is exact for values representable in binary16.
	for _, v := range []float32{0, 1, -1, 0.5, 65504, -65504, 6.1035156e-05} {
		if got := F32FromF16(F16FromF32(v)); got != v {
			t.Fatalf("fp16 round trip of %g = %g", v, got)
		}
	}
	if !math.IsInf(float64(F32FromF16(F16FromF32(1e9))), 1) {
		t.Fatal("fp16 overflow must saturate to +Inf")
	}
}
