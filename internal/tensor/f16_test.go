package tensor

import (
	"encoding/binary"
	"math"
	"testing"

	"salientpp/internal/rng"
)

// f16EncodeInputs returns every value at which F16FromF32 can change its
// answer: each finite half's value and the midpoint to the next half up
// (65520, the rounding edge to Inf, for the largest), each at 0, ±1 and ±2
// float32 ulps, in both signs; the subnormal, underflow and overflow edges;
// ±Inf; and NaNs of both signs with quiet, signalling and payload bits that
// do and do not survive a 13-bit shift.
func f16EncodeInputs() []float32 {
	var in []float32
	offsets := []int32{0, -1, 1, -2, 2}
	for h := uint16(0); h < 0x7c00; h++ {
		lo := float64(F32FromF16(h))
		hi := 65536.0
		if h+1 < 0x7c00 {
			hi = float64(F32FromF16(h + 1))
		}
		for _, p := range []float64{lo, (lo + hi) / 2} {
			for _, d := range offsets {
				bits := int32(math.Float32bits(float32(p))) + d
				if bits < 0 {
					continue
				}
				v := math.Float32frombits(uint32(bits))
				in = append(in, v, -v)
			}
		}
	}
	edges := []float32{
		math.SmallestNonzeroFloat32, 1e-40, 3e-42, 0x1p-26, 0x1p-25, 0x1.000002p-25, 0x1p-24,
		0x1.ff8p-15, 0x1p-14, 65504, 65519.996, 65520, 65536, 1e9, math.MaxFloat32,
		float32(math.Inf(1)),
	}
	for _, v := range edges {
		in = append(in, v, -v)
	}
	for _, frac := range []uint32{1, 2, 0x1fff, 0x2000, 0x3fffff, 0x400000, 0x400001, 0x7fffff} {
		in = append(in, math.Float32frombits(0x7f800000|frac), math.Float32frombits(0xff800000|frac))
	}
	return in
}

// f16Rows returns random rows of every length 1–17 (each tail the kernel
// hands to the scalar loop) and a few long ones, with special values mixed
// in and magnitudes spread across the half range.
func f16Rows() [][]float32 {
	r := rng.New(43)
	odd := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0,
		float32(math.Copysign(0, -1)), 1e-40, 65520, -1e9, 0x1p-25,
	}
	var rows [][]float32
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 128, 255, 256, 257, 1000} {
		for trial := 0; trial < 8; trial++ {
			row := make([]float32, n)
			for i := range row {
				row[i] = float32(r.NormFloat64() * math.Ldexp(1, r.Intn(40)-24))
				if r.Intn(8) == 0 {
					row[i] = odd[r.Intn(len(odd))]
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// checkEncode compares EncodeF16 on src with F16FromF32 per element.
func checkEncode(t *testing.T, src []float32) {
	t.Helper()
	got := make([]byte, 2*len(src))
	EncodeF16(got, src)
	for i, v := range src {
		if h, want := binary.LittleEndian.Uint16(got[2*i:]), F16FromF32(v); h != want {
			t.Fatalf("len %d: encode %g (%#x) at %d = %#04x, scalar %#04x", len(src), v, math.Float32bits(v), i, h, want)
		}
	}
}

// checkDecode compares DecodeF16 on src with F32FromF16 per element.
func checkDecode(t *testing.T, src []byte) {
	t.Helper()
	got := make([]float32, len(src)/2)
	DecodeF16(got, src)
	for i, v := range got {
		h := binary.LittleEndian.Uint16(src[2*i:])
		if want := F32FromF16(h); math.Float32bits(v) != math.Float32bits(want) {
			t.Fatalf("len %d: decode %#04x at %d = %#x, scalar %#x", len(got), h, i, math.Float32bits(v), math.Float32bits(want))
		}
	}
}

// checkChunks runs check over consecutive n-value chunks of the m values
// in vals, starting at every offset below 8, so each value is converted
// at every lane of a kernel block and in the scalar tail. A NaN sends its
// whole call to the scalar loop; short chunks keep the rest of the input
// on the kernel.
func checkChunks(m, n int, check func(lo, hi int)) {
	for off := 0; off < 8; off++ {
		for lo := off; lo < m; lo += n {
			check(lo, min(lo+n, m))
		}
	}
}

// TestF16ConvertMatchesScalar pins the F16C tier to the scalar converters
// bit for bit, NaNs included: decode on all 65 536 halves, encode at every
// input where rounding can change its answer, each at every lane of a
// block and in the tail, and random rows through EncodeF16, DecodeF16 and
// RoundTripF16.
func TestF16ConvertMatchesScalar(t *testing.T) {
	if !HasF16C {
		t.Skip("CPU has no F16C: the converters run the portable tier only")
	}
	halves := make([]byte, 2<<16)
	for h := 0; h < 1<<16; h++ {
		binary.LittleEndian.PutUint16(halves[2*h:], uint16(h))
	}
	in := f16EncodeInputs()
	for _, n := range []int{8, 17} {
		checkChunks(1<<16, n, func(lo, hi int) { checkDecode(t, halves[2*lo:2*hi]) })
		checkChunks(len(in), n, func(lo, hi int) { checkEncode(t, in[lo:hi]) })
	}

	for _, row := range f16Rows() {
		checkEncode(t, row)
		enc := make([]byte, 2*len(row))
		encodeF16Go(enc, row)
		checkDecode(t, enc)
		got := make([]float32, len(row))
		RoundTripF16(got, row)
		for i, v := range row {
			if want := F32FromF16(F16FromF32(v)); math.Float32bits(got[i]) != math.Float32bits(want) {
				t.Fatalf("len %d: round trip %g at %d = %#x, scalar %#x", len(row), v, i, math.Float32bits(got[i]), math.Float32bits(want))
			}
		}
	}
}

// TestRoundTripF16AllocationFree: the round trip's chunk buffer stays on
// the stack.
func TestRoundTripF16AllocationFree(t *testing.T) {
	src, dst := make([]float32, 1000), make([]float32, 1000)
	if n := testing.AllocsPerRun(20, func() { RoundTripF16(dst, src) }); n != 0 {
		t.Fatalf("RoundTripF16 allocated %.0f times per call", n)
	}
}
