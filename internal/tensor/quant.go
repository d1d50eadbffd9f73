package tensor

import "math"

// Scalar quantizers for the reduced wire formats: the dist feature and
// gradient codecs encode every fp16/int8 row through them.

// Int8RowScale returns the symmetric per-row quantization scale
// maxAbs(row)/127, computed over the finite magnitudes (±Inf and NaN cannot
// influence the scale). A zero row (or one holding only non-finite values)
// scales to 0, and every value quantizes to 0 under a zero scale.
func Int8RowScale(row []float32) float32 {
	var maxAbs float64
	for _, v := range row {
		a := math.Abs(float64(v))
		if a > maxAbs && !math.IsInf(a, 0) { // NaN fails a > maxAbs
			maxAbs = a
		}
	}
	return float32(maxAbs / 127)
}

// QuantizeInt8 maps one value to its int8 image under scale: round to
// nearest (half away from zero) of v/scale, clamped to [-127, 127], with
// NaN → 0. The clamping happens in float64 before the int conversion, so no
// platform-dependent float→int overflow is ever evaluated.
func QuantizeInt8(v, scale float32) int8 {
	if scale <= 0 {
		return 0
	}
	r := math.Round(float64(v) / float64(scale))
	switch {
	case r > 127:
		r = 127
	case r < -127:
		r = -127
	case r != r: // NaN
		r = 0
	}
	return int8(r)
}

// F16FromF32 converts a float32 to binary16 bits with round-to-nearest-even.
// Overflow goes to ±Inf, underflow below the smallest subnormal to ±0, and
// NaN to a quiet NaN. Pure bit manipulation, deterministic on every
// platform.
func F16FromF32(f float32) uint16 {
	x := math.Float32bits(f)
	sign := uint16(x>>16) & 0x8000
	exp := int32(x>>23) & 0xff
	frac := x & 0x007fffff
	if exp == 0xff { // Inf or NaN
		if frac != 0 {
			return sign | 0x7e00
		}
		return sign | 0x7c00
	}
	e := exp - 127 + 15
	if e >= 0x1f {
		return sign | 0x7c00 // overflow → Inf
	}
	if e <= 0 {
		if e < -10 {
			return sign // underflow → zero
		}
		// Subnormal half: shift the significand (with its implicit leading
		// one) right and round to nearest even.
		frac |= 0x00800000
		shift := uint32(14 - e)
		v := frac >> shift
		rem := frac & (1<<shift - 1)
		half := uint32(1) << (shift - 1)
		if rem > half || (rem == half && v&1 == 1) {
			v++ // may carry into the smallest normal, which encodes correctly
		}
		return sign | uint16(v)
	}
	// Normal half: drop 13 significand bits with round-to-nearest-even. A
	// rounding carry propagates into the exponent field, correctly rounding
	// up to the next binade (or to Inf at the top).
	v := uint16(e)<<10 | uint16(frac>>13)
	rem := frac & 0x1fff
	if rem > 0x1000 || (rem == 0x1000 && v&1 == 1) {
		v++
	}
	return sign | v
}

// F32FromF16 converts binary16 bits to float32 (exact: every half value is
// representable as a float32).
func F32FromF16(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	frac := uint32(h & 0x3ff)
	switch {
	case exp == 0:
		if frac == 0 {
			return math.Float32frombits(sign) // ±0
		}
		// Subnormal half: normalize into a float32 normal.
		e := uint32(127 - 15 + 1)
		for frac&0x400 == 0 {
			frac <<= 1
			e--
		}
		return math.Float32frombits(sign | e<<23 | (frac&0x3ff)<<13)
	case exp == 0x1f:
		if frac != 0 {
			return math.Float32frombits(sign | 0x7fc00000) // NaN
		}
		return math.Float32frombits(sign | 0x7f800000) // ±Inf
	}
	return math.Float32frombits(sign | (exp+112)<<23 | frac<<13)
}
