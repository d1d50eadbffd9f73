package tensor

import "math"

// AddRow adds src into dst elementwise: dst[j] += src[j]. ScaleRow
// multiplies dst by s elementwise: dst[j] *= s. They are the row kernels
// of the mean aggregation, the backward scatter, bias and gradient
// accumulation: AVX2 where the CPU has it (rows_amd64.s), the portable
// twins below otherwise. The ReLU passes (Matrix.ReLU, ReLUBackward) take
// the same dispatch. Each output element is one rounded add or
// multiply of the same two operands on every path, so the result is
// bitwise identical across dispatch, and across any split of a row into
// calls; only the payload of a NaN result may differ.
func AddRow(dst, src []float32) {
	if len(src) != len(dst) {
		panic("tensor: AddRow length mismatch")
	}
	addRow(dst, src)
}

// ScaleRow multiplies every element of dst by s (see AddRow).
func ScaleRow(dst []float32, s float32) { scaleRow(dst, s) }

// addRowGo is the portable row add and the reference the AVX2 kernel is
// tested against. len(src) must be at least len(dst).
func addRowGo(dst, src []float32) {
	src = src[:len(dst)]
	for j, v := range src {
		dst[j] += v
	}
}

// scaleRowGo is the portable row scale.
func scaleRowGo(dst []float32, s float32) {
	for j := range dst {
		dst[j] *= s
	}
}

// reluGo is the portable ReLU and the reference the AVX2 kernel is tested
// against. The test runs on the float's bits, without a branch: a
// data-dependent branch on the sign mispredicts about half the time on
// activations, which costs more than the whole pass otherwise does. v < 0
// holds exactly for the bit patterns in (0x80000000, 0xFF800000] — the
// negative values from the smallest subnormal to −Inf — so one unsigned
// range check, turned into an all-ones mask by the sign of a 64-bit
// difference, selects them.
func reluGo(d []float32) {
	for i, v := range d {
		b := math.Float32bits(v)
		neg := uint32(int64(uint64(b-0x80000001)-0x7F800000) >> 63)
		d[i] = math.Float32frombits(b &^ neg)
	}
}

// reluBackwardGo is the portable ReLU backward, grad[i] = 0 where
// act[i] <= 0. Like reluGo it tests bits without a branch: act <= 0 holds
// for the pattern 0 and for [0x80000000, 0xFF800000], −0 through −Inf.
// len(grad) must be at least len(act).
func reluBackwardGo(grad, act []float32) {
	g := grad[:len(act)]
	for i, a := range act {
		b := math.Float32bits(a)
		zero := uint32(int64(uint64(b)-1)>>63) | uint32(int64(uint64(b-0x80000000)-0x7F800001)>>63)
		g[i] = math.Float32frombits(math.Float32bits(g[i]) &^ zero)
	}
}
