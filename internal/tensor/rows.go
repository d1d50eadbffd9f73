package tensor

// AddRow adds src into dst elementwise: dst[j] += src[j]. ScaleRow
// multiplies dst by s elementwise: dst[j] *= s. They are the row kernels
// of the mean aggregation, the backward scatter, bias and gradient
// accumulation: AVX2 where the CPU has it (rows_amd64.s), the portable
// twins below otherwise. Each output element is one rounded add or
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
