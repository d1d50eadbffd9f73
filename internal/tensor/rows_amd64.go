//go:build amd64

package tensor

// addRowAVX2 and scaleRowAVX2 are addRowGo and scaleRowGo in AVX2
// (rows_amd64.s): eight lanes per instruction, a scalar tail, the same
// single rounding per element.
//
//go:noescape
func addRowAVX2(dst, src []float32)

//go:noescape
func scaleRowAVX2(dst []float32, s float32)

// reluAVX2 and reluBackwardAVX2 are reluGo and reluBackwardGo in AVX2
// (rows_amd64.s): a compare against zero and an and-not per eight lanes,
// so every element keeps the portable kernel's bits. reluBackwardAVX2
// reads len(grad) elements of act.
//
//go:noescape
func reluAVX2(d []float32)

//go:noescape
func reluBackwardAVX2(grad, act []float32)

func addRow(dst, src []float32) {
	if hasAVX2 {
		addRowAVX2(dst, src)
		return
	}
	addRowGo(dst, src)
}

func scaleRow(dst []float32, s float32) {
	if hasAVX2 {
		scaleRowAVX2(dst, s)
		return
	}
	scaleRowGo(dst, s)
}

func relu(d []float32) {
	if hasAVX2 {
		reluAVX2(d)
		return
	}
	reluGo(d)
}

func reluBackward(grad, act []float32) {
	if hasAVX2 {
		reluBackwardAVX2(grad, act)
		return
	}
	reluBackwardGo(grad, act)
}
