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
