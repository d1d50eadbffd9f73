//go:build !amd64

package tensor

// Without amd64 assembly the row kernels are the portable ones.
func addRow(dst, src []float32) { addRowGo(dst, src) }

func scaleRow(dst []float32, s float32) { scaleRowGo(dst, s) }
