//go:build !amd64

package tensor

// Without amd64 assembly the packs are the portable ones.
func transposeInto(buf, src []float32, k, n int) { packTransposeGo(buf, src, k, n, 0) }

func packBInto(buf, src []float32, depth, n int) { packBGo(buf, src, depth, n, 0) }
