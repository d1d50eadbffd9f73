//go:build !amd64

package tensor

// HasF16C is false without amd64 assembly: the fp16 converters are the
// portable loops.
var HasF16C = false

func encodeF16(dst []byte, src []float32) { encodeF16Go(dst, src) }

func decodeF16(dst []float32, src []byte) { decodeF16Go(dst, src) }
