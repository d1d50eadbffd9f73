//go:build amd64

package tensor

// dotBlock4x4AVX2 is dotBlock4x4Go in AVX2 (dot_avx2_amd64.s): the same
// sixteen outputs with the same per-output rounding sequence, two outputs
// per YMM register.
//
//go:noescape
func dotBlock4x4AVX2(a0, a1, a2, a3, b0, b1, b2, b3 *float32, depth int, out *[16]float32)

// dotBlock4x4 runs the fp32 dot micro-kernel: AVX2 where the CPU has it,
// the portable kernel otherwise. Both give bitwise-identical outputs.
func dotBlock4x4(a0, a1, a2, a3, b0, b1, b2, b3 *float32, depth int, out *[16]float32) {
	if hasAVX2 {
		dotBlock4x4AVX2(a0, a1, a2, a3, b0, b1, b2, b3, depth, out)
		return
	}
	dotBlock4x4Go(a0, a1, a2, a3, b0, b1, b2, b3, depth, out)
}
