//go:build amd64

package tensor

// dotBlock4x4AVX2 is dotBlock4x4Go in AVX2 (dot_avx2_amd64.s): the same
// sixteen outputs with the same per-output rounding sequence, two outputs
// per YMM register.
//
//go:noescape
func dotBlock4x4AVX2(a0, a1, a2, a3, bp *float32, depth int, out *[16]float32)

// dotBlock8x8AVX512 is the AVX-512 register block (dot_avx512_amd64.s): the
// 64 outputs of dotBlock8x8Quads, with the same per-output rounding
// sequence, four outputs per ZMM register, stored or added to C in the
// kernel.
//
//go:noescape
func dotBlock8x8AVX512(a *[8]*float32, b0, b1 *float32, depth int, c *float32, ldc int, acc bool)

// x86HasAVX2 probes CPUID/XGETBV for usable AVX2 (see cpu_amd64.s).
func x86HasAVX2() bool

// x86HasAVX512 probes CPUID/XGETBV for usable AVX-512F (see cpu_amd64.s).
func x86HasAVX512() bool

// hasAVX2 and hasAVX512 select the fp32 kernel tier once at startup. The
// dispatch costs nothing in reproducibility: every tier keeps the portable
// kernel's per-output rounding sequence (see dot.go). Tests flip them to
// force a lower tier.
var (
	hasAVX2   = x86HasAVX2()
	hasAVX512 = hasAVX2 && x86HasAVX512()
)

// dotBlock4x4 runs the 4×4 fp32 dot micro-kernel: AVX2 where the CPU has
// it, the portable kernel otherwise. Both give bitwise-identical outputs.
func dotBlock4x4(a0, a1, a2, a3, bp *float32, depth int, out *[16]float32) {
	if hasAVX2 {
		dotBlock4x4AVX2(a0, a1, a2, a3, bp, depth, out)
		return
	}
	dotBlock4x4Go(a0, a1, a2, a3, bp, depth, out)
}

// dotBlock8x8 runs matMulBlock's 8×8 block: the AVX-512 register block
// where the CPU has it, four 4×4 blocks otherwise. Every tier gives
// bitwise-identical outputs.
func dotBlock8x8(a *[8]*float32, b0, b1 *float32, depth int, c *float32, ldc int, acc bool) {
	if hasAVX512 {
		dotBlock8x8AVX512(a, b0, b1, depth, c, ldc, acc)
		return
	}
	dotBlock8x8Quads(a, b0, b1, depth, c, ldc, acc)
}
