//go:build amd64

package tensor

// dotBlock4x4AVX2 is dotBlock4x4Go in AVX2 (dot_avx2_amd64.s): the same
// sixteen outputs with the same per-output rounding sequence, two outputs
// per YMM register.
//
//go:noescape
func dotBlock4x4AVX2(a0, a1, a2, a3, b0, b1, b2, b3 *float32, depth int, out *[16]float32)

// x86HasAVX2 probes CPUID/XGETBV for usable AVX2 (see cpu_amd64.s).
func x86HasAVX2() bool

// hasAVX2 selects the fp32 dot kernel once at startup. The dispatch costs
// nothing in reproducibility: the AVX2 kernel keeps the portable kernel's
// per-output rounding sequence (see dot.go). Tests flip it to force the
// portable kernel.
var hasAVX2 = x86HasAVX2()

// dotBlock4x4 runs the fp32 dot micro-kernel: AVX2 where the CPU has it,
// the portable kernel otherwise. Both give bitwise-identical outputs.
func dotBlock4x4(a0, a1, a2, a3, b0, b1, b2, b3 *float32, depth int, out *[16]float32) {
	if hasAVX2 {
		dotBlock4x4AVX2(a0, a1, a2, a3, b0, b1, b2, b3, depth, out)
		return
	}
	dotBlock4x4Go(a0, a1, a2, a3, b0, b1, b2, b3, depth, out)
}
