//go:build amd64

package tensor

// dotInt8Kernel2x4 computes the eight integer dot products of two A rows
// against four B rows over the first depth8 values (depth8 > 0, a multiple
// of 8) using the SSE2 PMADDWD path. Integer accumulation is exact, so any
// split between the SIMD body and the Go tail yields identical sums.
//
//go:noescape
func dotInt8Kernel2x4(a0, a1, b0, b1, b2, b3 *int8, depth8 int, out *[8]int32)

// dotInt8Kernel2x4AVX2 is the AVX2 variant over depth16 values (a positive
// multiple of 16) — ~2× the SSE2 kernel's throughput via 16-wide VPMADDWD.
//
//go:noescape
func dotInt8Kernel2x4AVX2(a0, a1, b0, b1, b2, b3 *int8, depth16 int, out *[8]int32)

// accumInt8KernelAVX2 adds float32(src[j])*scale into dst[j] over n8
// elements (a positive multiple of 8). Elementwise — one product rounding
// and one sum rounding per lane, exactly like the scalar loop.
//
//go:noescape
func accumInt8KernelAVX2(dst *float32, src *int8, scale float32, n8 int)

// x86HasAVX2 probes CPUID/XGETBV for usable AVX2 (see cpu_amd64.s).
func x86HasAVX2() bool

// hasAVX2 selects the integer kernels and the fp32 dot kernel once at
// startup. Neither dispatch costs anything in reproducibility: integer
// accumulation is exact at any width, and the AVX2 fp32 kernel keeps the
// portable kernel's per-output rounding sequence (see dot.go). Tests flip
// it to force the portable kernels.
var hasAVX2 = x86HasAVX2()

// dotInt8Block2x4 fills out with the eight full-depth integer dot products
//
//	out = [a0·b0, a0·b1, a0·b2, a0·b3, a1·b0, a1·b1, a1·b2, a1·b3]
//
// running the bulk of the depth through the widest available SIMD kernel
// and the remainder as scalar adds — exact either way, so the result is
// independent of the split, the tiling, and the architecture.
func dotInt8Block2x4(a0, a1, b0, b1, b2, b3 []int8, out *[8]int32) {
	depth := len(a0)
	dv := 0
	if hasAVX2 {
		if dv = depth &^ 15; dv > 0 {
			dotInt8Kernel2x4AVX2(&a0[0], &a1[0], &b0[0], &b1[0], &b2[0], &b3[0], dv, out)
		}
	} else {
		if dv = depth &^ 7; dv > 0 {
			dotInt8Kernel2x4(&a0[0], &a1[0], &b0[0], &b1[0], &b2[0], &b3[0], dv, out)
		}
	}
	if dv == 0 {
		*out = [8]int32{}
	}
	for k := dv; k < depth; k++ {
		va0, va1 := int32(a0[k]), int32(a1[k])
		out[0] += va0 * int32(b0[k])
		out[1] += va0 * int32(b1[k])
		out[2] += va0 * int32(b2[k])
		out[3] += va0 * int32(b3[k])
		out[4] += va1 * int32(b0[k])
		out[5] += va1 * int32(b1[k])
		out[6] += va1 * int32(b2[k])
		out[7] += va1 * int32(b3[k])
	}
}

// accumInt8Row adds float32(src[j])*scale into dst[j] — the
// dequantize-accumulate primitive behind int8 neighbor aggregation. The
// AVX2 body is elementwise (no FMA, no reassociation), so SIMD and scalar
// produce bitwise-identical sums.
func accumInt8Row(dst []float32, src []int8, scale float32) {
	n := len(src)
	v := 0
	if hasAVX2 {
		if v = n &^ 7; v > 0 {
			accumInt8KernelAVX2(&dst[0], &src[0], scale, v)
		}
	}
	for ; v < n; v++ {
		dst[v] += float32(src[v]) * scale
	}
}
