//go:build !amd64

package tensor

// dotInt8Block2x4 is the portable integer dot block. Integer accumulation
// is exact, so this plain loop produces bitwise-identical results to the
// SIMD amd64 kernel at every depth.
func dotInt8Block2x4(a0, a1, b0, b1, b2, b3 []int8, out *[8]int32) {
	*out = [8]int32{}
	for k := range a0 {
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

// accumInt8Row adds float32(src[j])*scale into dst[j] — bitwise identical
// to the elementwise amd64 kernel. The outer conversion rounds the product
// before the add, which stops arm64 from fusing the two into one FMA.
func accumInt8Row(dst []float32, src []int8, scale float32) {
	for j, v := range src {
		dst[j] += float32(float32(v) * scale)
	}
}
