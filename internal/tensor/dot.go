package tensor

import "unsafe"

// dotBlock4x4Go is the portable fp32 dot micro-kernel and the reference the
// SIMD kernel is tested against. It fills out with the sixteen full-depth
// dot products of four A rows against four B rows (both operands
// k-contiguous):
//
//	out[4*i+j] = a_i · b_j
//
// Every output has one fixed association, shared by every implementation:
// lane L accumulates the k ≡ L (mod 4) terms in ascending k, the lanes
// reduce as (l0+l2)+(l1+l3), and the depth%4 tail accumulates onto that
// sum in ascending k. Each term is rounded twice, once as a product and
// once as a sum: the explicit float32 conversions stop the compiler from
// fusing them into one FMA (as it does on arm64 without them), so the
// result is bitwise identical across architectures and SIMD dispatch; only
// the payload of a NaN result may differ.
// The association is input-independent, so results are also identical at
// every GOMAXPROCS and across every tiling boundary.
//
// depth must be ≥ 1; callers special-case depth == 0.
func dotBlock4x4Go(a0, a1, a2, a3, b0, b1, b2, b3 *float32, depth int, out *[16]float32) {
	rows := [4][]float32{unsafe.Slice(a0, depth), unsafe.Slice(a1, depth), unsafe.Slice(a2, depth), unsafe.Slice(a3, depth)}
	cols := [4][]float32{unsafe.Slice(b0, depth), unsafe.Slice(b1, depth), unsafe.Slice(b2, depth), unsafe.Slice(b3, depth)}
	kv := depth &^ 3
	for i, a := range rows {
		for j, b := range cols {
			var l0, l1, l2, l3 float32
			for k := 0; k < kv; k += 4 {
				l0 += float32(a[k] * b[k])
				l1 += float32(a[k+1] * b[k+1])
				l2 += float32(a[k+2] * b[k+2])
				l3 += float32(a[k+3] * b[k+3])
			}
			s := (l0 + l2) + (l1 + l3)
			for k := kv; k < depth; k++ {
				s += float32(a[k] * b[k])
			}
			out[4*i+j] = s
		}
	}
}
