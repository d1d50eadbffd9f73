package tensor

import "unsafe"

// The fp32 dot micro-kernels. Every product reads its right operand from
// one packed layout (see PackedB in tiled.go): panels of four B rows, each
// panel depth×4 floats, k-interleaved in 4-wide chunks. For the vector part
// (k < depth&^3) the chunk of k = 4c..4c+3 holds
//
//	b0[4c:4c+4] b1[4c:4c+4] b2[4c:4c+4] b3[4c:4c+4]
//
// and each tail k (depth&^3 ≤ k < depth) holds b0[k] b1[k] b2[k] b3[k], so
// the terms of depth k start at float 4k of the panel in both parts.
//
// Every output has one fixed association, shared by every kernel tier:
// lane L accumulates the k ≡ L (mod 4) terms in ascending k, the lanes
// reduce as (l0+l2)+(l1+l3), and the depth%4 tail accumulates onto that
// sum in ascending k. Each term is rounded twice, once as a product and
// once as a sum: the explicit float32 conversions stop the compiler from
// fusing them into one FMA (as it does on arm64 without them), and the
// SIMD kernels use no FMA either, so the result is bitwise identical
// across architectures and kernel tiers; only the payload of a NaN result
// may differ. The association is input-independent, so results are also
// identical at every GOMAXPROCS and across every tiling boundary. A
// panel's padding columns only ever feed outputs matMulBlock discards: no
// kernel adds a padded term into a real output.

// dotBlock4x4Go is the portable fp32 dot micro-kernel and the reference the
// SIMD kernels are tested against. It fills out with the sixteen full-depth
// dot products of four A rows (k-contiguous) against the four B rows of one
// panel:
//
//	out[4*i+j] = a_i · b_j
//
// depth must be ≥ 1; callers special-case depth == 0.
func dotBlock4x4Go(a0, a1, a2, a3, bp *float32, depth int, out *[16]float32) {
	rows := [4][]float32{unsafe.Slice(a0, depth), unsafe.Slice(a1, depth), unsafe.Slice(a2, depth), unsafe.Slice(a3, depth)}
	panel := unsafe.Slice(bp, 4*depth)
	kv := depth &^ 3
	for i, a := range rows {
		for j := 0; j < 4; j++ {
			var l0, l1, l2, l3 float32
			for k := 0; k < kv; k += 4 {
				b := panel[4*k+4*j : 4*k+4*j+4 : 4*k+4*j+4]
				l0 += float32(a[k] * b[0])
				l1 += float32(a[k+1] * b[1])
				l2 += float32(a[k+2] * b[2])
				l3 += float32(a[k+3] * b[3])
			}
			s := (l0 + l2) + (l1 + l3)
			for k := kv; k < depth; k++ {
				s += float32(a[k] * panel[4*k+j])
			}
			out[4*i+j] = s
		}
	}
}

// dotBlock8x8Quads is the 8×8 register block of the tiers without one: it
// computes the 64 dot products of eight A rows against the B rows of panels
// b0 (columns 0..3) and b1 (columns 4..7) as four 4×4 blocks through
// dotBlock4x4, and stores row r of the block to c[r*ldc : r*ldc+8], or adds
// it there when acc is set.
func dotBlock8x8Quads(a *[8]*float32, b0, b1 *float32, depth int, c *float32, ldc int, acc bool) {
	cs := unsafe.Slice(c, 7*ldc+8)
	var out [16]float32
	for h := 0; h < 8; h += 4 {
		for q, bp := range [2]*float32{b0, b1} {
			dotBlock4x4(a[h], a[h+1], a[h+2], a[h+3], bp, depth, &out)
			for r := 0; r < 4; r++ {
				o := (h+r)*ldc + 4*q
				cr := cs[o : o+4 : o+4]
				v := out[4*r : 4*r+4 : 4*r+4]
				if acc {
					cr[0], cr[1], cr[2], cr[3] = cr[0]+v[0], cr[1]+v[1], cr[2]+v[2], cr[3]+v[3]
				} else {
					cr[0], cr[1], cr[2], cr[3] = v[0], v[1], v[2], v[3]
				}
			}
		}
	}
}
