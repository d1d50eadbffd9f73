//go:build !amd64

package tensor

// dotBlock4x4 runs the fp32 dot micro-kernel; without amd64 assembly that
// is the portable kernel.
func dotBlock4x4(a0, a1, a2, a3, bp *float32, depth int, out *[16]float32) {
	dotBlock4x4Go(a0, a1, a2, a3, bp, depth, out)
}

// dotBlock8x8 runs the 8×8 block as four portable 4×4 blocks.
func dotBlock8x8(a *[8]*float32, b0, b1 *float32, depth int, c *float32, ldc int, acc bool) {
	dotBlock8x8Quads(a, b0, b1, depth, c, ldc, acc)
}
