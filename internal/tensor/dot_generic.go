//go:build !amd64

package tensor

// dotBlock4x4 runs the fp32 dot micro-kernel; without amd64 assembly that
// is the portable kernel.
func dotBlock4x4(a0, a1, a2, a3, b0, b1, b2, b3 *float32, depth int, out *[16]float32) {
	dotBlock4x4Go(a0, a1, a2, a3, b0, b1, b2, b3, depth, out)
}
