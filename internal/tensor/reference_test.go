package tensor

// MatMul, MatMulAdd and MatMulATB are the unfused products the packed and
// fused paths are pinned against: each packs its own B into scratch. No
// program code calls them, so they live with the tests.

// MatMul computes C = A·B (A is m×k, B is k×n, C is m×n; C's prior
// contents are ignored): B packed into scratch, then MatMulPacked.
func MatMul(c, a, b *Matrix) {
	checkMatMul(c, a, b)
	bp := PackB(b)
	MatMulPacked(c, a, &bp)
	bp.Release()
}

// MatMulAdd computes C += A·B with the same shapes as MatMul: B packed
// into scratch, then MatMulAddPacked.
func MatMulAdd(c, a, b *Matrix) {
	checkMatMul(c, a, b)
	bp := PackB(b)
	MatMulAddPacked(c, a, &bp)
	bp.Release()
}

// MatMulATB computes C = Aᵀ·B (A is k×m, B is k×n, C is m×n; C's prior
// contents are ignored) through MatMulATBAddPair's packs and kernel, with
// a store in place of the accumulate.
func MatMulATB(c, a, b *Matrix) {
	checkMatMulATB(c, a, b)
	bp := PackB(b)
	at := packTranspose(a)
	matMulTiled(c, at, bp, false)
	putPackBuf(at.Data)
	bp.Release()
}

func checkMatMul(c, a, b *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("tensor: MatMul shape mismatch")
	}
}
