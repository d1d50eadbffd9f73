package tensor

import (
	"runtime"
	"sync"
)

// MinParallelRows is the row count below which the matrix kernels (and the
// nn aggregation kernels built on ParallelRows) run inline on the calling
// goroutine. The serial paths are plain function calls — no goroutines, no
// escaping closures — so warm calls on small operands perform zero heap
// allocations, which the allocation-regression tests rely on.
//
// The threshold is exclusive on the inline side: exactly MinParallelRows
// rows take the spawning path (which may still run inline when GOMAXPROCS
// is 1), MinParallelRows-1 rows are guaranteed inline. Pinned by
// TestMinParallelRowsThreshold. Below the threshold the register-blocked
// kernels run untiled; at and above it the tiled dispatch engages.
const MinParallelRows = 64

// MatMul computes C = A·B. Shapes: A is m×k, B is k×n, C is m×n.
// C must not alias A or B; C's prior contents are ignored.
//
// Dispatch (see tiled.go for the shared kernel contract): operands below
// MinParallelRows run the serial 4-row register-blocked kernel; larger
// operands pack Bᵀ once into reused scratch and run the 4×4 dot
// micro-kernel over L1-resident column panels and L2-resident row slabs.
// Row ranges are distributed across GOMAXPROCS goroutines (with a direct
// closure-free call when GOMAXPROCS is 1); each output element is computed
// by exactly one worker with a shape-determined association, so results are
// bitwise identical at every worker count.
func MatMul(c, a, b *Matrix) {
	checkMatMul(c, a, b)
	if a.Rows < MinParallelRows {
		matMulRange(c, a, b, 0, a.Rows)
		return
	}
	bt := packTranspose(b)
	if runtime.GOMAXPROCS(0) == 1 {
		matMulPackedSerial(c, a, bt, false)
	} else {
		matMulPackedParallel(c, a, bt, false)
	}
	putPackBuf(bt.Data)
}

// MatMulAdd computes C += A·B with the same shapes and dispatch thresholds
// as MatMul. Each element's dot product accumulates to full depth in
// registers through the same kernel MatMul uses at that operand size, and
// is added to C exactly once — so the result is bitwise identical to MatMul
// into a scratch matrix followed by Add, which lets the fused
// aggregate+transform pass stream partial results into C without changing
// training numerics.
func MatMulAdd(c, a, b *Matrix) {
	checkMatMul(c, a, b)
	bt := packTranspose(b)
	switch {
	case a.Rows < MinParallelRows:
		matMulABTScalarBlock(c, a, &bt, 0, a.Rows, 0, bt.Rows, true)
	case runtime.GOMAXPROCS(0) == 1:
		matMulPackedSerial(c, a, bt, true)
	default:
		matMulPackedParallel(c, a, bt, true)
	}
	putPackBuf(bt.Data)
}

func matMulRange(c, a, b *Matrix, lo, hi int) {
	n := b.Cols
	depth := a.Cols
	i := lo
	for ; i+4 <= hi; i += 4 {
		c0 := c.Row(i)[:n]
		c1 := c.Row(i + 1)[:n]
		c2 := c.Row(i + 2)[:n]
		c3 := c.Row(i + 3)[:n]
		for j := range c0 {
			c0[j], c1[j], c2[j], c3[j] = 0, 0, 0, 0
		}
		a0 := a.Row(i)
		a1 := a.Row(i + 1)
		a2 := a.Row(i + 2)
		a3 := a.Row(i + 3)
		for k := 0; k < depth; k++ {
			bk := b.Row(k)[:n]
			v0, v1, v2, v3 := a0[k], a1[k], a2[k], a3[k]
			for j, bv := range bk {
				c0[j] += v0 * bv
				c1[j] += v1 * bv
				c2[j] += v2 * bv
				c3[j] += v3 * bv
			}
		}
	}
	for ; i < hi; i++ {
		ci := c.Row(i)[:n]
		for j := range ci {
			ci[j] = 0
		}
		ai := a.Row(i)
		for k := 0; k < depth; k++ {
			v := ai[k]
			bk := b.Row(k)[:n]
			for j, bv := range bk {
				ci[j] += v * bv
			}
		}
	}
}

// MatMulATB computes C = Aᵀ·B. Shapes: A is k×m, B is k×n, C is m×n.
// Used for weight gradients (W.grad = Xᵀ·dY). C's prior contents are
// ignored. Below MinParallelRows output rows it runs the serial 4×4
// k-grouped register kernel; above, both operands are packed transposed
// (two streaming passes, reused scratch) so every dot product runs
// k-contiguous through the SIMD micro-kernel — the layout change more than
// pays for itself because the shared depth (the MFG destination count) is
// the large dimension. Workers own disjoint C rows; per-element association
// is shape-determined, so results are identical at every worker count.
func MatMulATB(c, a, b *Matrix) {
	checkMatMulATB(c, a, b)
	if a.Cols < MinParallelRows {
		matMulATBRange(c, a, b, 0, a.Cols)
		return
	}
	at := packTranspose(a)
	bt := packTranspose(b)
	if runtime.GOMAXPROCS(0) == 1 {
		matMulATBPackedSerial(c, at, bt)
	} else {
		matMulATBPackedParallel(c, at, bt)
	}
	putPackBuf(bt.Data)
	putPackBuf(at.Data)
}

func matMulATBRange(c, a, b *Matrix, lo, hi int) {
	n := b.Cols
	depth := a.Rows
	i := lo
	for ; i+4 <= hi; i += 4 {
		c0 := c.Row(i)[:n]
		c1 := c.Row(i + 1)[:n]
		c2 := c.Row(i + 2)[:n]
		c3 := c.Row(i + 3)[:n]
		for j := range c0 {
			c0[j], c1[j], c2[j], c3[j] = 0, 0, 0, 0
		}
		k := 0
		for ; k+4 <= depth; k += 4 {
			ak0, ak1, ak2, ak3 := a.Row(k), a.Row(k+1), a.Row(k+2), a.Row(k+3)
			b0 := b.Row(k)[:n]
			b1 := b.Row(k + 1)[:n]
			b2 := b.Row(k + 2)[:n]
			b3 := b.Row(k + 3)[:n]
			a00, a01, a02, a03 := ak0[i], ak1[i], ak2[i], ak3[i]
			a10, a11, a12, a13 := ak0[i+1], ak1[i+1], ak2[i+1], ak3[i+1]
			a20, a21, a22, a23 := ak0[i+2], ak1[i+2], ak2[i+2], ak3[i+2]
			a30, a31, a32, a33 := ak0[i+3], ak1[i+3], ak2[i+3], ak3[i+3]
			for j := range b0 {
				bv0, bv1, bv2, bv3 := b0[j], b1[j], b2[j], b3[j]
				c0[j] += a00*bv0 + a01*bv1 + a02*bv2 + a03*bv3
				c1[j] += a10*bv0 + a11*bv1 + a12*bv2 + a13*bv3
				c2[j] += a20*bv0 + a21*bv1 + a22*bv2 + a23*bv3
				c3[j] += a30*bv0 + a31*bv1 + a32*bv2 + a33*bv3
			}
		}
		for ; k < depth; k++ {
			ak := a.Row(k)
			bk := b.Row(k)[:n]
			v0, v1, v2, v3 := ak[i], ak[i+1], ak[i+2], ak[i+3]
			for j, bv := range bk {
				c0[j] += v0 * bv
				c1[j] += v1 * bv
				c2[j] += v2 * bv
				c3[j] += v3 * bv
			}
		}
	}
	for ; i < hi; i++ {
		ci := c.Row(i)[:n]
		for j := range ci {
			ci[j] = 0
		}
		k := 0
		for ; k+4 <= depth; k += 4 {
			v0, v1, v2, v3 := a.Row(k)[i], a.Row(k + 1)[i], a.Row(k + 2)[i], a.Row(k + 3)[i]
			b0 := b.Row(k)[:n]
			b1 := b.Row(k + 1)[:n]
			b2 := b.Row(k + 2)[:n]
			b3 := b.Row(k + 3)[:n]
			for j := range b0 {
				ci[j] += v0*b0[j] + v1*b1[j] + v2*b2[j] + v3*b3[j]
			}
		}
		for ; k < depth; k++ {
			v := a.Row(k)[i]
			bk := b.Row(k)[:n]
			for j, bv := range bk {
				ci[j] += v * bv
			}
		}
	}
}

// MatMulABT computes C = A·Bᵀ. Shapes: A is m×k, B is n×k, C is m×n.
// Used for input gradients (X.grad = dY·Wᵀ). B already is the transposed
// layout the SIMD micro-kernel wants, so no packing is needed. Below
// MinParallelRows it runs the serial scalar kernel; above, B is walked in
// L1-resident panels swept across an L2-resident slab of A rows, each 4×4
// block of dot products going through dotBlock4x4. Workers own disjoint C
// rows; per-element association is shape-determined.
func MatMulABT(c, a, b *Matrix) {
	checkMatMulABT(c, a, b)
	if a.Rows < MinParallelRows {
		matMulABTRange(c, a, b, 0, a.Rows)
		return
	}
	if runtime.GOMAXPROCS(0) == 1 {
		matMulTransposedTiledRange(c, a, b, 0, a.Rows, false)
		return
	}
	parallelRows(a.Rows, func(lo, hi int) { matMulTransposedTiledRange(c, a, b, lo, hi, false) })
}

func matMulABTRange(c, a, b *Matrix, lo, hi int) {
	depth := a.Cols
	nb := b.Rows
	i := lo
	for ; i+2 <= hi; i += 2 {
		a0 := a.Row(i)[:depth]
		a1 := a.Row(i + 1)[:depth]
		c0 := c.Row(i)
		c1 := c.Row(i + 1)
		j := 0
		for ; j+4 <= nb; j += 4 {
			b0 := b.Row(j)[:depth]
			b1 := b.Row(j + 1)[:depth]
			b2 := b.Row(j + 2)[:depth]
			b3 := b.Row(j + 3)[:depth]
			var s00, s01, s02, s03, s10, s11, s12, s13 float32
			for k, av := range a0 {
				bv0, bv1, bv2, bv3 := b0[k], b1[k], b2[k], b3[k]
				s00 += av * bv0
				s01 += av * bv1
				s02 += av * bv2
				s03 += av * bv3
				aw := a1[k]
				s10 += aw * bv0
				s11 += aw * bv1
				s12 += aw * bv2
				s13 += aw * bv3
			}
			c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
			c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
		}
		for ; j < nb; j++ {
			bj := b.Row(j)[:depth]
			var s0, s1 float32
			for k, av := range a0 {
				s0 += av * bj[k]
				s1 += a1[k] * bj[k]
			}
			c0[j], c1[j] = s0, s1
		}
	}
	for ; i < hi; i++ {
		ai := a.Row(i)[:depth]
		ci := c.Row(i)
		j := 0
		for ; j+4 <= nb; j += 4 {
			b0 := b.Row(j)[:depth]
			b1 := b.Row(j + 1)[:depth]
			b2 := b.Row(j + 2)[:depth]
			b3 := b.Row(j + 3)[:depth]
			var s0, s1, s2, s3 float32
			for k, av := range ai {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			ci[j], ci[j+1], ci[j+2], ci[j+3] = s0, s1, s2, s3
		}
		for ; j < nb; j++ {
			bj := b.Row(j)[:depth]
			var s float32
			for k, av := range ai {
				s += av * bj[k]
			}
			ci[j] = s
		}
	}
}

// ParallelRows splits [0, n) into contiguous chunks across worker
// goroutines. Small inputs (below MinParallelRows) run inline to avoid
// goroutine overhead and per-call allocation; callers must ensure f is safe
// for concurrent disjoint ranges.
func ParallelRows(n int, f func(lo, hi int)) {
	if n < MinParallelRows {
		f(0, n)
		return
	}
	parallelRows(n, f)
}

// parallelRows is the spawning path of ParallelRows.
func parallelRows(n int, f func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
