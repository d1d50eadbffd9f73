package tensor

import "sync"

// The cache-tiled fp32 GEMM kernels behind MatMul, MatMulAdd, MatMulATB
// and MatMulABT. All four products funnel through one 4×4 dot
// micro-kernel (dotBlock4x4: AVX2 where the CPU has it, the portable Go
// kernel otherwise, bitwise identical either way) over operands in
// k-contiguous layout: MatMul packs Bᵀ once per call (reused scratch, zero
// steady-state allocations), MatMulATB packs both Aᵀ and Bᵀ, and
// MatMulABT's B argument already is the transpose. The kernel sweeps
// L1-resident column panels across an L2-resident slab of A rows. Operands
// below MinParallelRows keep the register-blocked scalar kernels.
//
// Contract, shared by the four kernels:
//
//   - C must not alias A or B.
//   - MatMul/MatMulATB/MatMulABT ignore C's prior contents (pooled matrices
//     arrive dirty); MatMulAdd accumulates into C.
//   - Every output element is produced by exactly one worker with a fixed,
//     input-shape-determined floating-point association, so results are
//     bitwise identical at every GOMAXPROCS and whichever dot kernel the
//     CPU dispatches to (see dot.go).
//   - Operands below MinParallelRows take a serial inline path: no
//     goroutines, no escaping closures, zero heap allocations when the
//     pack scratch is warm.
//
// The scalar kernels accumulate every element in a single chain (ascending
// k); the dot kernel's strided-lane association differs from that chain by
// ordinary fp32 rounding noise, so the tiled path agrees with the
// all-scalar reference within tolerance of the float64 naive reference,
// not bitwise.

func checkMatMul(c, a, b *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("tensor: MatMul shape mismatch")
	}
}

func checkMatMulATB(c, a, b *Matrix) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic("tensor: MatMulATB shape mismatch")
	}
}

func checkMatMulABT(c, a, b *Matrix) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic("tensor: MatMulABT shape mismatch")
	}
}

// Tiling parameters. The panel is the unit kept L1-resident: panelRows rows
// of a (packed) k-wide operand, sized to panelTargetBytes. The i-chunk is
// the slab of A rows the panel sweep reuses out of L2 before moving on.
const (
	// panelTargetBytes bounds the L1 working set of one B/Bᵀ panel
	// (16 KiB leaves room for the micro-kernel's A rows and C slices in a
	// 32 KiB L1d).
	panelTargetBytes = 16 << 10
	// tileIChunk is the number of A/C rows per L2-resident slab.
	tileIChunk = 128
)

// panelRows returns the rows-per-panel for a packed operand with depth
// columns: a multiple of 4 (the micro-kernel's j-width) of at least 8.
func panelRows(depth int) int {
	if depth <= 0 {
		return 8
	}
	p := panelTargetBytes / (4 * depth)
	p &^= 3
	if p < 8 {
		p = 8
	}
	return p
}

// packScratch recycles pack buffers across kernel calls so the steady-state
// tiled path performs zero heap allocations. A plain mutex-guarded free list
// (not sync.Pool) keeps buffers across GC cycles, which the allocation-
// regression tests rely on. Shared by every goroutine in the process; a
// buffer is held only for the duration of one kernel call.
var packScratch struct {
	mu   sync.Mutex
	free [][]float32
}

const packScratchMax = 16

func getPackBuf(n int) []float32 {
	packScratch.mu.Lock()
	for i, b := range packScratch.free {
		if cap(b) >= n {
			last := len(packScratch.free) - 1
			packScratch.free[i] = packScratch.free[last]
			packScratch.free = packScratch.free[:last]
			packScratch.mu.Unlock()
			return b[:n]
		}
	}
	packScratch.mu.Unlock()
	c := 1
	for c < n {
		c <<= 1
	}
	return make([]float32, n, c)
}

func putPackBuf(b []float32) {
	packScratch.mu.Lock()
	if len(packScratch.free) < packScratchMax {
		packScratch.free = append(packScratch.free, b)
	}
	packScratch.mu.Unlock()
}

// packTranspose writes Bᵀ (n×k for a k×n B) into a scratch matrix. The
// scratch is returned to the shared free list by the caller via putPackBuf.
func packTranspose(b *Matrix) Matrix {
	k, n := b.Rows, b.Cols
	buf := getPackBuf(n * k)
	// Blocked transpose: walk 32×32 tiles so both the read and the write
	// side touch each cache line a handful of times instead of n times.
	const tb = 32
	for i0 := 0; i0 < k; i0 += tb {
		i1 := i0 + tb
		if i1 > k {
			i1 = k
		}
		for j0 := 0; j0 < n; j0 += tb {
			j1 := j0 + tb
			if j1 > n {
				j1 = n
			}
			for i := i0; i < i1; i++ {
				row := b.Row(i)
				for j := j0; j < j1; j++ {
					buf[j*k+i] = row[j]
				}
			}
		}
	}
	return Matrix{Rows: n, Cols: k, Data: buf}
}

// matMulABTBlock is the shared SIMD micro-kernel driver over the output
// block rows [lo,hi) × columns [jlo,jhi), where b holds the right operand in
// transposed (n×k) layout. Every element — including row and column
// remainders — goes through dotBlock4x4 with the identical 4-lane strided
// association (remainders duplicate a row/column pointer and discard the
// extra outputs), so an element's value depends only on the operand shapes,
// never on which tile or worker range computed it. Each element touches C
// exactly once: a store, or a single += when acc is set, which keeps
// MatMulAdd bitwise identical to MatMul into scratch followed by Add.
func matMulABTBlock(c, a, b *Matrix, lo, hi, jlo, jhi int, acc bool) {
	depth := a.Cols
	if depth == 0 {
		if !acc {
			for i := lo; i < hi; i++ {
				ci := c.Row(i)
				for j := jlo; j < jhi; j++ {
					ci[j] = 0
				}
			}
		}
		return
	}
	var out [16]float32
	var ap, bp [4]*float32
	for i := lo; i < hi; i += 4 {
		ni := min(4, hi-i)
		for r := range ap {
			ap[r] = &a.Row(i + min(r, ni-1))[0]
		}
		for j := jlo; j < jhi; j += 4 {
			nj := min(4, jhi-j)
			for s := range bp {
				bp[s] = &b.Row(j + min(s, nj-1))[0]
			}
			dotBlock4x4(ap[0], ap[1], ap[2], ap[3], bp[0], bp[1], bp[2], bp[3], depth, &out)
			for r := 0; r < ni; r++ {
				cr := c.Row(i + r)[j : j+nj]
				o := out[4*r : 4*r+nj]
				if acc {
					for s, v := range o {
						cr[s] += v
					}
				} else {
					for s, v := range o {
						cr[s] = v
					}
				}
			}
		}
	}
}

// matMulABTScalarBlock is the scalar-chain 2×4 register-dot kernel over the
// same block layout (b transposed, n×k). Each element accumulates its dot
// product in a single register chain in ascending k order — the exact
// per-element rounding sequence of the memory-accumulating 4-row MatMul
// kernel — and touches C once (store, or one += when acc is set). It backs
// MatMulAdd's sub-MinParallelRows path, which must stay bitwise consistent
// with the scalar MatMul.
func matMulABTScalarBlock(c, a, b *Matrix, lo, hi, jlo, jhi int, acc bool) {
	depth := a.Cols
	i := lo
	for ; i+2 <= hi; i += 2 {
		a0 := a.Row(i)[:depth]
		a1 := a.Row(i + 1)[:depth]
		c0 := c.Row(i)
		c1 := c.Row(i + 1)
		j := jlo
		for ; j+4 <= jhi; j += 4 {
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
			if acc {
				c0[j] += s00
				c0[j+1] += s01
				c0[j+2] += s02
				c0[j+3] += s03
				c1[j] += s10
				c1[j+1] += s11
				c1[j+2] += s12
				c1[j+3] += s13
			} else {
				c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
				c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
			}
		}
		for ; j < jhi; j++ {
			bj := b.Row(j)[:depth]
			var s0, s1 float32
			for k, av := range a0 {
				s0 += av * bj[k]
				s1 += a1[k] * bj[k]
			}
			if acc {
				c0[j] += s0
				c1[j] += s1
			} else {
				c0[j], c1[j] = s0, s1
			}
		}
	}
	for ; i < hi; i++ {
		ai := a.Row(i)[:depth]
		ci := c.Row(i)
		j := jlo
		for ; j+4 <= jhi; j += 4 {
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
			if acc {
				ci[j] += s0
				ci[j+1] += s1
				ci[j+2] += s2
				ci[j+3] += s3
			} else {
				ci[j], ci[j+1], ci[j+2], ci[j+3] = s0, s1, s2, s3
			}
		}
		for ; j < jhi; j++ {
			bj := b.Row(j)[:depth]
			var s float32
			for k, av := range ai {
				s += av * bj[k]
			}
			if acc {
				ci[j] += s
			} else {
				ci[j] = s
			}
		}
	}
}

// matMulTransposedTiledRange computes C rows [lo,hi) against a right operand
// already in transposed (n×k) layout, with two-level tiling: an L2-resident
// slab of tileIChunk A rows swept by L1-resident panels of b rows. Used both
// by the tiled MatMul (after packing Bᵀ) and by the tiled MatMulABT (whose B
// argument is already n×k).
func matMulTransposedTiledRange(c, a, b *Matrix, lo, hi int, acc bool) {
	nb := b.Rows
	pr := panelRows(a.Cols)
	for ilo := lo; ilo < hi; ilo += tileIChunk {
		ihi := ilo + tileIChunk
		if ihi > hi {
			ihi = hi
		}
		for jlo := 0; jlo < nb; jlo += pr {
			jhi := jlo + pr
			if jhi > nb {
				jhi = nb
			}
			matMulABTBlock(c, a, b, ilo, ihi, jlo, jhi, acc)
		}
	}
}

// matMulPackedSerial / matMulPackedParallel run the tiled SIMD kernel over a
// packed Bᵀ for the full output. The packed operand is passed by value: the
// serial wrapper's &bt stays on its own stack (zero allocations on the warm
// GOMAXPROCS=1 path), while the parallel wrapper's closure escapes its copy
// only when workers actually spawn.
func matMulPackedSerial(c, a *Matrix, bt Matrix, acc bool) {
	matMulTransposedTiledRange(c, a, &bt, 0, a.Rows, acc)
}

func matMulPackedParallel(c, a *Matrix, bt Matrix, acc bool) {
	parallelRows(a.Rows, func(lo, hi int) { matMulTransposedTiledRange(c, a, &bt, lo, hi, acc) })
}

// matMulATBPackedSerial / matMulATBPackedParallel run the tiled SIMD kernel
// for C = Aᵀ·B over both operands pre-packed into k-contiguous layout
// (at is m×k, bt is n×k), so C[i][j] = at.Row(i)·bt.Row(j).
func matMulATBPackedSerial(c *Matrix, at, bt Matrix) {
	matMulTransposedTiledRange(c, &at, &bt, 0, at.Rows, false)
}

func matMulATBPackedParallel(c *Matrix, at, bt Matrix) {
	parallelRows(at.Rows, func(lo, hi int) { matMulTransposedTiledRange(c, &at, &bt, lo, hi, false) })
}
