package tensor

import (
	"runtime"
	"sync"
)

// The cache-tiled fp32 GEMM kernels behind MatMul, MatMulAdd, MatMulATB,
// MatMulATBAddPair and MatMulABT. All of them funnel through one 4×4 dot
// micro-kernel (dotBlock4x4: AVX2 where the CPU has it, the portable Go
// kernel otherwise, bitwise identical either way) over operands in
// k-contiguous layout: MatMul packs Bᵀ once per call (reused scratch, zero
// steady-state allocations), the Aᵀ·B products pack Aᵀ and Bᵀ (one Bᵀ for
// both products of MatMulATBAddPair), and MatMulABT's B argument already
// is the transpose. The kernel sweeps L1-resident column panels across an
// L2-resident slab of A rows. That is the one fp32 product path, at every
// operand size.
//
// Contract, shared by the kernels:
//
//   - C must not alias A or B.
//   - MatMul/MatMulATB/MatMulABT ignore C's prior contents (pooled matrices
//     arrive dirty); MatMulAdd and MatMulATBAddPair accumulate into C,
//     adding each full-depth dot product to C exactly once, so the result
//     is bitwise identical to the product into scratch followed by Add.
//   - Every output element is produced by exactly one worker with a fixed
//     association determined by the depth alone, so results are bitwise
//     identical at every GOMAXPROCS, at every row count (an output row
//     does not depend on which rows share its product), and whichever dot
//     kernel the CPU dispatches to (see dot.go).
//   - Products below MinParallelRows output rows run serially inline: no
//     goroutines, no escaping closures, zero heap allocations when the
//     pack scratch is warm.

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
//
// It moves eight source rows per pass: for each source column j the pass
// writes eight contiguous values of destination row j (half a cache line)
// while the eight source rows stream sequentially, so both sides touch
// each cache line a handful of times instead of once per element. The
// k%8 remaining rows go one at a time.
func packTranspose(b *Matrix) Matrix {
	k, n := b.Rows, b.Cols
	buf := getPackBuf(n * k)
	src := b.Data
	i := 0
	for ; i+8 <= k; i += 8 {
		r0 := src[i*n : i*n+n]
		r1 := src[(i+1)*n:][:len(r0)]
		r2 := src[(i+2)*n:][:len(r0)]
		r3 := src[(i+3)*n:][:len(r0)]
		r4 := src[(i+4)*n:][:len(r0)]
		r5 := src[(i+5)*n:][:len(r0)]
		r6 := src[(i+6)*n:][:len(r0)]
		r7 := src[(i+7)*n:][:len(r0)]
		for j := range r0 {
			d := buf[j*k+i : j*k+i+8 : j*k+i+8]
			d[0], d[1], d[2], d[3] = r0[j], r1[j], r2[j], r3[j]
			d[4], d[5], d[6], d[7] = r4[j], r5[j], r6[j], r7[j]
		}
	}
	for ; i < k; i++ {
		for j, v := range src[i*n : i*n+n] {
			buf[j*k+i] = v
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
//
// The four A-row pointers are taken from a.Data once per row quad. A full
// 4×4 block takes its B-row pointers straight from b.Data and writes its
// sixteen outputs through four capped C sub-slices; only edge blocks (fewer
// than four rows or columns left) take the general path that clips the
// outputs to C.
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
	ad, bd, cd, n := a.Data, b.Data, c.Data, c.Cols
	for i := lo; i < hi; i += 4 {
		ni := min(4, hi-i)
		a0 := &ad[i*depth]
		a1 := &ad[(i+min(1, ni-1))*depth]
		a2 := &ad[(i+min(2, ni-1))*depth]
		a3 := &ad[(i+min(3, ni-1))*depth]
		j := jlo
		if ni == 4 {
			for ; j+4 <= jhi; j += 4 {
				dotBlock4x4(a0, a1, a2, a3, &bd[j*depth], &bd[(j+1)*depth], &bd[(j+2)*depth], &bd[(j+3)*depth], depth, &out)
				o := i*n + j
				c0 := cd[o : o+4 : o+4]
				c1 := cd[o+n : o+n+4 : o+n+4]
				c2 := cd[o+2*n : o+2*n+4 : o+2*n+4]
				c3 := cd[o+3*n : o+3*n+4 : o+3*n+4]
				if acc {
					c0[0], c0[1], c0[2], c0[3] = c0[0]+out[0], c0[1]+out[1], c0[2]+out[2], c0[3]+out[3]
					c1[0], c1[1], c1[2], c1[3] = c1[0]+out[4], c1[1]+out[5], c1[2]+out[6], c1[3]+out[7]
					c2[0], c2[1], c2[2], c2[3] = c2[0]+out[8], c2[1]+out[9], c2[2]+out[10], c2[3]+out[11]
					c3[0], c3[1], c3[2], c3[3] = c3[0]+out[12], c3[1]+out[13], c3[2]+out[14], c3[3]+out[15]
				} else {
					c0[0], c0[1], c0[2], c0[3] = out[0], out[1], out[2], out[3]
					c1[0], c1[1], c1[2], c1[3] = out[4], out[5], out[6], out[7]
					c2[0], c2[1], c2[2], c2[3] = out[8], out[9], out[10], out[11]
					c3[0], c3[1], c3[2], c3[3] = out[12], out[13], out[14], out[15]
				}
			}
		}
		for ; j < jhi; j += 4 {
			nj := min(4, jhi-j)
			dotBlock4x4(a0, a1, a2, a3, &bd[j*depth], &bd[(j+min(1, nj-1))*depth], &bd[(j+min(2, nj-1))*depth], &bd[(j+min(3, nj-1))*depth], depth, &out)
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

// matMulTransposedTiledRange computes C rows [lo,hi) against a right operand
// already in transposed (n×k) layout, with two-level tiling: an L2-resident
// slab of tileIChunk A rows swept by L1-resident panels of b rows: the one
// worker body of all four products.
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

// matMulTiled computes C = A·Bᵀ, or C += A·Bᵀ when acc is set, with bt in
// transposed (n×k) layout: inline below MinParallelRows output rows or at
// GOMAXPROCS 1, row-parallel otherwise. The operands are passed by value so
// the inline path keeps them on this stack (zero allocations when the pack
// scratch is warm); only the spawning path's closure moves its copies to
// the heap.
func matMulTiled(c *Matrix, a, bt Matrix, acc bool) {
	if a.Rows < MinParallelRows || runtime.GOMAXPROCS(0) == 1 {
		matMulTransposedTiledRange(c, &a, &bt, 0, a.Rows, acc)
		return
	}
	matMulTiledParallel(c, a, bt, acc)
}

func matMulTiledParallel(c *Matrix, a, bt Matrix, acc bool) {
	parallelRows(a.Rows, func(lo, hi int) { matMulTransposedTiledRange(c, &a, &bt, lo, hi, acc) })
}
