package tensor

import (
	"runtime"
	"sync"
)

// The cache-tiled fp32 GEMM kernels behind MatMul, MatMulAdd,
// MatMulAddPacked, MatMulATB, MatMulATBAddPair and MatMulABT. All of them
// funnel through one block loop (matMulBlock) over one packed right-operand
// layout (PackedB: panels of four B columns, k-interleaved in 4-wide
// chunks; see dot.go) and one 8×8 register block, dotBlock8x8, in three
// tiers chosen once at startup: the AVX-512 kernel where the CPU has
// AVX-512F, else four 4×4 blocks of the AVX2 kernel, else of the portable
// Go kernel — bitwise identical whichever runs. MatMul and the Aᵀ·B
// products pack B from its k×n layout (one pack for both products of
// MatMulATBAddPair; PackB lets a caller pack once for several
// MatMulAddPacked calls), MatMulABT packs its n×k Bᵀ, and the Aᵀ·B
// products also pack Aᵀ k-contiguous; all packs reuse scratch, so the
// steady state allocates nothing. The block loop sweeps L1-resident runs
// of packed columns across an L2-resident slab of A rows. That is the one
// fp32 product path, at every operand size.
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
//     identical at every GOMAXPROCS, at every row and column count (an
//     output does not depend on which rows or columns share its product),
//     and whichever kernel tier the CPU dispatches to (see dot.go).
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

// Tiling parameters. The unit kept L1-resident is a run of panelCols
// packed B columns of a k-wide operand, sized to panelTargetBytes. The
// i-chunk is the slab of A rows the run's sweep reuses out of L2 before
// moving on.
const (
	// panelTargetBytes bounds the L1 working set of one run of packed B
	// (16 KiB leaves room for the micro-kernel's A rows and C slices in a
	// 32 KiB L1d).
	panelTargetBytes = 16 << 10
	// tileIChunk is the number of A/C rows per L2-resident slab.
	tileIChunk = 128
)

// panelCols returns the packed B columns per L1-resident run at depth:
// a multiple of 8 (the register block's width) of at least 8.
func panelCols(depth int) int {
	if depth <= 0 {
		return 8
	}
	p := panelTargetBytes / (4 * depth)
	p &^= 7
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

// packTranspose writes Bᵀ (n×k for a k×n B) into a scratch matrix: the
// A-side operand of the Aᵀ·B products. The scratch is returned to the
// shared free list by the caller via putPackBuf.
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

// PackedB is the right operand of a product in the micro-kernels' panel
// layout (dot.go): output column j's depth terms live in panel j/4, at
// float offset 4·depth·(j/4), k-interleaved with the panel's three other
// columns. A final partial panel is padded with zero columns, whose
// outputs matMulBlock discards. Its buffer comes from the pack scratch and
// goes back with Release.
type PackedB struct {
	cols, depth int
	data        []float32
}

// Release returns the packed buffer to the pack scratch. p must not be
// used afterwards.
func (p *PackedB) Release() {
	putPackBuf(p.data)
	p.data = nil
}

// panelIndex is the offset of depth k of a panel's column jj (0..3) inside
// the panel.
func panelIndex(k, jj, depth int) int {
	if k < depth&^3 {
		return 4*(k&^3) + 4*jj + k&3
	}
	return 4*k + jj
}

// PackB packs a k×n B (MatMul's and the Aᵀ·B products' right operand)
// into panels. A caller with several products against one B packs it once
// and runs each through MatMulAddPacked, then calls Release.
//
// Four source rows per pass: each full panel's 16-float chunk of those rows
// is one 4×4 transpose written contiguously, while the four rows stream
// sequentially. The depth%4 tail rows copy four contiguous values per
// panel; a partial last panel goes element by element.
func PackB(b *Matrix) PackedB {
	depth, n := b.Rows, b.Cols
	buf := getPackBuf((n + 3) / 4 * 4 * depth)
	src := b.Data
	nf := n &^ 3
	k := 0
	for ; k+4 <= depth; k += 4 {
		r0 := src[k*n : k*n+n]
		r1 := src[(k+1)*n:][:len(r0)]
		r2 := src[(k+2)*n:][:len(r0)]
		r3 := src[(k+3)*n:][:len(r0)]
		for j := 0; j < nf; j += 4 {
			o := j*depth + 4*k
			d := buf[o : o+16 : o+16]
			d[0], d[1], d[2], d[3] = r0[j], r1[j], r2[j], r3[j]
			d[4], d[5], d[6], d[7] = r0[j+1], r1[j+1], r2[j+1], r3[j+1]
			d[8], d[9], d[10], d[11] = r0[j+2], r1[j+2], r2[j+2], r3[j+2]
			d[12], d[13], d[14], d[15] = r0[j+3], r1[j+3], r2[j+3], r3[j+3]
		}
	}
	for ; k < depth; k++ {
		r := src[k*n : k*n+n]
		for j := 0; j < nf; j += 4 {
			copy(buf[j*depth+4*k:j*depth+4*k+4], r[j:j+4])
		}
	}
	if nf < n {
		edge := buf[nf*depth : (nf+4)*depth]
		for k := 0; k < depth; k++ {
			for jj := 0; jj < 4; jj++ {
				var v float32
				if nf+jj < n {
					v = src[k*n+nf+jj]
				}
				edge[panelIndex(k, jj, depth)] = v
			}
		}
	}
	return PackedB{cols: n, depth: depth, data: buf}
}

// packPanelsT packs an n×k Bᵀ (MatMulABT's right operand, whose rows
// already are k-contiguous) into panels: per full panel, each 16-float
// chunk is four 4-float runs of its four rows, and each tail k four
// strided values. A partial last panel goes element by element.
func packPanelsT(bt *Matrix) PackedB {
	n, depth := bt.Rows, bt.Cols
	buf := getPackBuf((n + 3) / 4 * 4 * depth)
	src := bt.Data
	nf := n &^ 3
	kv := depth &^ 3
	for j := 0; j < nf; j += 4 {
		r0 := src[j*depth : j*depth+depth]
		r1 := src[(j+1)*depth:][:len(r0)]
		r2 := src[(j+2)*depth:][:len(r0)]
		r3 := src[(j+3)*depth:][:len(r0)]
		d := buf[j*depth : (j+4)*depth]
		for k := 0; k < kv; k += 4 {
			c := d[4*k : 4*k+16 : 4*k+16]
			copy(c[0:4], r0[k:k+4])
			copy(c[4:8], r1[k:k+4])
			copy(c[8:12], r2[k:k+4])
			copy(c[12:16], r3[k:k+4])
		}
		for k := kv; k < depth; k++ {
			c := d[4*k : 4*k+4 : 4*k+4]
			c[0], c[1], c[2], c[3] = r0[k], r1[k], r2[k], r3[k]
		}
	}
	if nf < n {
		edge := buf[nf*depth : (nf+4)*depth]
		for jj := 0; jj < 4; jj++ {
			for k := 0; k < depth; k++ {
				var v float32
				if nf+jj < n {
					v = src[(nf+jj)*depth+k]
				}
				edge[panelIndex(k, jj, depth)] = v
			}
		}
	}
	return PackedB{cols: n, depth: depth, data: buf}
}

// matMulBlock is the one micro-kernel block loop, shared by every kernel
// tier, over the output block rows [lo,hi) × columns [jlo,jhi) against the
// packed right operand b (jlo a multiple of 8). Every element — including
// row and column remainders — goes through dotBlock8x8 with the identical
// 4-lane strided association: edge rows repeat the last live row pointer,
// edge columns read the panel's zero padding or repeat the last live panel,
// and their extra outputs are discarded. So an element's value depends
// only on the operand shapes, never on which tile or worker range computed
// it. Each element touches C exactly once: a store, or a single += when
// acc is set, which keeps MatMulAdd bitwise identical to MatMul into
// scratch followed by Add.
//
// A full 8×8 block is stored (or added) by the kernel straight into C;
// only edge blocks go through a 64-float scratch block clipped to C.
func matMulBlock(c, a *Matrix, b *PackedB, lo, hi, jlo, jhi int, acc bool) {
	depth := a.Cols
	if depth == 0 {
		if !acc {
			for i := lo; i < hi; i++ {
				clear(c.Row(i)[jlo:jhi])
			}
		}
		return
	}
	var out [64]float32
	var rows [8]*float32
	ad, bd, cd, n := a.Data, b.data, c.Data, c.Cols
	for i := lo; i < hi; i += 8 {
		ni := min(8, hi-i)
		for r := range rows {
			rows[r] = &ad[(i+min(r, ni-1))*depth]
		}
		for j := jlo; j < jhi; j += 8 {
			nj := min(8, jhi-j)
			b0 := &bd[j*depth]
			b1 := b0
			if nj > 4 {
				b1 = &bd[(j+4)*depth]
			}
			if ni == 8 && nj == 8 {
				cb := cd[i*n+j : (i+7)*n+j+8]
				dotBlock8x8(&rows, b0, b1, depth, &cb[0], n, acc)
				continue
			}
			dotBlock8x8(&rows, b0, b1, depth, &out[0], 8, false)
			for r := 0; r < ni; r++ {
				cr := c.Row(i + r)[j : j+nj]
				o := out[8*r : 8*r+nj]
				if acc {
					for s, v := range o {
						cr[s] += v
					}
				} else {
					copy(cr, o)
				}
			}
		}
	}
}

// matMulTiledRange computes C rows [lo,hi) against the packed right operand
// with two-level tiling: an L2-resident slab of tileIChunk A rows swept by
// L1-resident runs of panelCols(depth) packed columns: the one worker body
// of every product.
func matMulTiledRange(c, a *Matrix, b *PackedB, lo, hi int, acc bool) {
	nb := b.cols
	pr := panelCols(a.Cols)
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
			matMulBlock(c, a, b, ilo, ihi, jlo, jhi, acc)
		}
	}
}

// matMulTiled computes C = A·B, or C += A·B when acc is set, with B packed:
// inline below MinParallelRows output rows or at GOMAXPROCS 1,
// row-parallel otherwise. The operands are passed by value so the inline
// path keeps them on this stack (zero allocations when the pack scratch is
// warm); only the spawning path's closure moves its copies to the heap.
func matMulTiled(c *Matrix, a Matrix, b PackedB, acc bool) {
	if a.Rows < MinParallelRows || runtime.GOMAXPROCS(0) == 1 {
		matMulTiledRange(c, &a, &b, 0, a.Rows, acc)
		return
	}
	matMulTiledParallel(c, a, b, acc)
}

func matMulTiledParallel(c *Matrix, a Matrix, b PackedB, acc bool) {
	parallelRows(a.Rows, func(lo, hi int) { matMulTiledRange(c, &a, &b, lo, hi, acc) })
}
