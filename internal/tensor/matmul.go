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
// TestMinParallelRowsThreshold. It decides only whether workers spawn: the
// products run the same tiled kernel, and round the same, at every size.
const MinParallelRows = 64

// MatMul computes C = A·B. Shapes: A is m×k, B is k×n, C is m×n.
// C must not alias A or B; C's prior contents are ignored.
//
// B is packed once into reused scratch and the 8×8 register block runs
// over L1-resident runs of packed columns and L2-resident row slabs (see
// tiled.go for the shared kernel contract). Row ranges are distributed
// across GOMAXPROCS goroutines from MinParallelRows output rows on; each
// output element is computed by exactly one worker with a depth-determined
// association, so results are bitwise identical at every worker count and
// every row count.
func MatMul(c, a, b *Matrix) { matMulPacked(c, a, b, false) }

// MatMulAdd computes C += A·B with the same shapes and dispatch as MatMul.
// Each element's dot product accumulates to full depth in registers
// through the kernel MatMul uses, and is added to C exactly once — so the
// result is bitwise identical to MatMul into a scratch matrix followed by
// Add, which lets the fused aggregate+transform pass stream partial results
// into C without changing training numerics.
func MatMulAdd(c, a, b *Matrix) { matMulPacked(c, a, b, true) }

// MatMulAddPacked is MatMulAdd against a B packed by PackB: several
// products against one B pay for one pack. The result is bitwise identical
// to MatMulAdd.
func MatMulAddPacked(c, a *Matrix, b *PackedB) {
	if a.Cols != b.depth || c.Rows != a.Rows || c.Cols != b.cols {
		panic("tensor: MatMulAddPacked shape mismatch")
	}
	matMulTiled(c, *a, *b, true)
}

func matMulPacked(c, a, b *Matrix, acc bool) {
	checkMatMul(c, a, b)
	bp := PackB(b)
	matMulTiled(c, *a, bp, acc)
	bp.Release()
}

// MatMulATB computes C = Aᵀ·B. Shapes: A is k×m, B is k×n, C is m×n.
// C's prior contents are ignored. Both operands are packed (two streaming
// passes, reused scratch): Aᵀ transposed and B into panels, so every dot
// product runs k-contiguous through the register block — the layout
// change more than pays for itself because the shared depth (the MFG
// destination count) is the large dimension. Workers own disjoint C rows;
// per-element association is depth-determined, so results are identical
// at every worker count.
func MatMulATB(c, a, b *Matrix) {
	checkMatMulATB(c, a, b)
	bp := PackB(b)
	matMulATBPacked(c, a, bp, false)
	bp.Release()
}

// MatMulATBAddPair computes C1 += A1ᵀ·B and C2 += A2ᵀ·B, packing the shared
// B once: the weight gradients of a layer whose two weights see the same
// output gradient (W.grad += Xᵀ·dY for both halves of a SAGE layer). Each
// product runs MatMulATB's kernel and adds each element to C exactly once,
// so the result is bitwise identical to MatMulATB into scratch followed by
// Add.
func MatMulATBAddPair(c1, a1, c2, a2, b *Matrix) {
	checkMatMulATB(c1, a1, b)
	checkMatMulATB(c2, a2, b)
	bp := PackB(b)
	matMulATBPacked(c1, a1, bp, true)
	matMulATBPacked(c2, a2, bp, true)
	bp.Release()
}

// matMulATBPacked is the one Aᵀ·B path: it packs Aᵀ and runs the tiled
// kernel against bp, B already packed.
func matMulATBPacked(c, a *Matrix, bp PackedB, acc bool) {
	at := packTranspose(a)
	matMulTiled(c, at, bp, acc)
	putPackBuf(at.Data)
}

// MatMulABT computes C = A·Bᵀ. Shapes: A is m×k, B is n×k, C is m×n.
// Used for input gradients (X.grad = dY·Wᵀ). B's rows already are
// k-contiguous, so its pack into panels only interleaves four rows at a
// time (B here is a weight, small next to A). Workers own disjoint C rows;
// per-element association is depth-determined.
func MatMulABT(c, a, b *Matrix) {
	checkMatMulABT(c, a, b)
	bp := packPanelsT(b)
	matMulTiled(c, *a, bp, false)
	bp.Release()
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
