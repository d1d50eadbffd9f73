package tensor

import (
	"runtime"
	"testing"

	"salientpp/internal/rng"
)

// naive reference kernels, deliberately unblocked.
func refMatMul(c, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += float64(a.At(i, k)) * float64(b.At(k, j))
			}
			c.Set(i, j, float32(s))
		}
	}
}

// Blocked is the all-scalar differential reference for the package
// kernels: the 4-row MatMul, 4×4 MatMulATB and 2×4 MatMulABT register
// micro-kernels — the sub-MinParallelRows path of the package kernels —
// run at every size, row-parallel, with no cache tiling and no SIMD. Every
// element accumulates in one scalar chain, so it differs from the tiled
// SIMD path by fp32 rounding noise only.
type Blocked struct{}

func (Blocked) MatMul(c, a, b *Matrix) {
	checkMatMul(c, a, b)
	ParallelRows(a.Rows, func(lo, hi int) { matMulRange(c, a, b, lo, hi) })
}

func (Blocked) MatMulAdd(c, a, b *Matrix) {
	checkMatMul(c, a, b)
	bt := packTranspose(b)
	ParallelRows(a.Rows, func(lo, hi int) { matMulABTScalarBlock(c, a, &bt, lo, hi, 0, bt.Rows, true) })
	putPackBuf(bt.Data)
}

func (Blocked) MatMulATB(c, a, b *Matrix) {
	checkMatMulATB(c, a, b)
	ParallelRows(a.Cols, func(lo, hi int) { matMulATBRange(c, a, b, lo, hi) })
}

func (Blocked) MatMulABT(c, a, b *Matrix) {
	checkMatMulABT(c, a, b)
	ParallelRows(a.Rows, func(lo, hi int) { matMulABTRange(c, a, b, lo, hi) })
}

func randMat(rows, cols int, r *rng.RNG) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(r.NormFloat64())
	}
	return m
}

// TestBlockedKernelsMatchReference sweeps shapes that exercise every
// remainder lane of the register-blocked micro-kernels (i%4, i%2, j%4,
// k%4) and both the inline and parallel dispatch paths.
func TestBlockedKernelsMatchReference(t *testing.T) {
	r := rng.New(42)
	shapes := [][3]int{
		{1, 1, 1}, {2, 3, 4}, {3, 5, 7}, {4, 4, 4}, {5, 9, 6},
		{7, 13, 11}, {63, 17, 10}, {64, 16, 9}, {65, 19, 33},
		{130, 21, 12}, {67, 64, 65},
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := randMat(m, k, r)
		b := randMat(k, n, r)
		want := New(m, n)
		refMatMul(want, a, b)

		got := New(m, n)
		MatMul(got, a, b)
		if d := MaxAbsDiff(want, got); d > 1e-3 {
			t.Fatalf("MatMul %v: max diff %v", s, d)
		}

		at := New(k, m)
		for i := 0; i < m; i++ {
			for j := 0; j < k; j++ {
				at.Set(j, i, a.At(i, j))
			}
		}
		got2 := New(m, n)
		MatMulATB(got2, at, b)
		if d := MaxAbsDiff(want, got2); d > 1e-3 {
			t.Fatalf("MatMulATB %v: max diff %v", s, d)
		}

		bt := New(n, k)
		for i := 0; i < k; i++ {
			for j := 0; j < n; j++ {
				bt.Set(j, i, b.At(i, j))
			}
		}
		got3 := New(m, n)
		MatMulABT(got3, a, bt)
		if d := MaxAbsDiff(want, got3); d > 1e-3 {
			t.Fatalf("MatMulABT %v: max diff %v", s, d)
		}
	}
}

// TestKernelsDeterministicAcrossWorkers pins the bitwise-reproducibility
// contract: every output element is computed by one worker in a fixed
// k-order, so GOMAXPROCS must not change a single bit.
func TestKernelsDeterministicAcrossWorkers(t *testing.T) {
	r := rng.New(7)
	const m, k, n = 160, 96, 70
	a := randMat(m, k, r)
	b := randMat(k, n, r)
	at := randMat(k, m, r)
	bt := randMat(n, k, r)

	run := func() (*Matrix, *Matrix, *Matrix) {
		c1, c2, c3 := New(m, n), New(m, n), New(m, n)
		MatMul(c1, a, b)
		MatMulATB(c2, at, b)
		MatMulABT(c3, a, bt)
		return c1, c2, c3
	}
	prev := runtime.GOMAXPROCS(1)
	s1, s2, s3 := run()
	runtime.GOMAXPROCS(8)
	p1, p2, p3 := run()
	runtime.GOMAXPROCS(prev)
	if MaxAbsDiff(s1, p1) != 0 || MaxAbsDiff(s2, p2) != 0 || MaxAbsDiff(s3, p3) != 0 {
		t.Fatal("kernel output depends on GOMAXPROCS")
	}
}

// TestMatMulOverwritesDirtyOutput verifies the kernels ignore prior
// contents of C (pooled matrices arrive dirty).
func TestMatMulOverwritesDirtyOutput(t *testing.T) {
	r := rng.New(3)
	a := randMat(6, 5, r)
	b := randMat(5, 4, r)
	want := New(6, 4)
	MatMul(want, a, b)
	dirty := New(6, 4)
	for i := range dirty.Data {
		dirty.Data[i] = 1e9
	}
	MatMul(dirty, a, b)
	if MaxAbsDiff(want, dirty) != 0 {
		t.Fatal("MatMul result depends on prior C contents")
	}
	bt := randMat(4, 5, r)
	want2 := New(6, 4)
	MatMulABT(want2, a, bt)
	for i := range dirty.Data {
		dirty.Data[i] = -1e9
	}
	MatMulABT(dirty, a, bt)
	if MaxAbsDiff(want2, dirty) != 0 {
		t.Fatal("MatMulABT result depends on prior C contents")
	}
}
