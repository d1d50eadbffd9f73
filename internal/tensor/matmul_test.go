package tensor

import (
	"runtime"
	"slices"
	"testing"

	"salientpp/internal/rng"
)

// refMatMul is the correctness oracle for the fp32 products: a naive
// product accumulated in float64.
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

func randMat(rows, cols int, r *rng.RNG) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(r.NormFloat64())
	}
	return m
}

// TestProductRowsIndependentOfRowCount pins that an output row is a
// function of its own inputs only: the first r rows of each product,
// computed alone, are bitwise the same rows of the 130-row product, on
// both sides of MinParallelRows. For MatMulATB the rows come from the first
// r columns of A; MatMulAdd starts both runs from the same base rows.
func TestProductRowsIndependentOfRowCount(t *testing.T) {
	r := rng.New(61)
	const m, k, n = 130, 37, 29
	a := randMat(m, k, r)
	b := randMat(k, n, r)
	at := randMat(k, m, r)
	bt := randMat(n, k, r)
	base := randMat(m, n, r)

	full := [4]*Matrix{New(m, n), New(m, n), New(m, n), base.Clone()}
	MatMul(full[0], a, b)
	MatMulATB(full[1], at, b)
	MatMulABT(full[2], a, bt)
	MatMulAdd(full[3], a, b)

	for _, rows := range []int{1, 2, 3, 5, 63, 64, 65} {
		head := FromSlice(rows, k, a.Data[:rows*k])
		atHead := New(k, rows)
		for i := 0; i < k; i++ {
			copy(atHead.Row(i), at.Row(i)[:rows])
		}
		part := [4]*Matrix{New(rows, n), New(rows, n), New(rows, n), FromSlice(rows, n, base.Clone().Data[:rows*n])}
		MatMul(part[0], head, b)
		MatMulATB(part[1], atHead, b)
		MatMulABT(part[2], head, bt)
		MatMulAdd(part[3], head, b)
		for p, name := range []string{"MatMul", "MatMulATB", "MatMulABT", "MatMulAdd"} {
			if got, want := part[p].Data, full[p].Data[:rows*n]; !slices.Equal(got, want) {
				t.Errorf("%s: the first %d rows alone differ from the same rows of the %d-row product", name, rows, m)
			}
		}
	}
}

// leftCols returns a copy of m's first cols columns.
func leftCols(m *Matrix, cols int) *Matrix {
	out := New(m.Rows, cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[:cols])
	}
	return out
}

// TestProductColsIndependentOfColCount is the column twin of
// TestProductRowsIndependentOfRowCount: the first c output columns of each
// product, computed alone, are bitwise the same columns of the 130-column
// product. A column that a narrow product computes in an edge block (fewer
// than eight columns left) lands in a full 8×8 block of the wide one, so
// this pins that the block driver's two paths give an element the same
// bits. The row count crosses MinParallelRows and is not a multiple of
// eight, so row edges and the spawning path run too. The accumulating
// products start both runs from the same base columns.
func TestProductColsIndependentOfColCount(t *testing.T) {
	r := rng.New(62)
	const m, k, n = 70, 37, 130
	a := randMat(m, k, r)
	b := randMat(k, n, r)
	at := randMat(k, m, r)
	at2 := randMat(k, m, r)
	bt := randMat(n, k, r)
	base := randMat(m, n, r)
	base2 := randMat(m, n, r)

	products := func(cols int) [6]*Matrix {
		bc, btc := leftCols(b, cols), FromSlice(cols, k, bt.Data[:cols*k])
		out := [6]*Matrix{New(m, cols), leftCols(base, cols), New(m, cols), leftCols(base, cols), leftCols(base2, cols), New(m, cols)}
		MatMul(out[0], a, bc)
		MatMulAdd(out[1], a, bc)
		MatMulATB(out[2], at, bc)
		MatMulATBAddPair(out[3], at, out[4], at2, bc)
		MatMulABT(out[5], a, btc)
		return out
	}
	full := products(n)
	for _, cols := range []int{1, 2, 3, 5, 63, 64, 65} {
		part := products(cols)
		for p, name := range []string{"MatMul", "MatMulAdd", "MatMulATB", "MatMulATBAddPair (first)", "MatMulATBAddPair (second)", "MatMulABT"} {
			if got, want := part[p].Data, leftCols(full[p], cols).Data; !slices.Equal(got, want) {
				t.Errorf("%s: the first %d columns alone differ from the same columns of the %d-column product", name, cols, n)
			}
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
