// Package tensor provides the dense float32 matrix substrate for the
// GraphSAGE implementation: storage, elementwise kernels, parallel matrix
// multiplication, row gather/scatter for message-flow graphs, and the
// numerically stable softmax/cross-entropy fused kernel.
//
// This replaces the PyTorch/CUDA stack of the original SALIENT++ — the
// paper's systems claims concern data movement, so a straightforward
// cache-blocked CPU implementation is sufficient for end-to-end training
// at reproduction scale.
package tensor

import (
	"fmt"
	"math"

	"salientpp/internal/rng"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New allocates a zeroed Rows×Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (not copied) as a Rows×Cols matrix.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: %d values for %dx%d matrix", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Row returns row i, aliasing storage.
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero clears the matrix in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix) SameShape(o *Matrix) bool {
	return m.Rows == o.Rows && m.Cols == o.Cols
}

// HeInit fills the matrix with Kaiming-He normal initialization
// (std = sqrt(2/fanIn)), the standard choice ahead of ReLU layers.
func (m *Matrix) HeInit(fanIn int, r *rng.RNG) {
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	for i := range m.Data {
		m.Data[i] = std * float32(r.NormFloat64())
	}
}

// Add accumulates o into m elementwise.
func (m *Matrix) Add(o *Matrix) {
	if !m.SameShape(o) {
		panic("tensor: Add shape mismatch")
	}
	AddRow(m.Data, o.Data)
}

// Scale multiplies every element by s.
func (m *Matrix) Scale(s float32) { ScaleRow(m.Data, s) }

// AddBias adds bias (length Cols) to every row.
func (m *Matrix) AddBias(bias []float32) {
	if len(bias) != m.Cols {
		panic("tensor: bias length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		AddRow(m.Row(r), bias)
	}
}

// ReLU applies max(0, x) in place. It zeroes exactly the elements with
// v < 0: −0 and NaNs of either sign pass through unchanged. It runs the
// AVX2 kernel where the CPU has it, the portable one otherwise (see
// reluGo); both give the same bits.
func (m *Matrix) ReLU() { relu(m.Data) }

// ReLUBackward zeroes gradient entries where the forward activation was
// non-positive, grad ⊙ 1[act > 0]: where act <= 0 (±0 included), and not
// where act is NaN. Like ReLU it dispatches to the AVX2 or the portable
// kernel (see reluBackwardGo), with the same bits either way.
func ReLUBackward(grad, act *Matrix) {
	if !grad.SameShape(act) {
		panic("tensor: ReLUBackward shape mismatch")
	}
	reluBackward(grad.Data[:len(act.Data)], act.Data)
}

// Dropout zeroes each element with probability p and scales survivors by
// 1/(1-p) (inverted dropout); it records the mask into mask (same shape,
// values 0 or 1/(1-p)) for the backward pass.
func (m *Matrix) Dropout(p float64, mask *Matrix, r *rng.RNG) {
	if p <= 0 {
		for i := range mask.Data {
			mask.Data[i] = 1
		}
		return
	}
	scale := float32(1 / (1 - p))
	for i := range m.Data {
		if r.Float64() < p {
			m.Data[i] = 0
			mask.Data[i] = 0
		} else {
			m.Data[i] *= scale
			mask.Data[i] = scale
		}
	}
}

// Mul multiplies elementwise by o (used with dropout masks).
func (m *Matrix) Mul(o *Matrix) {
	if !m.SameShape(o) {
		panic("tensor: Mul shape mismatch")
	}
	for i, v := range o.Data {
		m.Data[i] *= v
	}
}

// Gather copies rows of src selected by idx into dst (dst row i = src row
// idx[i]). dst must be len(idx)×src.Cols.
func Gather(dst, src *Matrix, idx []int32) {
	if dst.Rows != len(idx) || dst.Cols != src.Cols {
		panic("tensor: Gather shape mismatch")
	}
	for i, r := range idx {
		copy(dst.Row(i), src.Row(int(r)))
	}
}

// MaxAbsDiff returns max |m−o| over elements; used in gradient-check tests.
func MaxAbsDiff(m, o *Matrix) float64 {
	if !m.SameShape(o) {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	var worst float64
	for i := range m.Data {
		d := math.Abs(float64(m.Data[i] - o.Data[i]))
		if d > worst {
			worst = d
		}
	}
	return worst
}
