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
// v < 0: −0 and NaNs of either sign pass through unchanged.
//
// The test runs on the float's bits, without a branch: a data-dependent
// branch on the sign mispredicts about half the time on activations, which
// costs more than the whole pass otherwise does. v < 0 holds exactly for
// the bit patterns in (0x80000000, 0xFF800000] — the negative values from
// the smallest subnormal to −Inf — so one unsigned range check, turned
// into an all-ones mask by the sign of a 64-bit difference, selects them.
func (m *Matrix) ReLU() {
	d := m.Data
	for i, v := range d {
		b := math.Float32bits(v)
		neg := uint32(int64(uint64(b-0x80000001)-0x7F800000) >> 63)
		d[i] = math.Float32frombits(b &^ neg)
	}
}

// ReLUBackward zeroes gradient entries where the forward activation was
// non-positive, grad ⊙ 1[act > 0]: where act <= 0 (±0 included), and not
// where act is NaN. Like ReLU it tests bits without a branch: act <= 0
// holds for the pattern 0 and for [0x80000000, 0xFF800000], −0 through
// −Inf.
func ReLUBackward(grad, act *Matrix) {
	if !grad.SameShape(act) {
		panic("tensor: ReLUBackward shape mismatch")
	}
	g := grad.Data[:len(act.Data)]
	for i, a := range act.Data {
		b := math.Float32bits(a)
		zero := uint32(int64(uint64(b)-1)>>63) | uint32(int64(uint64(b-0x80000000)-0x7F800001)>>63)
		g[i] = math.Float32frombits(math.Float32bits(g[i]) &^ zero)
	}
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
