package tensor

import (
	"fmt"
	"math"
)

// Precision selects the numeric format a compute path keeps its operands
// in. The training pipeline always runs PrecisionFP32 (backward passes need
// full-precision gradients); serving snapshots may freeze weights and
// gathered features into a reduced precision:
//
//   - PrecisionFP32: plain float32 matrices through the fp32 GEMM kernels.
//     The default.
//   - PrecisionFP16: weights and gathered features held as IEEE-754
//     binary16 (half the memory); GEMMs dequantize into pooled fp32 panels
//     and run the fp32 kernels, so fp16 trades a small conversion cost for
//     footprint, not speed.
//   - PrecisionInt8: weights and gathered features held as per-row-scaled
//     int8 — the same symmetric quantization the int8 wire codec uses, so
//     int8-encoded gather payloads feed the compute path without a
//     dequantize/requantize round trip. GEMMs run an integer dot kernel
//     (int8×int8 → int32) and apply the two row scales once per output,
//     cutting serve-side compute as well as memory.
type Precision uint8

const (
	// PrecisionFP32 is the full-precision default.
	PrecisionFP32 Precision = iota
	// PrecisionFP16 stores operands as IEEE-754 binary16.
	PrecisionFP16
	// PrecisionInt8 stores operands as per-row-scaled int8.
	PrecisionInt8
)

// ParsePrecision maps a configuration string to a Precision. The empty
// string is the fp32 default so zero-valued configs keep full precision.
func ParsePrecision(name string) (Precision, error) {
	switch name {
	case "", "fp32":
		return PrecisionFP32, nil
	case "fp16":
		return PrecisionFP16, nil
	case "int8":
		return PrecisionInt8, nil
	}
	return PrecisionFP32, fmt.Errorf("tensor: unknown precision %q (want fp32, fp16, or int8)", name)
}

func (p Precision) String() string {
	switch p {
	case PrecisionFP32:
		return "fp32"
	case PrecisionFP16:
		return "fp16"
	case PrecisionInt8:
		return "int8"
	}
	return fmt.Sprintf("precision(%d)", uint8(p))
}

// ---------------------------------------------------------------------------
// Scalar quantizers. These are the single source of truth for the reduced
// formats: the dist wire codec and the QuantMatrix compute path both call
// them, so a row quantized for the wire is bit-identical to the same row
// quantized for compute — the property that lets an int8 gather payload
// pass straight into an int8 GEMM.

// Int8RowScale returns the symmetric per-row quantization scale
// maxAbs(row)/127, computed over the finite magnitudes (±Inf and NaN cannot
// influence the scale). A zero row (or one holding only non-finite values)
// scales to 0, and every value quantizes to 0 under a zero scale.
func Int8RowScale(row []float32) float32 {
	var maxAbs float64
	for _, v := range row {
		a := math.Abs(float64(v))
		if a > maxAbs && !math.IsInf(a, 0) { // NaN fails a > maxAbs
			maxAbs = a
		}
	}
	return float32(maxAbs / 127)
}

// QuantizeInt8 maps one value to its int8 image under scale: round to
// nearest (half away from zero) of v/scale, clamped to [-127, 127], with
// NaN → 0. The clamping happens in float64 before the int conversion, so no
// platform-dependent float→int overflow is ever evaluated.
func QuantizeInt8(v, scale float32) int8 {
	if scale <= 0 {
		return 0
	}
	r := math.Round(float64(v) / float64(scale))
	switch {
	case r > 127:
		r = 127
	case r < -127:
		r = -127
	case r != r: // NaN
		r = 0
	}
	return int8(r)
}

// QuantizeRowInt8 quantizes one row in place into dst (len(dst) ==
// len(src)) and returns the row scale.
func QuantizeRowInt8(dst []int8, src []float32) float32 {
	scale := Int8RowScale(src)
	if scale == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return 0
	}
	for i, v := range src {
		dst[i] = QuantizeInt8(v, scale)
	}
	return scale
}

// F16FromF32 converts a float32 to binary16 bits with round-to-nearest-even.
// Overflow goes to ±Inf, underflow below the smallest subnormal to ±0, and
// NaN to a quiet NaN. Pure bit manipulation, deterministic on every
// platform.
func F16FromF32(f float32) uint16 {
	x := math.Float32bits(f)
	sign := uint16(x>>16) & 0x8000
	exp := int32(x>>23) & 0xff
	frac := x & 0x007fffff
	if exp == 0xff { // Inf or NaN
		if frac != 0 {
			return sign | 0x7e00
		}
		return sign | 0x7c00
	}
	e := exp - 127 + 15
	if e >= 0x1f {
		return sign | 0x7c00 // overflow → Inf
	}
	if e <= 0 {
		if e < -10 {
			return sign // underflow → zero
		}
		// Subnormal half: shift the significand (with its implicit leading
		// one) right and round to nearest even.
		frac |= 0x00800000
		shift := uint32(14 - e)
		v := frac >> shift
		rem := frac & (1<<shift - 1)
		half := uint32(1) << (shift - 1)
		if rem > half || (rem == half && v&1 == 1) {
			v++ // may carry into the smallest normal, which encodes correctly
		}
		return sign | uint16(v)
	}
	// Normal half: drop 13 significand bits with round-to-nearest-even. A
	// rounding carry propagates into the exponent field, correctly rounding
	// up to the next binade (or to Inf at the top).
	v := uint16(e)<<10 | uint16(frac>>13)
	rem := frac & 0x1fff
	if rem > 0x1000 || (rem == 0x1000 && v&1 == 1) {
		v++
	}
	return sign | v
}

// F32FromF16 converts binary16 bits to float32 (exact: every half value is
// representable as a float32).
func F32FromF16(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	frac := uint32(h & 0x3ff)
	switch {
	case exp == 0:
		if frac == 0 {
			return math.Float32frombits(sign) // ±0
		}
		// Subnormal half: normalize into a float32 normal.
		e := uint32(127 - 15 + 1)
		for frac&0x400 == 0 {
			frac <<= 1
			e--
		}
		return math.Float32frombits(sign | e<<23 | (frac&0x3ff)<<13)
	case exp == 0x1f:
		if frac != 0 {
			return math.Float32frombits(sign | 0x7fc00000) // NaN
		}
		return math.Float32frombits(sign | 0x7f800000) // ±Inf
	}
	return math.Float32frombits(sign | (exp+112)<<23 | frac<<13)
}

// ---------------------------------------------------------------------------
// QuantMatrix

// QuantMatrix is a dense row-major matrix in a reduced precision: per-row
// symmetrically scaled int8 (I8 + Scale, the wire codec's int8 format) or
// IEEE-754 binary16 (H). Exactly the fields of the active precision are
// populated. The zero value quantizes in place via Quantize, growing its
// buffers to a high-water mark so steady-state requantization allocates
// nothing.
type QuantMatrix struct {
	Prec       Precision
	Rows, Cols int
	I8         []int8    // int8: Rows×Cols values
	Scale      []float32 // int8: one scale per row
	H          []uint16  // fp16: Rows×Cols values
}

// Resize sets the shape and precision and grows the active buffers,
// reusing capacity. Contents are unspecified afterwards.
func (q *QuantMatrix) Resize(prec Precision, rows, cols int) {
	q.Prec, q.Rows, q.Cols = prec, rows, cols
	n := rows * cols
	switch prec {
	case PrecisionInt8:
		q.I8 = grow(q.I8, n)
		q.Scale = grow(q.Scale, rows)
	case PrecisionFP16:
		q.H = grow(q.H, n)
	default:
		panic("tensor: QuantMatrix requires a reduced precision")
	}
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Quantize replaces q's contents with the quantized image of src.
func (q *QuantMatrix) Quantize(prec Precision, src *Matrix) {
	q.Resize(prec, src.Rows, src.Cols)
	for i := 0; i < src.Rows; i++ {
		q.SetRow(i, src.Row(i))
	}
}

// SetRow quantizes one row of values into row i.
func (q *QuantMatrix) SetRow(i int, src []float32) {
	switch q.Prec {
	case PrecisionInt8:
		q.Scale[i] = QuantizeRowInt8(q.I8[i*q.Cols:(i+1)*q.Cols], src)
	case PrecisionFP16:
		dst := q.H[i*q.Cols : (i+1)*q.Cols]
		for j, v := range src {
			dst[j] = F16FromF32(v)
		}
	}
}

// CopyRow copies row j of src (same precision and width) into row i — the
// pre-quantized fast path: a gather serving from a quantized shadow of the
// local shard or cache moves bytes instead of requantizing.
func (q *QuantMatrix) CopyRow(i int, src *QuantMatrix, j int) {
	switch q.Prec {
	case PrecisionInt8:
		copy(q.I8[i*q.Cols:(i+1)*q.Cols], src.I8[j*src.Cols:(j+1)*src.Cols])
		q.Scale[i] = src.Scale[j]
	case PrecisionFP16:
		copy(q.H[i*q.Cols:(i+1)*q.Cols], src.H[j*src.Cols:(j+1)*src.Cols])
	}
}

// DequantizeRow writes row i's float32 image into dst (len(dst) == Cols).
func (q *QuantMatrix) DequantizeRow(dst []float32, i int) {
	switch q.Prec {
	case PrecisionInt8:
		s := q.Scale[i]
		for j, v := range q.I8[i*q.Cols : (i+1)*q.Cols] {
			dst[j] = float32(v) * s
		}
	case PrecisionFP16:
		for j, v := range q.H[i*q.Cols : (i+1)*q.Cols] {
			dst[j] = F32FromF16(v)
		}
	}
}

// AccumulateRow adds row i's float32 image into dst — the quantized
// aggregation primitive (neighbor-mean sums dequantize on the fly instead
// of materializing a float32 copy of the features).
func (q *QuantMatrix) AccumulateRow(dst []float32, i int) {
	switch q.Prec {
	case PrecisionInt8:
		accumInt8Row(dst[:q.Cols], q.I8[i*q.Cols:(i+1)*q.Cols], q.Scale[i])
	case PrecisionFP16:
		for j, v := range q.H[i*q.Cols : (i+1)*q.Cols] {
			dst[j] += F32FromF16(v)
		}
	}
}

// RowSlice returns a view of rows [0, rows) sharing q's storage.
func (q *QuantMatrix) RowSlice(rows int) QuantMatrix {
	v := QuantMatrix{Prec: q.Prec, Rows: rows, Cols: q.Cols}
	switch q.Prec {
	case PrecisionInt8:
		v.I8 = q.I8[:rows*q.Cols]
		v.Scale = q.Scale[:rows]
	case PrecisionFP16:
		v.H = q.H[:rows*q.Cols]
	}
	return v
}

// ---------------------------------------------------------------------------
// Quantized GEMM

// MatMulQuant computes (or accumulates into, when acc) C += A · Bᵀ over two
// quantized operands of the same precision: A is rows×k, bt is the
// transposed right operand (cols×k — weights are packed transposed at
// freeze time so both operands are k-contiguous). Output is float32.
//
//   - int8 runs the integer dot kernel (int8×int8 → int32 accumulation,
//     which is exact, so the result is independent of loop order and tile
//     shape) and applies scaleA[i]·scaleB[j] once per output element with a
//     single float64→float32 rounding.
//   - fp16 dequantizes both operands into pooled fp32 buffers and runs the
//     fp32 tiled kernel — binary16 storage, float32 arithmetic.
//
// Serving forwards are single-goroutine per engine, so MatMulQuant is
// serial; it never spawns workers.
func MatMulQuant(c *Matrix, a, bt *QuantMatrix, acc bool) {
	if a.Prec != bt.Prec {
		panic(fmt.Sprintf("tensor: MatMulQuant precision mismatch %v vs %v", a.Prec, bt.Prec))
	}
	if a.Cols != bt.Cols || c.Rows != a.Rows || c.Cols != bt.Rows {
		panic(fmt.Sprintf("tensor: MatMulQuant shape mismatch: C %dx%d = A %dx%d · Bᵀ %dx%d",
			c.Rows, c.Cols, a.Rows, a.Cols, bt.Rows, bt.Cols))
	}
	switch a.Prec {
	case PrecisionInt8:
		matMulInt8(c, a, bt, acc)
	case PrecisionFP16:
		matMulHalf(c, a, bt, acc)
	default:
		panic("tensor: MatMulQuant requires a reduced precision")
	}
}

// matMulInt8 is the int8 GEMM: a 2×4 register block over the SIMD integer
// dot kernel, with plain scalar remainders (integer accumulation is exact,
// so the split cannot change results).
func matMulInt8(c *Matrix, a, bt *QuantMatrix, acc bool) {
	k := a.Cols
	var sums [8]int32
	i := 0
	for ; i+2 <= a.Rows; i += 2 {
		a0 := a.I8[i*k : (i+1)*k]
		a1 := a.I8[(i+1)*k : (i+2)*k]
		j := 0
		for ; j+4 <= bt.Rows; j += 4 {
			dotInt8Block2x4(a0, a1,
				bt.I8[j*k:(j+1)*k], bt.I8[(j+1)*k:(j+2)*k],
				bt.I8[(j+2)*k:(j+3)*k], bt.I8[(j+3)*k:(j+4)*k], &sums)
			for t := 0; t < 4; t++ {
				storeQuantDot(c, i, j+t, sums[t], a.Scale[i], bt.Scale[j+t], acc)
				storeQuantDot(c, i+1, j+t, sums[4+t], a.Scale[i+1], bt.Scale[j+t], acc)
			}
		}
		for ; j < bt.Rows; j++ {
			b := bt.I8[j*k : (j+1)*k]
			storeQuantDot(c, i, j, dotInt8(a0, b), a.Scale[i], bt.Scale[j], acc)
			storeQuantDot(c, i+1, j, dotInt8(a1, b), a.Scale[i+1], bt.Scale[j], acc)
		}
	}
	for ; i < a.Rows; i++ {
		a0 := a.I8[i*k : (i+1)*k]
		for j := 0; j < bt.Rows; j++ {
			storeQuantDot(c, i, j, dotInt8(a0, bt.I8[j*k:(j+1)*k]), a.Scale[i], bt.Scale[j], acc)
		}
	}
}

// storeQuantDot applies the two row scales to an exact integer dot product
// with a single rounding (the float64 product is exact for every reachable
// sum·scale pair) and writes or accumulates the output element.
func storeQuantDot(c *Matrix, i, j int, sum int32, sa, sb float32, acc bool) {
	v := float32(float64(sum) * float64(sa) * float64(sb))
	if acc {
		c.Data[i*c.Cols+j] += v
	} else {
		c.Data[i*c.Cols+j] = v
	}
}

// dotInt8 is the scalar reference integer dot product, used for remainder
// rows/columns and as the differential-test oracle for the SIMD kernel.
func dotInt8(a, b []int8) int32 {
	var s int32
	for i, v := range a {
		s += int32(v) * int32(b[i])
	}
	return s
}

// matMulHalf dequantizes both fp16 operands into pooled fp32 buffers and
// runs the serial fp32 tiled kernel.
func matMulHalf(c *Matrix, a, bt *QuantMatrix, acc bool) {
	fa := Matrix{Rows: a.Rows, Cols: a.Cols, Data: getPackBuf(a.Rows * a.Cols)}
	for i, v := range a.H[:a.Rows*a.Cols] {
		fa.Data[i] = F32FromF16(v)
	}
	fb := Matrix{Rows: bt.Rows, Cols: bt.Cols, Data: getPackBuf(bt.Rows * bt.Cols)}
	for i, v := range bt.H[:bt.Rows*bt.Cols] {
		fb.Data[i] = F32FromF16(v)
	}
	matMulTransposedTiledRange(c, &fa, &fb, 0, c.Rows, acc)
	putPackBuf(fb.Data)
	putPackBuf(fa.Data)
}
