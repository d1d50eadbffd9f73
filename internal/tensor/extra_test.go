package tensor

import (
	"math"
	"testing"

	"salientpp/internal/rng"
)

func TestHeInitStd(t *testing.T) {
	m := New(200, 200)
	const fanIn = 50
	m.HeInit(fanIn, rng.New(2))
	var sumsq float64
	for _, v := range m.Data {
		sumsq += float64(v) * float64(v)
	}
	std := math.Sqrt(sumsq / float64(len(m.Data)))
	want := math.Sqrt(2.0 / fanIn)
	if math.Abs(std-want) > 0.01 {
		t.Fatalf("He std %v want %v", std, want)
	}
}

func TestMul(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{2, 0, -1})
	a.Mul(b)
	if a.Data[0] != 2 || a.Data[1] != 0 || a.Data[2] != -3 {
		t.Fatalf("Mul: %v", a.Data)
	}
}

func TestZeroAndSameShape(t *testing.T) {
	a := FromSlice(2, 2, []float32{1, 2, 3, 4})
	a.Zero()
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
	if a.SameShape(New(2, 3)) {
		t.Fatal("SameShape false positive")
	}
	if !a.SameShape(New(2, 2)) {
		t.Fatal("SameShape false negative")
	}
}

func TestShapePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"New negative":       func() { New(-1, 2) },
		"Add mismatch":       func() { New(1, 2).Add(New(2, 1)) },
		"Mul mismatch":       func() { New(1, 2).Mul(New(2, 1)) },
		"AddBias mismatch":   func() { New(1, 2).AddBias([]float32{1}) },
		"MaxAbsDiff shape":   func() { MaxAbsDiff(New(1, 1), New(2, 2)) },
		"ReLUBack mismatch":  func() { ReLUBackward(New(1, 2), New(2, 1)) },
		"MatMulATB mismatch": func() { MatMulATB(New(2, 2), New(3, 2), New(2, 2)) },
		"MatMulABT mismatch": func() { MatMulABT(New(2, 2), New(2, 3), New(2, 2)) },
		"CE label mismatch":  func() { SoftmaxCrossEntropy(New(2, 2), []int32{0}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestParallelRowsLargeMatrix(t *testing.T) {
	// Exercise the multi-goroutine matmul path (>=64 rows) against the
	// single-threaded reference on a small-but-wide product.
	r := rng.New(5)
	a := New(128, 32)
	b := New(32, 16)
	for i := range a.Data {
		a.Data[i] = float32(r.NormFloat64())
	}
	for i := range b.Data {
		b.Data[i] = float32(r.NormFloat64())
	}
	c := New(128, 16)
	MatMul(c, a, b)
	// Reference: naive triple loop.
	ref := New(128, 16)
	for i := 0; i < 128; i++ {
		for j := 0; j < 16; j++ {
			var s float32
			for k := 0; k < 32; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			ref.Set(i, j, s)
		}
	}
	if d := MaxAbsDiff(c, ref); d > 1e-4 {
		t.Fatalf("parallel matmul differs from reference by %v", d)
	}
}
