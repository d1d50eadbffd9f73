package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"salientpp/internal/rng"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatal("bad shape")
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("Set/At broken")
	}
	if m.Row(1)[2] != 5 {
		t.Fatal("Row aliasing broken")
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float32{1, 2, 3})
}

func TestCloneIndependent(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestAddScaleBias(t *testing.T) {
	a := FromSlice(2, 2, []float32{1, 2, 3, 4})
	b := FromSlice(2, 2, []float32{10, 20, 30, 40})
	a.Add(b)
	if a.At(1, 1) != 44 {
		t.Fatal("Add broken")
	}
	a.Scale(0.5)
	if a.At(0, 0) != 5.5 {
		t.Fatal("Scale broken")
	}
	a.AddBias([]float32{1, -1})
	if a.At(0, 0) != 6.5 || a.At(0, 1) != 10 {
		t.Fatal("AddBias broken")
	}
}

func TestReLUAndBackward(t *testing.T) {
	m := FromSlice(1, 4, []float32{-1, 0, 2, -3})
	m.ReLU()
	want := []float32{0, 0, 2, 0}
	for i, w := range want {
		if m.Data[i] != w {
			t.Fatalf("ReLU: %v", m.Data)
		}
	}
	grad := FromSlice(1, 4, []float32{5, 5, 5, 5})
	ReLUBackward(grad, m)
	if grad.Data[0] != 0 || grad.Data[2] != 5 || grad.Data[3] != 0 {
		t.Fatalf("ReLUBackward: %v", grad.Data)
	}
}

func TestMatMulKnownValues(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	c := New(2, 2)
	MatMul(c, a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulVariantsAgree(t *testing.T) {
	r := rng.New(1)
	const m, k, n = 17, 13, 9
	a := New(m, k)
	b := New(k, n)
	for i := range a.Data {
		a.Data[i] = float32(r.NormFloat64())
	}
	for i := range b.Data {
		b.Data[i] = float32(r.NormFloat64())
	}
	c := New(m, n)
	MatMul(c, a, b)

	// ATB: build Aᵀ explicitly and verify Aᵀᵀ·B = A·B path.
	at := New(k, m)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	c2 := New(m, n)
	MatMulATB(c2, at, b)
	if d := MaxAbsDiff(c, c2); d > 1e-4 {
		t.Fatalf("ATB disagrees with MatMul by %v", d)
	}

	// ABT: build Bᵀ explicitly.
	bt := New(n, k)
	for i := 0; i < k; i++ {
		for j := 0; j < n; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	c3 := New(m, n)
	MatMulABT(c3, a, bt)
	if d := MaxAbsDiff(c, c3); d > 1e-4 {
		t.Fatalf("ABT disagrees with MatMul by %v", d)
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 2), New(2, 3), New(2, 2))
}

func TestDropoutMaskConsistency(t *testing.T) {
	r := rng.New(3)
	m := New(8, 8)
	for i := range m.Data {
		m.Data[i] = 1
	}
	mask := New(8, 8)
	m.Dropout(0.5, mask, r)
	zeros := 0
	for i := range m.Data {
		if mask.Data[i] == 0 {
			if m.Data[i] != 0 {
				t.Fatal("mask and value disagree")
			}
			zeros++
		} else if math.Abs(float64(m.Data[i]-2)) > 1e-6 {
			t.Fatalf("survivor not scaled: %v", m.Data[i])
		}
	}
	if zeros < 10 || zeros > 54 {
		t.Fatalf("dropout rate implausible: %d/64 zeros", zeros)
	}
	// p=0 keeps everything with unit mask.
	m2 := New(2, 2)
	mask2 := New(2, 2)
	m2.Dropout(0, mask2, r)
	for i := range mask2.Data {
		if mask2.Data[i] != 1 {
			t.Fatal("p=0 mask must be all ones")
		}
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	// Uniform logits over C classes: loss = ln(C).
	logits := New(2, 4)
	labels := []int32{1, 3}
	grad := New(2, 4)
	loss := SoftmaxCrossEntropy(logits, labels, grad)
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("loss=%v want ln4", loss)
	}
	// Gradient rows sum to 0 and the label entry is negative.
	for i := 0; i < 2; i++ {
		var s float64
		for j := 0; j < 4; j++ {
			s += float64(grad.At(i, j))
		}
		if math.Abs(s) > 1e-6 {
			t.Fatalf("grad row %d sums to %v", i, s)
		}
		if grad.At(i, int(labels[i])) >= 0 {
			t.Fatal("label gradient must be negative")
		}
	}
}

func TestSoftmaxCrossEntropyMasked(t *testing.T) {
	logits := FromSlice(2, 2, []float32{10, 0, 0, 10})
	grad := New(2, 2)
	loss := SoftmaxCrossEntropy(logits, []int32{0, -1}, grad)
	if loss > 1e-3 {
		t.Fatalf("confident correct prediction should have ~0 loss, got %v", loss)
	}
	if grad.At(1, 0) != 0 || grad.At(1, 1) != 0 {
		t.Fatal("masked row must have zero gradient")
	}
	if v := SoftmaxCrossEntropy(logits, []int32{-1, -1}, grad); v != 0 {
		t.Fatalf("all-masked loss = %v", v)
	}
}

// Numerical gradient check for the fused softmax/CE kernel.
func TestSoftmaxCrossEntropyGradCheck(t *testing.T) {
	r := rng.New(7)
	logits := New(3, 5)
	for i := range logits.Data {
		logits.Data[i] = float32(r.NormFloat64())
	}
	labels := []int32{2, 0, 4}
	grad := New(3, 5)
	SoftmaxCrossEntropy(logits, labels, grad)
	const eps = 1e-3
	for i := 0; i < logits.Rows; i++ {
		for j := 0; j < logits.Cols; j++ {
			orig := logits.At(i, j)
			logits.Set(i, j, orig+eps)
			lp := SoftmaxCrossEntropy(logits, labels, nil)
			logits.Set(i, j, orig-eps)
			lm := SoftmaxCrossEntropy(logits, labels, nil)
			logits.Set(i, j, orig)
			numeric := (lp - lm) / (2 * eps)
			if math.Abs(numeric-float64(grad.At(i, j))) > 1e-3 {
				t.Fatalf("grad(%d,%d): analytic %v numeric %v", i, j, grad.At(i, j), numeric)
			}
		}
	}
}

func TestAccuracyAndArgmax(t *testing.T) {
	logits := FromSlice(3, 2, []float32{1, 0, 0, 1, 1, 0})
	for i, want := range []int{0, 1, 0} {
		if got := ArgmaxRow(logits.Row(i)); got != want {
			t.Fatalf("ArgmaxRow(row %d)=%d, want %d", i, got, want)
		}
	}
	acc := Accuracy(logits, []int32{0, 1, 1})
	if math.Abs(acc-2.0/3) > 1e-9 {
		t.Fatalf("accuracy=%v", acc)
	}
	if Accuracy(logits, []int32{-1, -1, -1}) != 0 {
		t.Fatal("all-masked accuracy must be 0")
	}
}

// Property: MatMul distributes over addition: A(B+C) = AB + AC.
func TestMatMulLinearityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m, k, n := 2+r.Intn(8), 2+r.Intn(8), 2+r.Intn(8)
		a, b, c := New(m, k), New(k, n), New(k, n)
		for i := range a.Data {
			a.Data[i] = float32(r.NormFloat64())
		}
		for i := range b.Data {
			b.Data[i] = float32(r.NormFloat64())
			c.Data[i] = float32(r.NormFloat64())
		}
		bc := b.Clone()
		bc.Add(c)
		left := New(m, n)
		MatMul(left, a, bc)
		ab, ac := New(m, n), New(m, n)
		MatMul(ab, a, b)
		MatMul(ac, a, c)
		ab.Add(ac)
		return MaxAbsDiff(left, ab) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	r := rng.New(1)
	a := New(256, 256)
	bb := New(256, 256)
	for i := range a.Data {
		a.Data[i] = float32(r.NormFloat64())
		bb.Data[i] = float32(r.NormFloat64())
	}
	c := New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(c, a, bb)
	}
}
