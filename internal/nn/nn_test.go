package nn

import (
	"math"
	"testing"

	"salientpp/internal/dataset"
	"salientpp/internal/rng"
	"salientpp/internal/sample"
	"salientpp/internal/tensor"
)

// handBlock builds a tiny block: 2 destinations, 4 inputs.
// dst 0 samples inputs {2, 3}; dst 1 samples input {3}.
func handBlock() *sample.Block {
	return &sample.Block{
		NumDst:   2,
		InputIDs: []int32{10, 11, 12, 13},
		RowPtr:   []int32{0, 2, 3},
		Col:      []int32{2, 3, 3},
	}
}

func TestSAGEConvForwardKnown(t *testing.T) {
	l := NewSAGEConv(1, 1)
	l.WSelf.W.Set(0, 0, 2)  // out += 2·h_self
	l.WNeigh.W.Set(0, 0, 3) // out += 3·mean(h_nbrs)
	l.Bias.W.Set(0, 0, 0.5)
	h := tensor.FromSlice(4, 1, []float32{1, 2, 4, 8})
	ar := tensor.NewArena(tensor.NewPool())
	var c sageCache
	out := l.Forward(handBlock(), h, ar, &c, true)
	// dst0: 2·1 + 3·mean(4,8) + 0.5 = 2 + 18 + 0.5 = 20.5
	// dst1: 2·2 + 3·8 + 0.5 = 28.5
	if math.Abs(float64(out.At(0, 0))-20.5) > 1e-6 {
		t.Fatalf("dst0 = %v", out.At(0, 0))
	}
	if math.Abs(float64(out.At(1, 0))-28.5) > 1e-6 {
		t.Fatalf("dst1 = %v", out.At(1, 0))
	}
}

func TestSAGEConvIsolatedDst(t *testing.T) {
	// A destination with no sampled neighbors aggregates zero.
	b := &sample.Block{NumDst: 1, InputIDs: []int32{5}, RowPtr: []int32{0, 0}, Col: nil}
	l := NewSAGEConv(2, 2)
	l.WSelf.W.Set(0, 0, 1)
	l.WSelf.W.Set(1, 1, 1)
	h := tensor.FromSlice(1, 2, []float32{3, 4})
	ar := tensor.NewArena(tensor.NewPool())
	var c sageCache
	out := l.Forward(b, h, ar, &c, true)
	if out.At(0, 0) != 3 || out.At(0, 1) != 4 {
		t.Fatalf("isolated dst: %v", out.Data)
	}
}

// buildTinyMFG samples a 2-layer MFG over a small graph for grad checks.
func buildTinyMFG(t *testing.T) (*sample.MFG, *tensor.Matrix, []int32) {
	t.Helper()
	d, err := dataset.Generate(dataset.SyntheticConfig{
		Name: "tiny", NumVertices: 60, AvgDegree: 6, FeatureDim: 5,
		NumClasses: 3, TrainFrac: 0.5, FeatureNoise: 0.3,
		Materialize: true, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sample.NewSampler(d.Graph, []int{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	seeds := d.TrainIDs()[:6]
	mfg := s.NewWorker(rng.New(3)).Sample(seeds)
	x := tensor.New(len(mfg.InputIDs()), d.FeatureDim)
	for i, v := range mfg.InputIDs() {
		copy(x.Row(i), d.FeatureRow(v))
	}
	labels := make([]int32, len(seeds))
	for i, v := range seeds {
		labels[i] = d.Labels[v]
	}
	return mfg, x, labels
}

// Full-model gradient check by central differences.
func TestModelGradientCheck(t *testing.T) {
	mfg, x, labels := buildTinyMFG(t)
	m, err := NewModel(5, 4, 3, 2, 0, 11)
	if err != nil {
		t.Fatal(err)
	}

	lossAt := func() float64 {
		logits, err := m.Forward(mfg, x, false)
		if err != nil {
			t.Fatal(err)
		}
		return tensor.SoftmaxCrossEntropy(logits, labels, nil)
	}

	logits, err := m.Forward(mfg, x, true)
	if err != nil {
		t.Fatal(err)
	}
	dLogits := tensor.New(logits.Rows, logits.Cols)
	tensor.SoftmaxCrossEntropy(logits, labels, dLogits)
	m.ZeroGrad()
	m.Backward(dLogits)

	const eps = 1e-2
	checked := 0
	for pi, p := range m.Params() {
		for i := 0; i < len(p.W.Data); i += 3 { // subsample for speed
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := lossAt()
			p.W.Data[i] = orig - eps
			lm := lossAt()
			p.W.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := float64(p.G.Data[i])
			if math.Abs(numeric-analytic) > 2e-2+0.05*math.Abs(numeric) {
				t.Fatalf("param %d[%d]: analytic %v numeric %v", pi, i, analytic, numeric)
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("only %d gradients checked", checked)
	}
}

func TestModelForwardShapeErrors(t *testing.T) {
	mfg, x, _ := buildTinyMFG(t)
	m, _ := NewModel(5, 4, 3, 3, 0, 1) // 3 layers vs 2-block MFG
	if _, err := m.Forward(mfg, x, false); err == nil {
		t.Fatal("expected layer/block mismatch error")
	}
	m2, _ := NewModel(5, 4, 3, 2, 0, 1)
	bad := tensor.New(x.Rows-1, x.Cols)
	if _, err := m2.Forward(mfg, bad, false); err == nil {
		t.Fatal("expected feature rows error")
	}
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(5, 4, 3, 0, 0, 1); err == nil {
		t.Fatal("expected layers error")
	}
	if _, err := NewModel(0, 4, 3, 2, 0, 1); err == nil {
		t.Fatal("expected dim error")
	}
	if _, err := NewModel(5, 4, 1, 2, 0, 1); err == nil {
		t.Fatal("expected classes error")
	}
}

func TestModelDeterministicInit(t *testing.T) {
	a, _ := NewModel(5, 8, 3, 2, 0, 42)
	b, _ := NewModel(5, 8, 3, 2, 0, 42)
	ap, bp := a.Params(), b.Params()
	for i := range ap {
		if tensor.MaxAbsDiff(ap[i].W, bp[i].W) != 0 {
			t.Fatal("same seed produced different weights")
		}
	}
	c, _ := NewModel(5, 8, 3, 2, 0, 43)
	if tensor.MaxAbsDiff(ap[0].W, c.Params()[0].W) == 0 {
		t.Fatal("different seeds produced identical weights")
	}
}

func TestCopyWeightsFrom(t *testing.T) {
	a, _ := NewModel(5, 8, 3, 2, 0, 1)
	b, _ := NewModel(5, 8, 3, 2, 0, 2)
	if err := b.CopyWeightsFrom(a); err != nil {
		t.Fatal(err)
	}
	ap, bp := a.Params(), b.Params()
	for i := range ap {
		if tensor.MaxAbsDiff(ap[i].W, bp[i].W) != 0 {
			t.Fatal("weights differ after copy")
		}
	}
	c, _ := NewModel(6, 8, 3, 2, 0, 3)
	if err := c.CopyWeightsFrom(a); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestAdamMinimizesQuadratic(t *testing.T) {
	// Minimize f(w) = Σ (w_i - target_i)² with explicit gradients.
	p := NewParam(1, 4)
	target := []float32{1, -2, 3, 0.5}
	opt := NewAdam(0.05)
	for step := 0; step < 400; step++ {
		for i := range p.W.Data {
			p.G.Data[i] = 2 * (p.W.Data[i] - target[i])
		}
		opt.Step([]*Param{p})
	}
	for i := range target {
		if math.Abs(float64(p.W.Data[i]-target[i])) > 0.05 {
			t.Fatalf("Adam failed to converge: w=%v", p.W.Data)
		}
	}
	if opt.StepCount() != 400 {
		t.Fatalf("step count %d", opt.StepCount())
	}
}

// End-to-end single-machine training sanity: loss decreases and train
// accuracy beats chance on a learnable synthetic dataset.
func TestTrainingConverges(t *testing.T) {
	d, err := dataset.Generate(dataset.SyntheticConfig{
		Name: "conv", NumVertices: 1200, AvgDegree: 8, FeatureDim: 16,
		NumClasses: 4, TrainFrac: 0.3, FeatureNoise: 0.4,
		Materialize: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sample.NewSampler(d.Graph, []int{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(d.FeatureDim, 32, d.NumClasses, 2, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewAdam(0.01)
	train := d.TrainIDs()
	r := rng.New(9)
	w := s.NewWorker(r.Split(1))

	runEpoch := func(update bool) (float64, float64) {
		var lossSum, accSum float64
		batches := sample.EpochBatches(train, 64, r.Split(uint64(opt.StepCount())))
		for _, seeds := range batches {
			mfg := w.Sample(seeds)
			x := tensor.New(len(mfg.InputIDs()), d.FeatureDim)
			for i, v := range mfg.InputIDs() {
				copy(x.Row(i), d.FeatureRow(v))
			}
			labels := make([]int32, len(seeds))
			for i, v := range seeds {
				labels[i] = d.Labels[v]
			}
			logits, err := m.Forward(mfg, x, update)
			if err != nil {
				t.Fatal(err)
			}
			dL := tensor.New(logits.Rows, logits.Cols)
			lossSum += tensor.SoftmaxCrossEntropy(logits, labels, dL)
			accSum += tensor.Accuracy(logits, labels)
			if update {
				m.ZeroGrad()
				m.Backward(dL)
				opt.Step(m.Params())
			}
		}
		nb := float64(len(batches))
		return lossSum / nb, accSum / nb
	}

	loss0, _ := runEpoch(false)
	for e := 0; e < 5; e++ {
		runEpoch(true)
	}
	loss1, acc1 := runEpoch(false)
	if loss1 >= loss0*0.8 {
		t.Fatalf("loss did not decrease: %.4f -> %.4f", loss0, loss1)
	}
	if acc1 < 0.5 {
		t.Fatalf("train accuracy %.3f below 0.5 after training", acc1)
	}
}
