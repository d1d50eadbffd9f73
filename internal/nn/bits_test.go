package nn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"salientpp/internal/rng"
	"salientpp/internal/sample"
	"salientpp/internal/tensor"
)

// Hashes of the training-step and inference bits produced by the kernels
// as of the commit that introduced TestTrainStepMatchesParentBits. They are
// pinned across commits: a kernel rewrite (branch-free activations, SIMD
// row kernels, a different pack layout) must leave every one unchanged. A
// PR that changes numerics on purpose updates them and says why.
const (
	wantParamBitsNoDropout = 0xe752304224c97407
	wantParamBitsDropout   = 0xfb6b68240ae819f5
	wantFrozenLogitsBits   = 0xfae1e2c9b10210d3
)

// bitsMFG builds a fixed three-layer MFG from its own RNG stream, not the
// sampler, so the pinned hashes depend only on the nn and tensor kernels.
// Block sizes cross tensor.MinParallelRows and fusedStripRows so the
// parallel and strip-split paths run; degrees include zero (isolated
// destinations) and repeated neighbors.
func bitsMFG() *sample.MFG {
	r := rng.New(77)
	sizes := []int{900, 400, 150, 48} // inputs of block l = sizes[l], dsts = sizes[l+1]
	mfg := &sample.MFG{}
	for l := 0; l+1 < len(sizes); l++ {
		nin, nd := sizes[l], sizes[l+1]
		b := &sample.Block{NumDst: nd, InputIDs: make([]int32, nin), RowPtr: make([]int32, nd+1)}
		for i := range b.InputIDs {
			b.InputIDs[i] = int32(i)
		}
		for i := 0; i < nd; i++ {
			deg := r.Intn(7) // 0..6 sampled neighbors
			for e := 0; e < deg; e++ {
				b.Col = append(b.Col, int32(r.Intn(nin)))
			}
			b.RowPtr[i+1] = int32(len(b.Col))
		}
		mfg.Blocks = append(mfg.Blocks, b)
	}
	mfg.Seeds = mfg.Blocks[len(mfg.Blocks)-1].InputIDs[:sizes[len(sizes)-1]]
	return mfg
}

// bitsInputs draws the feature matrix and labels for bitsMFG: normal draws
// with exact ±0 mixed in, so the activations see signed zeros.
func bitsInputs(mfg *sample.MFG, inDim, classes int) (*tensor.Matrix, []int32) {
	r := rng.New(78)
	x := tensor.New(len(mfg.InputIDs()), inDim)
	for i := range x.Data {
		switch r.Intn(20) {
		case 0:
			x.Data[i] = 0
		case 1:
			x.Data[i] = float32(math.Copysign(0, -1))
		default:
			x.Data[i] = float32(r.NormFloat64())
		}
	}
	labels := make([]int32, len(mfg.Seeds))
	for i := range labels {
		labels[i] = int32(r.Intn(classes))
	}
	return x, labels
}

func hashMatrices(ms ...*tensor.Matrix) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, m := range ms {
		for _, v := range m.Data {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// trainStepBits runs three forward/backward/Adam steps on bitsMFG and
// returns the hash of every parameter's bits, plus the hash of a frozen
// snapshot's logits over the same MFG.
func trainStepBits(t *testing.T, dropout float64) (params, logits uint64) {
	t.Helper()
	const inDim, hidden, classes, layers = 20, 24, 5, 3
	mfg := bitsMFG()
	x, labels := bitsInputs(mfg, inDim, classes)
	m, err := NewModel(inDim, hidden, classes, layers, dropout, 19)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewAdam(0.01)
	dL := tensor.New(len(labels), classes)
	for step := 0; step < 3; step++ {
		out, err := m.Forward(mfg, x, true)
		if err != nil {
			t.Fatal(err)
		}
		tensor.SoftmaxCrossEntropy(out, labels, dL)
		m.ZeroGrad()
		m.Backward(dL)
		opt.Step(m.Params())
	}
	var ws []*tensor.Matrix
	for _, p := range m.Params() {
		ws = append(ws, p.W)
	}
	out, err := m.Freeze().Forward(mfg, x)
	if err != nil {
		t.Fatal(err)
	}
	return hashMatrices(ws...), hashMatrices(out)
}

// TestTrainStepMatchesParentBits pins the bits of a short training run and
// of a frozen forward across commits, not only across runs: a kernel change
// that keeps losses close but moves a single bit (a ReLU that turns −0
// into +0, a row kernel that reassociates a sum) fails here.
func TestTrainStepMatchesParentBits(t *testing.T) {
	params0, logits0 := trainStepBits(t, 0)
	params3, _ := trainStepBits(t, 0.3)
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"params, dropout 0", params0, wantParamBitsNoDropout},
		{"params, dropout 0.3", params3, wantParamBitsDropout},
		{"frozen logits", logits0, wantFrozenLogitsBits},
	} {
		if c.got != c.want {
			t.Errorf("%s: bits hash %#x, want %#x", c.name, c.got, c.want)
		}
	}
}

// TestFirstLayerSkipsInputGradient pins the backward pass's layer-0 skip.
// A layer's Backward without the input gradient leaves every parameter
// gradient bitwise equal to one that computes it, returns nil and takes
// nothing from the arena, on each bitsMFG block (their sizes cross
// tensor.MinParallelRows and fusedStripRows). Model.Backward takes the
// skipping path for layer 0 only, and still fires the layer hook for
// every layer, last to first.
func TestFirstLayerSkipsInputGradient(t *testing.T) {
	const inDim, outDim = 20, 24
	mfg := bitsMFG()
	r := rng.New(79)
	for bi, b := range mfg.Blocks {
		l := NewSAGEConv(inDim, outDim)
		l.WSelf.W.HeInit(inDim, r.Split(uint64(3*bi)))
		l.WNeigh.W.HeInit(inDim, r.Split(uint64(3*bi+1)))
		h := tensor.New(b.NumInputs(), inDim)
		dOut := tensor.New(b.NumDst, outDim)
		for _, m := range []*tensor.Matrix{h, dOut} {
			for i := range m.Data {
				m.Data[i] = float32(r.NormFloat64())
			}
		}
		ar := tensor.NewArena(tensor.NewPool())
		var c sageCache
		l.Forward(b, h, ar, &c, true)

		grads := func(inputGrad bool) (*tensor.Matrix, uint64) {
			for _, p := range l.Params() {
				p.ZeroGrad()
			}
			held := ar.Held()
			dh := l.Backward(&c, dOut, ar, inputGrad)
			want := 0
			if inputGrad {
				want = 2 // dh and dAgg
			}
			if got := ar.Held() - held; got != want {
				t.Errorf("block %d, inputGrad %v: Backward took %d arena matrices, want %d", bi, inputGrad, got, want)
			}
			return dh, hashMatrices(l.WSelf.G, l.WNeigh.G, l.Bias.G)
		}
		dh, full := grads(true)
		if dh == nil || dh.Rows != b.NumInputs() || dh.Cols != inDim {
			t.Fatalf("block %d: Backward with inputGrad returned no %d×%d input gradient", bi, b.NumInputs(), inDim)
		}
		dh, skip := grads(false)
		if dh != nil {
			t.Errorf("block %d: Backward without inputGrad returned an input gradient", bi)
		}
		if skip != full {
			t.Errorf("block %d (%d inputs, %d dsts): skipping the input gradient changed the parameter gradients", bi, b.NumInputs(), b.NumDst)
		}
	}

	const hidden, classes, layers = 24, 5, 3
	x, labels := bitsInputs(mfg, inDim, classes)
	m, err := NewModel(inDim, hidden, classes, layers, 0.3, 19)
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	m.SetBackwardLayerHook(func(li int) { order = append(order, li) })
	out, err := m.Forward(mfg, x, true)
	if err != nil {
		t.Fatal(err)
	}
	dL := tensor.New(len(labels), classes)
	tensor.SoftmaxCrossEntropy(out, labels, dL)
	held := m.arena.Held()
	m.Backward(dL)
	// Every layer above the first takes dh and dAgg; layer 0 takes neither.
	if got, want := m.arena.Held()-held, 2*(layers-1); got != want {
		t.Errorf("Model.Backward took %d arena matrices, want %d", got, want)
	}
	for li := range m.caches {
		if built := m.caches[li].revPtr != nil; built != (li > 0) {
			t.Errorf("layer %d: reverse CSR built = %v, want %v", li, built, li > 0)
		}
	}
	if want := []int{2, 1, 0}; !slices.Equal(order, want) {
		t.Errorf("layer hook order %v, want %v", order, want)
	}
}
