package nn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
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
