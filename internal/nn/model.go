package nn

import (
	"fmt"

	"salientpp/internal/rng"
	"salientpp/internal/sample"
	"salientpp/internal/tensor"
)

// Model is an L-layer GraphSAGE classifier: SAGE→ReLU(→dropout) repeated,
// with the final SAGE layer emitting class logits. The layer count must
// equal the MFG depth (one block per layer).
//
// Every intermediate of a batch (aggregations, activations, masks, layer
// outputs, gradients) comes from a pooled tensor arena owned by the model.
// The arena is recycled at the start of the next Forward call, so the
// returned logits and the side effects of Backward stay valid for exactly
// one batch and the steady-state compute path allocates nothing per batch.
type Model struct {
	Layers  []*SAGEConv
	Dropout float64

	pool  *tensor.Pool
	arena *tensor.Arena

	// forward caches (valid between Forward and Backward)
	caches   []sageCache      // one persistent slot per layer
	acts     []*tensor.Matrix // pre-dropout activations per hidden layer (training, Dropout > 0)
	masks    []*tensor.Matrix // dropout masks per hidden layer (training, Dropout > 0)
	params   []*Param         // cached stable parameter order
	dropRNG  *rng.RNG
	training bool // mode of the last Forward

	// layerDone, when set, is invoked by Backward the moment layer li's
	// parameter gradients are final — i.e. right after that layer's
	// backward kernel returns, while earlier layers are still being
	// differentiated. The pipeline uses it to launch layer li's gradient
	// all-reduce concurrently with layer li-1's backward compute.
	layerDone func(li int)
}

// NewModel builds a GraphSAGE with the given dimensions: inDim → hidden
// (layers-1 times) → classes, He-initialized from seed.
func NewModel(inDim, hidden, classes, layers int, dropout float64, seed uint64) (*Model, error) {
	if layers < 1 {
		return nil, fmt.Errorf("nn: need at least one layer")
	}
	if inDim <= 0 || hidden <= 0 || classes <= 1 {
		return nil, fmt.Errorf("nn: invalid dims in=%d hidden=%d classes=%d", inDim, hidden, classes)
	}
	r := rng.New(seed)
	pool := tensor.NewPool()
	m := &Model{Dropout: dropout, dropRNG: r.Split(999), pool: pool, arena: tensor.NewArena(pool)}
	for l := 0; l < layers; l++ {
		in := hidden
		if l == 0 {
			in = inDim
		}
		out := hidden
		if l == layers-1 {
			out = classes
		}
		layer := NewSAGEConv(in, out)
		layer.WSelf.W.HeInit(in, r.Split(uint64(3*l)))
		layer.WNeigh.W.HeInit(in, r.Split(uint64(3*l+1)))
		// Bias stays zero.
		m.Layers = append(m.Layers, layer)
	}
	m.caches = make([]sageCache, layers)
	m.acts = make([]*tensor.Matrix, 0, layers)
	m.masks = make([]*tensor.Matrix, 0, layers)
	for _, l := range m.Layers {
		m.params = append(m.params, l.Params()...)
	}
	return m, nil
}

// Forward runs the model over one minibatch. x holds features for
// mfg.InputIDs() in order; training enables dropout and retains the
// intermediates Backward needs. Returns seed logits, which (like all batch
// intermediates) are valid until the next Forward call recycles the arena.
func (m *Model) Forward(mfg *sample.MFG, x *tensor.Matrix, training bool) (*tensor.Matrix, error) {
	if len(mfg.Blocks) != len(m.Layers) {
		return nil, fmt.Errorf("nn: MFG has %d blocks for %d layers", len(mfg.Blocks), len(m.Layers))
	}
	if x.Rows != len(mfg.InputIDs()) {
		return nil, fmt.Errorf("nn: feature rows %d != MFG inputs %d", x.Rows, len(mfg.InputIDs()))
	}
	m.arena.Release() // recycle the previous batch's working set
	m.acts = m.acts[:0]
	m.masks = m.masks[:0]
	m.training = training

	h := x
	for li, layer := range m.Layers {
		out := layer.Forward(mfg.Blocks[li], h, m.arena, &m.caches[li], training)
		if li < len(m.Layers)-1 {
			out.ReLU()
			// Without dropout the next layer's cached input is the
			// activation ReLU backward masks against; dropout rewrites it,
			// so then a pre-dropout copy is kept.
			if training && m.Dropout > 0 {
				act := m.arena.Get(out.Rows, out.Cols)
				copy(act.Data, out.Data)
				m.acts = append(m.acts, act)
				mask := m.arena.Get(out.Rows, out.Cols)
				out.Dropout(m.Dropout, mask, m.dropRNG)
				m.masks = append(m.masks, mask)
			}
		}
		h = out
	}
	return h, nil
}

// Backward propagates dLogits through the cached forward pass,
// accumulating parameter gradients. The preceding Forward must have run
// with training == true (inference-mode Forward skips the caches that
// Backward consumes). Only layers above the first propagate a gradient to
// their input: layer 0's input is the raw features, so its backward stops
// at its parameter gradients and its layerDone hook fires as soon as they
// are final.
func (m *Model) Backward(dLogits *tensor.Matrix) {
	if !m.training {
		panic("nn: Backward requires a training-mode Forward")
	}
	grad := dLogits
	for li := len(m.Layers) - 1; li >= 0; li-- {
		grad = m.Layers[li].Backward(&m.caches[li], grad, m.arena, li > 0)
		if m.layerDone != nil {
			// Layer li's gradients are final: the remaining iterations only
			// touch layers < li, so a concurrent reader of layer li's params
			// is race-free from here on.
			m.layerDone(li)
		}
		if li > 0 {
			// Undo dropout and ReLU of the previous hidden activation: layer
			// li's input, or its pre-dropout copy.
			act := m.caches[li].h
			if m.Dropout > 0 {
				grad.Mul(m.masks[li-1])
				act = m.acts[li-1]
			}
			tensor.ReLUBackward(grad, act)
		}
	}
}

// ReleaseBatch returns the current batch's intermediates (including the
// logits returned by Forward) to the model's pool without waiting for the
// next Forward call. Optional — Forward releases automatically.
func (m *Model) ReleaseBatch() {
	m.arena.Release()
	m.training = false
	m.acts = m.acts[:0]
	m.masks = m.masks[:0]
}

// RNGState returns the dropout stream's internal state. The stream advances
// sequentially across training batches, so checkpoints must capture it for
// a resumed run to apply the exact dropout masks the uninterrupted run
// would have.
func (m *Model) RNGState() [4]uint64 { return m.dropRNG.State() }

// SetRNGState restores the dropout stream captured by RNGState.
func (m *Model) SetRNGState(s [4]uint64) { m.dropRNG.SetState(s) }

// SetBackwardLayerHook installs (or, with nil, removes) the per-layer
// backward-completion callback: Backward calls fn(li) as soon as layer
// li's parameter gradients are fully accumulated, while the backward pass
// continues through earlier layers. fn runs on the goroutine executing
// Backward and must be cheap — the pipeline's hook just enqueues the
// layer index for its reducer goroutine.
func (m *Model) SetBackwardLayerHook(fn func(li int)) { m.layerDone = fn }

// LayerParams returns layer li's parameters, in the same relative order
// they appear in Params(). The overlapped all-reduce reduces one layer's
// group at a time.
func (m *Model) LayerParams(li int) []*Param { return m.Layers[li].Params() }

// Params returns all learnable parameters in a stable order.
func (m *Model) Params() []*Param { return m.params }

// ZeroGrad clears all gradients.
func (m *Model) ZeroGrad() {
	for _, p := range m.params {
		p.ZeroGrad()
	}
}

// CopyWeightsFrom copies parameter values (not optimizer state) from o.
// Used to give every distributed rank identical initial weights.
func (m *Model) CopyWeightsFrom(o *Model) error {
	mp, op := m.Params(), o.Params()
	if len(mp) != len(op) {
		return fmt.Errorf("nn: model shapes differ")
	}
	for i := range mp {
		if !mp[i].W.SameShape(op[i].W) {
			return fmt.Errorf("nn: parameter %d shape differs", i)
		}
		copy(mp[i].W.Data, op[i].W.Data)
	}
	return nil
}
