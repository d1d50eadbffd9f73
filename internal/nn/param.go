// Package nn implements the GraphSAGE model trained by SALIENT++: mean
// aggregation through message-flow-graph blocks, ReLU, dropout, a fused
// softmax/cross-entropy head, and the Adam optimizer — forward and backward
// passes written from scratch over the tensor package.
package nn

import "salientpp/internal/tensor"

// Param is a learnable tensor with its gradient accumulator and Adam
// moment estimates.
type Param struct {
	W *tensor.Matrix // value
	G *tensor.Matrix // gradient (accumulated per step)
	M *tensor.Matrix // Adam first moment
	V *tensor.Matrix // Adam second moment

	// EF is the error-feedback residual for lossy gradient compression:
	// the quantization error left over from the previous round's
	// all-reduce, added back into the next round's gradient before
	// encoding (dist.GradReducer). Nil until EnsureResidual — fp32 runs
	// never allocate it. Checkpointed (format v4) so a resumed lossy run
	// replays the uninterrupted trajectory bitwise.
	EF []float32
}

// NewParam allocates a parameter of the given shape with zeroed state.
func NewParam(rows, cols int) *Param {
	return &Param{
		W: tensor.New(rows, cols),
		G: tensor.New(rows, cols),
		M: tensor.New(rows, cols),
		V: tensor.New(rows, cols),
	}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.G.Zero() }

// EnsureResidual allocates the error-feedback buffer if it is missing.
// Idempotent; called once at setup when a lossy gradient codec is
// configured.
func (p *Param) EnsureResidual() {
	if p.EF == nil {
		p.EF = make([]float32, len(p.W.Data))
	}
}
