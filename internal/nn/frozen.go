package nn

import (
	"fmt"

	"salientpp/internal/sample"
	"salientpp/internal/tensor"
)

// Frozen is a read-only snapshot of a Model for online inference. It holds
// only parameter values — no gradient accumulators and no Adam moments —
// so a snapshot costs one weight copy and roughly a quarter of the training
// model's parameter memory. Freezing decouples serving from training: the
// source model may keep training (mutating its weights) without affecting
// predictions served from the snapshot.
//
// Like Model, a Frozen owns a pooled arena for its batch intermediates, so
// the steady-state inference path allocates nothing per batch. A Frozen
// serves one goroutine at a time; concurrent serving loops each take their
// own snapshot (the per-layer weight copies are private, so snapshots
// never share mutable state).
type Frozen struct {
	layers  []*SAGEConv // gradient-free: only Param.W is populated
	caches  []sageCache
	arena   *tensor.Arena
	inDim   int
	classes int
}

// Freeze snapshots the model's current weights into a Frozen. The copy is
// deep: later optimizer steps on m do not change the snapshot.
func (m *Model) Freeze() *Frozen {
	f := &Frozen{
		arena:   tensor.NewArena(tensor.NewPool()),
		caches:  make([]sageCache, len(m.Layers)),
		inDim:   m.Layers[0].InDim,
		classes: m.Layers[len(m.Layers)-1].OutDim,
	}
	for _, l := range m.Layers {
		fl := &SAGEConv{
			InDim:  l.InDim,
			OutDim: l.OutDim,
			WSelf:  &Param{W: l.WSelf.W.Clone()},
			WNeigh: &Param{W: l.WNeigh.W.Clone()},
			Bias:   &Param{W: l.Bias.W.Clone()},
		}
		f.layers = append(f.layers, fl)
	}
	return f
}

// InDim returns the snapshot's input feature dimension.
func (f *Frozen) InDim() int { return f.inDim }

// Classes returns the width of the logits Forward produces.
func (f *Frozen) Classes() int { return f.classes }

// NumLayers returns the snapshot's layer count (must equal the MFG depth).
func (f *Frozen) NumLayers() int { return len(f.layers) }

// Forward runs inference over one micro-batch. x holds features for
// mfg.InputIDs() in order. Dropout is never applied and no backward caches
// are retained beyond the per-layer scratch. The returned logits, like all
// batch intermediates, stay valid until the next Forward (or ReleaseBatch)
// recycles the arena.
func (f *Frozen) Forward(mfg *sample.MFG, x *tensor.Matrix) (*tensor.Matrix, error) {
	if len(mfg.Blocks) != len(f.layers) {
		return nil, fmt.Errorf("nn: MFG has %d blocks for %d frozen layers", len(mfg.Blocks), len(f.layers))
	}
	if x.Rows != len(mfg.InputIDs()) {
		return nil, fmt.Errorf("nn: feature rows %d != MFG inputs %d", x.Rows, len(mfg.InputIDs()))
	}
	f.arena.Release() // recycle the previous batch's working set
	h := x
	for li, layer := range f.layers {
		out := layer.Forward(mfg.Blocks[li], h, f.arena, &f.caches[li], false)
		if li < len(f.layers)-1 {
			out.ReLU()
		}
		h = out
	}
	return h, nil
}

// ReleaseBatch returns the current batch's intermediates (including the
// logits returned by Forward) to the snapshot's pool without waiting for
// the next Forward call. Optional — Forward releases automatically.
func (f *Frozen) ReleaseBatch() { f.arena.Release() }
