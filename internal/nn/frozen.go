package nn

import (
	"fmt"

	"salientpp/internal/sample"
	"salientpp/internal/tensor"
)

// Frozen is a read-only snapshot of a Model for online inference. It holds
// only parameter values — no gradient accumulators and no Adam moments —
// so a snapshot costs one weight copy and roughly a quarter of the training
// model's parameter memory. The copy of each weight is its PackB panel
// pack, made once at Freeze, so a serving round packs no weight. Freezing
// decouples serving from training: the source model may keep training
// (mutating its weights) without affecting predictions served from the
// snapshot.
//
// Like Model, a Frozen owns a pooled arena for its batch intermediates, so
// the steady-state inference path allocates nothing per batch. A Frozen
// serves one goroutine at a time; concurrent serving loops each take their
// own snapshot (the per-layer weight copies are private, so snapshots
// never share mutable state).
type Frozen struct {
	layers  []frozenLayer
	caches  []sageCache
	arena   *tensor.Arena
	inDim   int
	classes int
}

// frozenLayer is one layer of a snapshot: the dimensions and the bias copy
// (WSelf and WNeigh stay nil) and the two weights, packed.
type frozenLayer struct {
	conv          SAGEConv
	wSelf, wNeigh tensor.PackedB
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
		f.layers = append(f.layers, frozenLayer{
			conv:   SAGEConv{InDim: l.InDim, OutDim: l.OutDim, Bias: &Param{W: l.Bias.W.Clone()}},
			wSelf:  packOwned(l.WSelf.W),
			wNeigh: packOwned(l.WNeigh.W),
		})
	}
	return f
}

// packOwned packs w into a buffer of its own: a pack taken from the shared
// scratch could be one of training's large buffers, which the snapshot
// would then hold for its lifetime.
func packOwned(w *tensor.Matrix) tensor.PackedB {
	p := tensor.PackB(w)
	defer p.Release()
	return p.Clone()
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
	for li := range f.layers {
		fl := &f.layers[li]
		out := fl.conv.forwardPacked(mfg.Blocks[li], h, f.arena, &f.caches[li], false, &fl.wSelf, &fl.wNeigh)
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
