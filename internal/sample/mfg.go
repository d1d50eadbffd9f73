// Package sample implements SALIENT-style node-wise neighborhood sampling:
// per-vertex uniform sampling without replacement with per-hop fanouts,
// message-flow graph (MFG) construction, minibatch iteration, and
// shared-memory-parallel batch preparation with deterministic results.
package sample

// Block is one bipartite layer of a message-flow graph. It maps an input
// (source) vertex set to an output (destination) vertex set:
//
//   - InputIDs holds the global ids of the layer's input vertices. The
//     first NumDst entries are the destination vertices themselves (every
//     GNN layer needs the previous representation of the destination, e.g.
//     GraphSAGE's concat), followed by the newly sampled neighbors.
//   - For destination i (0 <= i < NumDst), its sampled in-neighbors are
//     InputIDs[Col[RowPtr[i]:RowPtr[i+1]]].
type Block struct {
	NumDst   int
	InputIDs []int32
	RowPtr   []int32
	Col      []int32
}

// NumInputs returns the number of input vertices of the block.
func (b *Block) NumInputs() int { return len(b.InputIDs) }

// NumEdges returns the number of sampled message edges in the block.
func (b *Block) NumEdges() int { return len(b.Col) }

// MFG is a message-flow graph for one minibatch: Blocks[0] is the first
// GNN layer applied (the widest one, whose InputIDs require feature
// fetches) and Blocks[len-1] produces the seed outputs.
type MFG struct {
	Blocks []*Block
	// Seeds are the minibatch vertices, equal to the final block's first
	// NumDst input ids.
	Seeds []int32
	// arena is the pooled backing storage (nil for hand-built MFGs).
	arena *arena
}

// Release recycles the MFG's backing storage into the sampler arena pool.
// The MFG and every slice obtained from it (blocks, InputIDs) are invalid
// afterwards. Calling Release is optional — an unreleased MFG is simply
// collected by the GC — but the training pipeline releases every retired
// batch so steady-state preparation allocates nothing per minibatch.
// Release is not idempotent; call it exactly once, from one goroutine.
func (m *MFG) Release() {
	a := m.arena
	if a == nil {
		return
	}
	m.arena = nil
	arenaPool.Put(a)
}

// InputIDs returns the global vertex ids whose features the batch needs —
// the input set of the first block. The returned slice aliases internal
// storage.
func (m *MFG) InputIDs() []int32 {
	if len(m.Blocks) == 0 {
		return m.Seeds
	}
	return m.Blocks[0].InputIDs
}

// TotalEdges returns the total sampled message edges across blocks.
func (m *MFG) TotalEdges() int64 {
	var t int64
	for _, b := range m.Blocks {
		t += int64(b.NumEdges())
	}
	return t
}
