package nn

import (
	"runtime"

	"salientpp/internal/sample"
	"salientpp/internal/tensor"
)

// fusedStripRows is the destination-row granularity of the fused
// aggregate+transform pass: neighbor means for one strip are streamed into
// the weight GEMM while still cache-hot, instead of materializing the whole
// aggregation before the first GEMM row is touched. 256 rows of a
// 128..256-wide fp32 aggregate is 128–256 KiB — L2-resident on the machines
// this targets. Strip boundaries depend only on the destination count, so
// results stay deterministic across worker counts.
const fusedStripRows = 256

// SAGEConv is a GraphSAGE layer with mean aggregation:
//
//	out_i = h_i·Wself + mean_{j ∈ sampled(i)} h_j·Wneigh + bias
//
// which is the "concat then linear" formulation with the linear layer
// split into its self and neighbor halves (algebraically identical,
// avoids materializing the concatenation).
type SAGEConv struct {
	InDim, OutDim int
	WSelf, WNeigh *Param
	Bias          *Param
}

// NewSAGEConv builds a layer; weights are initialized by the caller (see
// Model) so that the whole model shares one RNG stream.
func NewSAGEConv(inDim, outDim int) *SAGEConv {
	return &SAGEConv{
		InDim:  inDim,
		OutDim: outDim,
		WSelf:  NewParam(inDim, outDim),
		WNeigh: NewParam(inDim, outDim),
		Bias:   NewParam(1, outDim),
	}
}

// sageCache stores forward intermediates needed by the backward pass plus
// persistent per-layer scratch. The Model owns one cache per layer and
// reuses it every batch, so the steady-state forward/backward path
// allocates nothing: matrices come from the model's arena, and the
// reverse-CSR index grows once to its high-water mark.
type sageCache struct {
	block *sample.Block
	h     *tensor.Matrix // layer input (numInputs × InDim); caller-owned
	agg   *tensor.Matrix // mean-aggregated neighbors (numDst × InDim); arena-owned

	// hSelf and dhSelf are header-only views of the destination-row prefix
	// of h and dh; kept here so building them each batch allocates nothing.
	hSelf  tensor.Matrix
	dhSelf tensor.Matrix

	// aggStrip and outStrip are the fused pass's per-strip views. They live
	// in the cache rather than on the Forward stack because escape analysis
	// moves a stack header to the heap on every strip: aggStrip is captured
	// by the closure the parallel aggregation hands to tensor.ParallelRows,
	// and outStrip is the C operand of tensor.MatMulAddPacked, whose
	// parallel dispatch hands it to worker goroutines
	// (TestForwardBackwardAllocationFree fails with stack-local views).
	aggStrip tensor.Matrix
	outStrip tensor.Matrix

	// Reverse CSR of the block (input vertex -> incoming destination rows),
	// built per batch for the parallel backward scatter.
	revPtr []int32
	revCur []int32
	revIdx []int32
}

// Forward computes layer outputs for the block's destination vertices with
// the fused aggregate+transform pass: it packs WSelf and WNeigh once per
// call and runs forwardPacked, which serving's snapshot calls directly
// with weights it packed once at Freeze.
//
// h holds representations of all block inputs (block.NumInputs() rows).
// Intermediates live in ar (released by the model before the next batch);
// cache is the layer's persistent scratch slot. training retains the full
// aggregation for a backward pass.
func (l *SAGEConv) Forward(b *sample.Block, h *tensor.Matrix, ar *tensor.Arena, cache *sageCache, training bool) *tensor.Matrix {
	wSelf, wNeigh := tensor.PackB(l.WSelf.W), tensor.PackB(l.WNeigh.W)
	out := l.forwardPacked(b, h, ar, cache, training, &wSelf, &wNeigh)
	wSelf.Release()
	wNeigh.Release()
	return out
}

// forwardPacked is Forward against packed weights (it reads only the
// dimensions and the bias of l): after the self GEMM stores into the
// output, neighbor means are computed one strip of destination rows at a
// time and streamed straight into the WNeigh GEMM via MatMulAddPacked
// while the strip is cache-hot. In training mode the
// strips are views of a full arena-owned aggregation matrix (Backward
// consumes it); in inference mode one reused strip of scratch is the only
// aggregation storage — the full intermediate is never materialized.
func (l *SAGEConv) forwardPacked(b *sample.Block, h *tensor.Matrix, ar *tensor.Arena, cache *sageCache, training bool, wSelf, wNeigh *tensor.PackedB) *tensor.Matrix {
	if h.Rows != b.NumInputs() || h.Cols != l.InDim {
		panic("nn: SAGEConv input shape mismatch")
	}
	nd := b.NumDst
	var agg *tensor.Matrix
	if training {
		agg = ar.Get(nd, l.InDim)
	} else {
		rows := fusedStripRows
		if nd < rows {
			rows = nd
		}
		agg = ar.Get(rows, l.InDim)
	}

	cache.block = b
	cache.h = h
	cache.agg = agg
	cache.hSelf = tensor.Matrix{Rows: nd, Cols: l.InDim, Data: h.Data[:nd*l.InDim]}

	out := ar.Get(nd, l.OutDim)
	tensor.MatMulPacked(out, &cache.hSelf, wSelf)

	for lo := 0; lo < nd; lo += fusedStripRows {
		hi := lo + fusedStripRows
		if hi > nd {
			hi = nd
		}
		viewLo := lo
		if !training {
			viewLo = 0 // inference strips reuse the scratch from row 0
		}
		cache.aggStrip = tensor.Matrix{Rows: hi - lo, Cols: l.InDim, Data: agg.Data[viewLo*l.InDim : (viewLo+hi-lo)*l.InDim]}
		strip := &cache.aggStrip

		if hi-lo < tensor.MinParallelRows || runtime.GOMAXPROCS(0) == 1 {
			aggForwardRange(strip, b, h, lo, lo, hi)
		} else {
			tensor.ParallelRows(hi-lo, func(flo, fhi int) { aggForwardRange(strip, b, h, lo, lo+flo, lo+fhi) })
		}

		cache.outStrip = tensor.Matrix{Rows: hi - lo, Cols: l.OutDim, Data: out.Data[lo*l.OutDim : hi*l.OutDim]}
		tensor.MatMulAddPacked(&cache.outStrip, strip, wNeigh)
	}

	out.AddBias(l.Bias.W.Data)
	return out
}

// aggForwardRange mean-aggregates sampled neighbors for destination rows
// [lo, hi), writing destination row i to agg row i-base (the fused pass
// hands it strip views). Each worker owns disjoint destination rows and
// sums neighbors in column order through the elementwise row kernels, so
// results are identical at every worker count.
func aggForwardRange(agg *tensor.Matrix, b *sample.Block, h *tensor.Matrix, base, lo, hi int) {
	for i := lo; i < hi; i++ {
		out := agg.Row(i - base)
		eLo, eHi := b.RowPtr[i], b.RowPtr[i+1]
		if eLo == eHi {
			clear(out)
			continue
		}
		copy(out, h.Row(int(b.Col[eLo])))
		for _, c := range b.Col[eLo+1 : eHi] {
			tensor.AddRow(out, h.Row(int(c)))
		}
		tensor.ScaleRow(out, float32(1)/float32(eHi-eLo))
	}
}

// Backward accumulates parameter gradients from dOut (numDst × OutDim).
// With inputGrad it then returns the gradient with respect to the layer
// input h (numInputs × InDim), owned by ar. Without it, Backward stops at
// the parameter gradients and returns nil: no dh or dAgg is taken from ar,
// and neither product, the mean scaling, the reverse CSR nor the scatter
// runs. The model's first layer takes that path, because its input is the
// raw features, which nothing learns. The parameter gradients are bitwise
// the same either way.
func (l *SAGEConv) Backward(c *sageCache, dOut *tensor.Matrix, ar *tensor.Arena, inputGrad bool) *tensor.Matrix {
	b := c.block
	nd := b.NumDst
	if dOut.Rows != nd || dOut.Cols != l.OutDim {
		panic("nn: SAGEConv dOut shape mismatch")
	}

	// Parameter gradients, accumulated in place: both weights' products
	// share one packed dOutᵀ.
	tensor.MatMulATBAddPair(l.WSelf.G, &c.hSelf, l.WNeigh.G, c.agg, dOut)
	for i := 0; i < nd; i++ {
		tensor.AddRow(l.Bias.G.Data, dOut.Row(i))
	}
	if !inputGrad {
		return nil
	}

	nin := b.NumInputs()
	dh := ar.Get(nin, l.InDim)
	// Self path: the destination prefix of dh gets dOut·WSelfᵀ, written in
	// place through a header view (MatMulABT overwrites, no zeroing needed).
	c.dhSelf = tensor.Matrix{Rows: nd, Cols: l.InDim, Data: dh.Data[:nd*l.InDim]}
	tensor.MatMulABT(&c.dhSelf, dOut, l.WSelf.W)
	// Neighbor path: dAgg = dOut·WNeighᵀ, split evenly among sampled
	// neighbors (mean backward). The scatter runs input-major over a reverse
	// CSR of the block so that workers own disjoint dh rows; contributions
	// accumulate in ascending destination order, making the result
	// independent of the worker count (and bitwise equal to the serial
	// destination-major scatter).
	dAgg := ar.Get(nd, l.InDim)
	tensor.MatMulABT(dAgg, dOut, l.WNeigh.W)
	// Pre-scale each dAgg row by its mean reciprocal once (one division per
	// destination instead of one per edge; the per-edge v·inv products are
	// unchanged, so the scatter stays bitwise identical).
	if nd < tensor.MinParallelRows {
		scaleMeanRange(dAgg, b, 0, nd)
	} else {
		tensor.ParallelRows(nd, func(lo, hi int) { scaleMeanRange(dAgg, b, lo, hi) })
	}
	c.buildReverse(nin)
	if nin < tensor.MinParallelRows {
		scatterBackwardRange(dh, dAgg, c.revPtr, c.revIdx, nd, 0, nin)
	} else {
		tensor.ParallelRows(nin, func(lo, hi int) {
			scatterBackwardRange(dh, dAgg, c.revPtr, c.revIdx, nd, lo, hi)
		})
	}
	return dh
}

// scaleMeanRange multiplies dAgg rows [lo, hi) by 1/degree. Rows with no
// sampled neighbors are never referenced by the reverse index and are left
// untouched.
func scaleMeanRange(dAgg *tensor.Matrix, b *sample.Block, lo, hi int) {
	for i := lo; i < hi; i++ {
		deg := b.RowPtr[i+1] - b.RowPtr[i]
		if deg == 0 {
			continue
		}
		tensor.ScaleRow(dAgg.Row(i), float32(1)/float32(deg))
	}
}

// buildReverse fills c.revPtr/c.revIdx with the transpose of the block's
// CSR: for input row u, revIdx[revPtr[u]:revPtr[u+1]] lists the destination
// rows that sampled u, in ascending order. Scratch persists across batches.
func (c *sageCache) buildReverse(nin int) {
	b := c.block
	if cap(c.revPtr) < nin+1 {
		c.revPtr = make([]int32, nin+1)
		c.revCur = make([]int32, nin)
	} else {
		c.revPtr = c.revPtr[:nin+1]
		c.revCur = c.revCur[:nin]
		for i := range c.revPtr {
			c.revPtr[i] = 0
		}
	}
	for _, col := range b.Col {
		c.revPtr[col+1]++
	}
	for u := 0; u < nin; u++ {
		c.revPtr[u+1] += c.revPtr[u]
		c.revCur[u] = c.revPtr[u]
	}
	if cap(c.revIdx) < len(b.Col) {
		c.revIdx = make([]int32, len(b.Col))
	} else {
		c.revIdx = c.revIdx[:len(b.Col)]
	}
	for i := 0; i < b.NumDst; i++ {
		for _, col := range b.Col[b.RowPtr[i]:b.RowPtr[i+1]] {
			c.revIdx[c.revCur[col]] = int32(i)
			c.revCur[col]++
		}
	}
}

// scatterBackwardRange accumulates the (pre-scaled) mean-backward neighbor
// gradients into dh rows [lo, hi). Rows at and beyond the destination
// prefix start from zero; prefix rows already hold the self-path gradient.
func scatterBackwardRange(dh, dAgg *tensor.Matrix, revPtr, revIdx []int32, nd, lo, hi int) {
	for u := lo; u < hi; u++ {
		dst := dh.Row(u)
		if u >= nd {
			clear(dst)
		}
		for _, t := range revIdx[revPtr[u]:revPtr[u+1]] {
			tensor.AddRow(dst, dAgg.Row(int(t)))
		}
	}
}

// Params returns the layer's learnable parameters.
func (l *SAGEConv) Params() []*Param { return []*Param{l.WSelf, l.WNeigh, l.Bias} }
