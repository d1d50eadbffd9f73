package dist

import (
	"fmt"

	"salientpp/internal/tensor"
)

// GradReducer sums per-layer gradient tensors across every rank of a comm
// group, optionally compressing them on the wire with the same Codec the
// feature-gather path uses (per-row symmetric int8 scales, IEEE binary16
// fp16). It is the training-side counterpart of the gather codec: the
// gather compresses the forward pass's communication, GradReducer
// compresses the backward pass's.
//
// Lossy codecs use error-feedback residual accumulation: the quantization
// error of round t is carried in a per-parameter residual buffer and added
// back into round t+1's gradient before encoding, so the compression error
// telescopes instead of compounding and convergence is preserved (the
// classic EF-SGD construction; pinned by TestGradCodecAccuracyDelta).
//
// Determinism: the compressed path is an all-gather (every rank ships the
// same encoded payload to every peer) followed by a rank-ordered local
// sum of the decoded contributions. Every rank decodes identical bytes
// and sums them in the same order, so the reduced gradient — and
// therefore the whole training trajectory — is bitwise identical on every
// rank, transport, and GOMAXPROCS setting. The fp32 path delegates to
// Comm.AllReduceSum and is byte- and bitwise-identical to the historical
// uncompressed reduce.
//
// A GradReducer is not safe for concurrent use; the pipeline serializes
// Reduce calls on its per-epoch reducer goroutine.
type GradReducer struct {
	comm  Comm
	codec Codec

	// Reused scratch, so the warm per-round path allocates nothing
	// (cross-rank payloads pay exactly the transport-owned copy the
	// gather path also pays — the documented floor).
	flat []float32 // fp32 path: flattened concatenation of all tensors
	enc  []byte    // lossy path: this rank's encoded payload
	send [][]byte  // lossy path: per-peer send slots (all alias enc)
	row  []float32 // lossy path: one decoded row
}

// NewGradReducer builds a reducer over comm using codec for the wire
// encoding. CodecFP32 reproduces the historical raw all-reduce exactly.
func NewGradReducer(comm Comm, codec Codec) *GradReducer {
	return &GradReducer{comm: comm, codec: codec}
}

// Reduce replaces each matrix in mats, elementwise, with the sum of that
// matrix over all ranks. All ranks must call Reduce with identically
// shaped mats in the same collective order (the matched-collectives
// discipline every Comm method shares).
//
// For lossy codecs, residuals must hold one buffer per matrix, each of
// length Rows*Cols: the error-feedback state. Reduce adds residuals[i]
// into mats[i] before encoding and stores the new quantization error back
// into residuals[i]. For CodecFP32 residuals is unused and may be nil.
func (g *GradReducer) Reduce(mats []*tensor.Matrix, residuals [][]float32) error {
	if g.codec == CodecFP32 {
		return g.reduceRaw(mats)
	}
	return g.reduceCompressed(mats, residuals)
}

// reduceRaw is the uncompressed path: flatten, AllReduceSum, scatter back.
// Payload bytes and summation order match the historical single flat
// all-reduce whether Reduce is called once for all layers or once per
// layer, since both the per-element sums and the total bytes on the wire
// are unchanged by the split.
func (g *GradReducer) reduceRaw(mats []*tensor.Matrix) error {
	g.flat = g.flat[:0]
	for _, m := range mats {
		g.flat = append(g.flat, m.Data...)
	}
	if err := g.comm.AllReduceSum(g.flat); err != nil {
		return err
	}
	off := 0
	for _, m := range mats {
		copy(m.Data, g.flat[off:off+len(m.Data)])
		off += len(m.Data)
	}
	return nil
}

func (g *GradReducer) reduceCompressed(mats []*tensor.Matrix, residuals [][]float32) error {
	if len(residuals) != len(mats) {
		return fmt.Errorf("dist: grad reduce has %d residual buffers for %d tensors", len(residuals), len(mats))
	}
	want, maxCols := 0, 0
	for i, m := range mats {
		if len(residuals[i]) != len(m.Data) {
			return fmt.Errorf("dist: grad residual %d has %d elements, tensor has %d", i, len(residuals[i]), len(m.Data))
		}
		want += m.Rows * g.codec.featRowWire(m.Cols)
		if m.Cols > maxCols {
			maxCols = m.Cols
		}
	}
	if cap(g.row) < maxCols {
		g.row = make([]float32, maxCols)
	}

	// Error feedback, step 1: fold the carried quantization error into
	// this round's gradient, then encode the corrected gradient row by
	// row with the shared gather-codec primitives.
	enc := g.enc[:0]
	for i, m := range mats {
		res := residuals[i]
		for j, r := range res {
			m.Data[j] += r
		}
		for r := 0; r < m.Rows; r++ {
			enc = g.codec.appendFeatRow(enc, m.Data[r*m.Cols:(r+1)*m.Cols])
		}
	}
	g.enc = enc

	// All-gather: every peer receives this rank's identical payload. The
	// send slots all alias enc — AllToAll only reads them until it
	// returns.
	if len(g.send) != g.comm.Size() {
		g.send = make([][]byte, g.comm.Size())
	}
	for i := range g.send {
		g.send[i] = enc
	}
	recv, err := g.comm.AllToAll(g.send)
	if err != nil {
		return err
	}
	for src, p := range recv {
		if len(p) != want {
			return fmt.Errorf("dist: grad payload from rank %d is %d bytes, want %d (codec %s)", src, len(p), want, g.codec)
		}
	}

	// Error feedback, step 2: the new residual is the corrected gradient
	// minus what the peers will actually see — decoded from this rank's
	// own wire bytes, so residual and peer view agree bitwise. Then zero
	// the tensors and accumulate every rank's decoded contribution in
	// rank order, which makes the sum identical on all ranks.
	own := recv[g.comm.Rank()]
	off := 0
	for i, m := range mats {
		res := residuals[i]
		w := g.codec.featRowWire(m.Cols)
		for r := 0; r < m.Rows; r++ {
			row := g.row[:m.Cols]
			g.codec.decodeFeatRow(row, own[off:off+w])
			base := r * m.Cols
			for j, v := range row {
				res[base+j] = m.Data[base+j] - v
				m.Data[base+j] = 0
			}
			off += w
		}
	}
	for src := 0; src < g.comm.Size(); src++ {
		p := recv[src]
		off := 0
		for _, m := range mats {
			w := g.codec.featRowWire(m.Cols)
			for r := 0; r < m.Rows; r++ {
				row := g.row[:m.Cols]
				g.codec.decodeFeatRow(row, p[off:off+w])
				base := r * m.Cols
				for j, v := range row {
					m.Data[base+j] += v
				}
				off += w
			}
		}
	}
	return nil
}
