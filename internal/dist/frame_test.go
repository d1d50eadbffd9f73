package dist

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"salientpp/internal/tensor"
)

// wireComm records the payload its member sends the other rank of a
// two-rank group in each collective.
type wireComm struct {
	Comm
	sent [][]byte
}

func (c *wireComm) AllToAll(send [][]byte) ([][]byte, error) {
	c.sent = append(c.sent, append([]byte(nil), send[1-c.Rank()]...))
	return c.Comm.AllToAll(send)
}

// TestFP32FrameLayout pins the fp32 gather frame: a request id is its 4 raw
// little-endian bytes and a row its dim raw little-endian float32 values,
// with nothing else on the wire, and every row comes back bitwise — NaN
// payloads of both signs, quiet and signalling, −0, subnormals and ±Inf
// included.
func TestFP32FrameLayout(t *testing.T) {
	const half, dim = 8, 4
	patterns := []uint32{
		0x7fc00001, 0xffc00002, // quiet NaNs with payloads, both signs
		0x7f800003, 0xff800004, // signalling NaNs, both signs
		0x80000000, 0x00000000, // −0, +0
		0x00000001, 0x807fffff, // smallest and largest-magnitude subnormals
		0x7f800000, 0xff800000, // ±Inf
		0x3fc00000, 0xc2f60000, // 1.5, −123
		0x00400000, // a subnormal
	}
	vertexBits := func(v int32, j int) uint32 { return patterns[(int(v)*dim+j)%len(patterns)] }
	layout, err := NewLayout([]int64{0, half, 2 * half})
	if err != nil {
		t.Fatal(err)
	}
	comms, err := NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer comms[0].Close()
	wires := make([]*wireComm, 2)
	stores := make([]*Store, 2)
	for r := range stores {
		local := tensor.New(half, dim)
		for i := 0; i < half; i++ {
			for j := 0; j < dim; j++ {
				local.Row(i)[j] = math.Float32frombits(vertexBits(int32(r*half+i), j))
			}
		}
		wires[r] = &wireComm{Comm: comms[r]}
		if stores[r], err = NewStore(wires[r], layout, dim, local, nil); err != nil {
			t.Fatal(err)
		}
		stores[r].SetCodec(CodecFP32)
	}
	gathers := [2][]int32{{9, 15, 3, 9, 12}, {2, 14, 0}}
	requests := [2][]int32{{9, 9, 12, 15}, {0, 2}} // each rank's sorted remote ids
	outs := make([]*tensor.Matrix, 2)
	errs := make(chan error, 2)
	for r := range stores {
		go func(r int) {
			var err error
			outs[r], _, err = stores[r].Gather(gathers[r])
			errs <- err
		}(r)
	}
	for range stores {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for r := range stores {
		var ids, rows []byte
		for _, v := range requests[r] {
			ids = binary.LittleEndian.AppendUint32(ids, uint32(v))
		}
		for _, v := range requests[1-r] {
			for j := 0; j < dim; j++ {
				rows = binary.LittleEndian.AppendUint32(rows, vertexBits(v, j))
			}
		}
		sent := wires[r].sent
		if len(sent) != 2 {
			t.Fatalf("rank %d ran %d collectives, want 2", r, len(sent))
		}
		if len(sent[0]) != 4*len(requests[r]) || !bytes.Equal(sent[0], ids) {
			t.Errorf("rank %d request-id section % x, want %d ids as raw little-endian int32 % x", r, sent[0], len(requests[r]), ids)
		}
		if len(sent[1]) != 4*dim*len(requests[1-r]) || !bytes.Equal(sent[1], rows) {
			t.Errorf("rank %d row section % x, want %d rows of %d raw little-endian float32 % x", r, sent[1], len(requests[1-r]), dim, rows)
		}
		for i, v := range gathers[r] {
			for j, x := range outs[r].Row(i) {
				if got, want := math.Float32bits(x), vertexBits(v, j); got != want {
					t.Errorf("rank %d row %d (vertex %d) col %d: bits %#08x, want %#08x", r, i, v, j, got, want)
				}
			}
		}
		stores[r].Release(outs[r])
	}
}

// BenchmarkGatherTwoRank measures one warm two-rank Gather under each
// codec: 1024 ids, half of them the peer's, 128-wide rows. The peer runs
// inline (echoComm), so an op covers both sides' encode and decode work:
// rank 0's request list, the peer's shard read and row encode, and rank
// 0's row decode.
func BenchmarkGatherTwoRank(b *testing.B) {
	const n, dim = 4096, 128
	layout, err := NewLayout([]int64{0, n / 2, n})
	if err != nil {
		b.Fatal(err)
	}
	shard := func(rank int) *tensor.Matrix {
		m := tensor.New(n/2, dim)
		for i := range m.Data {
			m.Data[i] = float32(rank*len(m.Data)+i) * 0.125
		}
		return m
	}
	ids := make([]int32, 1024)
	for i := range ids {
		ids[i] = int32((i * 131) % n)
	}
	for _, codec := range []Codec{CodecFP32, CodecFP16, CodecInt8} {
		b.Run(codec.String(), func(b *testing.B) {
			peer, err := NewStore(&echoComm{rank: 1}, layout, dim, shard(1), nil)
			if err != nil {
				b.Fatal(err)
			}
			peer.SetCodec(codec)
			st, err := NewStore(&echoComm{peer: peer}, layout, dim, shard(0), nil)
			if err != nil {
				b.Fatal(err)
			}
			st.SetCodec(codec)
			step := func() {
				out, _, err := st.Gather(ids)
				if err != nil {
					b.Fatal(err)
				}
				st.Release(out)
			}
			step() // warm the pool and frames
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}
