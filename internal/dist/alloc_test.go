package dist

import (
	"testing"

	"salientpp/internal/tensor"
)

// TestGatherAllocationFree is the allocation-regression guard for the warm
// feature-gather path: pooled output matrix, reused request lists and
// frame buffers, and recycled transport receive slices. A single-rank
// group keeps the assertion deterministic —
// cross-rank payloads pay exactly one transport-owned copy, which is the
// documented floor, not a regression.
func TestGatherAllocationFree(t *testing.T) {
	const n, dim = 256, 16
	comms, err := NewLocalGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	defer comms[0].Close()
	layout, err := NewLayout([]int64{0, n})
	if err != nil {
		t.Fatal(err)
	}
	local := tensor.New(n, dim)
	for i := range local.Data {
		local.Data[i] = float32(i)
	}
	st, err := NewStore(comms[0], layout, dim, local, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int32, 64)
	for i := range ids {
		ids[i] = int32((i * 37) % n)
	}
	step := func() {
		out, _, err := st.Gather(ids)
		if err != nil {
			t.Fatal(err)
		}
		st.Release(out)
	}
	for i := 0; i < 3; i++ {
		step() // warm the pool and scratch
	}
	allocs := testing.AllocsPerRun(100, step)
	if allocs != 0 {
		t.Fatalf("warm Gather allocated %.1f times per run, want 0", allocs)
	}
}

// echoComm is one end of a two-rank group that runs in the caller's
// goroutine. Rank 1 is simulated inline by peer, its own Store: it asks
// for nothing and answers each of rank 0's request lists through the
// owner path, so a warm collective allocates nothing and an allocation
// count sees rank 0's gather alone. Only Rank, Size and AllToAll are
// implemented; the peer store's echoComm (peer nil) is never collective.
type echoComm struct {
	Comm
	rank  int
	peer  *Store
	reply []byte
	recv  [][]byte
}

func (c *echoComm) Rank() int { return c.rank }
func (c *echoComm) Size() int { return 2 }

func (c *echoComm) AllToAll(send [][]byte) ([][]byte, error) {
	p := c.peer
	// Ship the answer staged for rank 0's previous list, then stage the
	// answer to the list arriving now.
	c.reply = append(c.reply[:0], p.frame[0][:p.answered[0]]...)
	if err := p.answer(0, send[1]); err != nil {
		return nil, err
	}
	c.recv = append(c.recv[:0], send[0], c.reply)
	return c.recv, nil
}

// TestGatherNextAllocationFree extends the warm-gather guard to the
// training stream, under every codec: a warm GatherNext — classify into
// the idle round slot, match it against the pending round, ship the
// previous answer with the next ids, copy the inherited rows, hand back
// the completed matrix — allocates nothing, and neither does the flush
// that closes a stream. Consecutive rounds share half their remote ids, so
// every push but a stream's first inherits rows.
func TestGatherNextAllocationFree(t *testing.T) {
	for _, codec := range []Codec{CodecFP32, CodecFP16, CodecInt8} {
		t.Run(codec.String(), func(t *testing.T) {
			const n, dim = 256, 16
			layout, err := NewLayout([]int64{0, n / 2, n})
			if err != nil {
				t.Fatal(err)
			}
			shard := func(rank int) *tensor.Matrix {
				m := tensor.New(n/2, dim)
				for i := range m.Data {
					m.Data[i] = float32(rank*len(m.Data) + i)
				}
				return m
			}
			peer, err := NewStore(&echoComm{rank: 1}, layout, dim, shard(1), nil)
			if err != nil {
				t.Fatal(err)
			}
			peer.SetCodec(codec)
			st, err := NewStore(&echoComm{peer: peer}, layout, dim, shard(0), nil)
			if err != nil {
				t.Fatal(err)
			}
			st.SetCodec(codec)
			// Round a's remote ids are 128+4j, round b's 128+2j: every
			// other id of b, and half of a's, repeat the round before.
			a, b := make([]int32, 64), make([]int32, 64)
			for i := range a {
				a[i] = int32((i * 37) % (n / 2))
				b[i] = int32((i * 53) % (n / 2))
				if i%2 == 0 {
					a[i] = int32(n/2 + 2*i)
					b[i] = int32(n/2 + i)
				}
			}
			round := 0
			var reused int
			push := func() {
				ids := a
				if round%2 == 1 {
					ids = b
				}
				round++
				out, gs, err := st.GatherNext(ids)
				if err != nil {
					t.Fatal(err)
				}
				reused += gs.Reused
				st.Release(out)
			}
			flush := func() {
				out, _, err := st.GatherFlush()
				if err != nil {
					t.Fatal(err)
				}
				st.Release(out)
			}
			for i := 0; i < 3; i++ {
				push() // warm the pool, both round slots, and the frames
			}
			if allocs := testing.AllocsPerRun(100, push); allocs != 0 {
				t.Fatalf("warm %s GatherNext allocated %.1f times per run, want 0", codec, allocs)
			}
			if allocs := testing.AllocsPerRun(100, func() { flush(); push() }); allocs != 0 {
				t.Fatalf("warm %s flush+push allocated %.1f times per run, want 0", codec, allocs)
			}
			flush()
			if live := st.Live(); live != 0 {
				t.Fatalf("%d pooled matrices live after the stream closed", live)
			}
			if reused == 0 {
				t.Fatal("overlapping rounds inherited no rows: the test no longer exercises reuse")
			}
		})
	}
}

// BenchmarkGatherWarm measures the steady-state local gather path; run
// with -benchmem to confirm 0 B/op.
func BenchmarkGatherWarm(b *testing.B) {
	const n, dim = 4096, 128
	comms, err := NewLocalGroup(1)
	if err != nil {
		b.Fatal(err)
	}
	defer comms[0].Close()
	layout, err := NewLayout([]int64{0, n})
	if err != nil {
		b.Fatal(err)
	}
	local := tensor.New(n, dim)
	st, err := NewStore(comms[0], layout, dim, local, nil)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]int32, 1024)
	for i := range ids {
		ids[i] = int32((i * 131) % n)
	}
	if out, _, err := st.Gather(ids); err != nil {
		b.Fatal(err)
	} else {
		st.Release(out) // warm the pool so B/op reflects steady state
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := st.Gather(ids)
		if err != nil {
			b.Fatal(err)
		}
		st.Release(out)
	}
	b.SetBytes(int64(len(ids) * dim * 4))
}

// TestGatherSortedRequestsCorrect verifies that sorting per-peer request
// lists (for sequential owner-side shard reads) still scatters every reply
// into the right output row, including duplicate remote ids.
func TestGatherSortedRequestsCorrect(t *testing.T) {
	const dim = 4
	layout, err := NewLayout([]int64{0, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	comms, err := NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer comms[0].Close()
	full := tensor.New(16, dim)
	for v := 0; v < 16; v++ {
		for j := 0; j < dim; j++ {
			full.Set(v, j, float32(100*v+j))
		}
	}
	stores := make([]*Store, 2)
	for r := 0; r < 2; r++ {
		local := tensor.New(8, dim)
		for i := 0; i < 8; i++ {
			copy(local.Row(i), full.Row(r*8+i))
		}
		st, err := NewStore(comms[r], layout, dim, local, nil)
		if err != nil {
			t.Fatal(err)
		}
		stores[r] = st
	}
	// Rank 0 asks for remote rows in descending, interleaved, duplicated
	// order; the store sorts the request list internally.
	ids := []int32{15, 9, 12, 9, 2, 14, 0, 15}
	done := make(chan error, 1)
	go func() {
		_, _, err := stores[1].Gather(nil)
		done <- err
	}()
	out, stats, err := stores[0].Gather(ids)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if stats.RemoteFetch != 6 {
		t.Fatalf("stats: %+v", stats)
	}
	if err := accountingErr(len(ids), stats); err != nil {
		t.Fatal(err)
	}
	for i, v := range ids {
		for j := 0; j < dim; j++ {
			if out.At(i, j) != full.At(int(v), j) {
				t.Fatalf("row %d (vertex %d): got %v want %v", i, v, out.Row(i), full.Row(int(v)))
			}
		}
	}
	stores[0].Release(out)
}
