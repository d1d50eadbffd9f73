package dist

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"salientpp/internal/cache"
	"salientpp/internal/rng"
	"salientpp/internal/tensor"
)

// countComm counts the all-to-all collectives its member issues.
type countComm struct {
	Comm
	calls atomic.Int64
}

func (c *countComm) AllToAll(send [][]byte) ([][]byte, error) {
	c.calls.Add(1)
	return c.Comm.AllToAll(send)
}

// streamFixture is a 3-rank deployment over a 30-vertex feature matrix:
// ranks own [0,10), [10,20), [20,30); each caches one vertex of the next
// rank.
const streamK, streamN, streamDim = 3, 30, 5

func streamStores(t *testing.T, mk func(k int) ([]Comm, error), codec Codec) ([]*Store, []*countComm) {
	t.Helper()
	comms, err := mk(streamK)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { comms[0].Close() })
	layout, err := NewLayout([]int64{0, 10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	full := streamFeatures()
	stores := make([]*Store, streamK)
	counted := make([]*countComm, streamK)
	for rank := 0; rank < streamK; rank++ {
		local := tensor.New(10, streamDim)
		for i := 0; i < 10; i++ {
			copy(local.Row(i), full.Row(rank*10+i))
		}
		cached := int32((rank+1)%streamK*10 + 2)
		cc, err := cache.Build([]int32{cached}, streamN)
		if err != nil {
			t.Fatal(err)
		}
		rows := tensor.New(1, streamDim)
		copy(rows.Row(0), full.Row(int(cached)))
		ep := &cache.Epoch{Index: cc, Rows: rows}
		counted[rank] = &countComm{Comm: comms[rank]}
		st, err := NewStore(counted[rank], layout, streamDim, local, ep)
		if err != nil {
			t.Fatal(err)
		}
		st.SetCodec(codec)
		stores[rank] = st
	}
	return stores, counted
}

// streamFeatures is the fixture's full feature matrix, row v holding
// vertex v's features.
func streamFeatures() *tensor.Matrix {
	full := tensor.New(streamN, streamDim)
	r := rng.New(23)
	for i := range full.Data {
		full.Data[i] = float32((r.Float64()*2 - 1) * 8)
	}
	return full
}

// streamRounds scripts every rank's per-round id lists: random ids with
// duplicates over the whole id space, except that rank 2 only ever asks
// for its own rows (it needs nothing remote but still answers its peers),
// round 2 is empty on rank 1 and round 4 empty everywhere.
func streamRounds(rounds int) [][][]int32 {
	r := rng.New(5)
	ids := make([][][]int32, streamK)
	for rank := range ids {
		ids[rank] = make([][]int32, rounds)
		for round := 0; round < rounds; round++ {
			if round == 4 || (round == 2 && rank == 1) {
				continue
			}
			for i := 0; i < 4+r.Intn(12); i++ {
				v := int32(r.Intn(streamN))
				if rank == 2 {
					v = int32(20 + r.Intn(10))
				}
				ids[rank][round] = append(ids[rank][round], v)
			}
		}
	}
	return ids
}

// gathered is one round's result, copied out of the store's scratch.
type gathered struct {
	bits  []uint32
	stats GatherStats
}

func keep(m *tensor.Matrix, st GatherStats) gathered {
	g := gathered{stats: st}
	for _, v := range m.Data {
		g.bits = append(g.bits, math.Float32bits(v))
	}
	return g
}

// accountingErr checks the gather accounting identity of a round of n ids:
// every id lands in exactly one category, and only remote accesses are
// reused.
func accountingErr(n int, st GatherStats) error {
	if st.Local+st.CacheHits+st.RemoteFetch+st.Missing != n || st.Reused > st.RemoteFetch {
		return fmt.Errorf("stats %+v do not account for %d ids", st, n)
	}
	return nil
}

// onAllRanks runs f concurrently on every rank and fails on any error.
func onAllRanks(t *testing.T, f func(rank int) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, streamK)
	for rank := 0; rank < streamK; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = f(rank)
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// TestGatherNextMatchesGather pins the training stream against one-shot
// gathers: N rounds pushed through GatherNext and completed by the next
// push (the last by GatherFlush) return matrices bitwise equal to N
// one-shot Gathers of the same id lists, with identical stats apart from
// Reused, each accounting for every id, on both transports under every codec —
// including empty rounds and a rank that needs no remote rows. The stream
// reports counts only (no id lists), costs R+1 collectives for R rounds
// against 2 per one-shot Gather, and holds exactly one pooled matrix while
// a round is pending. Its reused rows leave the wire: under fp32 the
// stream sends exactly one id and one row fewer per reused access.
func TestGatherNextMatchesGather(t *testing.T) {
	const rounds = 7
	ids := streamRounds(rounds)
	for _, tr := range []struct {
		name string
		mk   func(k int) ([]Comm, error)
	}{{"local", NewLocalGroup}, {"tcp", NewTCPGroup}} {
		for _, codec := range []Codec{CodecFP32, CodecFP16, CodecInt8} {
			t.Run(tr.name+"/"+codec.String(), func(t *testing.T) {
				ref := make([][]gathered, streamK)
				reused := make([]int, streamK)
				once, onceCalls := streamStores(t, tr.mk, codec)
				onAllRanks(t, func(rank int) error {
					for round := 0; round < rounds; round++ {
						m, st, err := once[rank].Gather(ids[rank][round])
						if err != nil {
							return err
						}
						if err := accountingErr(len(ids[rank][round]), st); err != nil {
							return err
						}
						ref[rank] = append(ref[rank], keep(m, st))
						once[rank].Release(m)
					}
					return nil
				})
				stream, streamCalls := streamStores(t, tr.mk, codec)
				got := make([][]gathered, streamK)
				onAllRanks(t, func(rank int) error {
					st := stream[rank]
					for round := 0; round <= rounds; round++ {
						var m *tensor.Matrix
						var gs GatherStats
						var err error
						if round < rounds {
							m, gs, err = st.GatherNext(ids[rank][round])
						} else {
							m, gs, err = st.GatherFlush()
						}
						if err != nil {
							return err
						}
						// The pending round's matrix plus the one just returned;
						// the first push returns none and the flush leaves
						// nothing pending.
						want := int64(2)
						if round == 0 || round == rounds {
							want = 1
						}
						if live := st.Live(); live != want {
							return fmt.Errorf("call %d: %d pooled matrices live, want %d", round, live, want)
						}
						if round == 0 {
							if m != nil {
								return fmt.Errorf("first push returned a matrix")
							}
							continue
						}
						if err := accountingErr(len(ids[rank][round-1]), gs); err != nil {
							return fmt.Errorf("round %d: %w", round-1, err)
						}
						reused[rank] += gs.Reused
						gs.Reused = 0
						got[rank] = append(got[rank], keep(m, gs))
						st.Release(m)
					}
					if live := st.Live(); live != 0 {
						return fmt.Errorf("%d pooled matrices live after the flush", live)
					}
					return nil
				})
				for rank := 0; rank < streamK; rank++ {
					for round := 0; round < rounds; round++ {
						if !reflect.DeepEqual(got[rank][round], ref[rank][round]) {
							t.Fatalf("rank %d round %d: stream %+v != one-shot %+v",
								rank, round, got[rank][round], ref[rank][round])
						}
					}
					if n := onceCalls[rank].calls.Load(); n != 2*rounds {
						t.Fatalf("rank %d: %d one-shot gathers ran %d collectives, want %d", rank, rounds, n, 2*rounds)
					}
					if n := streamCalls[rank].calls.Load(); n != rounds+1 {
						t.Fatalf("rank %d: a %d-round stream ran %d collectives, want %d", rank, rounds, n, rounds+1)
					}
				}
				// The fixture must exercise what it claims: remote rows, cache
				// hits and reuse on rank 0, none remote on rank 2.
				var remote0, hits0, remote2 int
				for round := 0; round < rounds; round++ {
					remote0 += ref[0][round].stats.RemoteFetch
					hits0 += ref[0][round].stats.CacheHits
					remote2 += ref[2][round].stats.RemoteFetch
				}
				if remote0 == 0 || hits0 == 0 || reused[0] == 0 || remote2 != 0 {
					t.Fatalf("fixture drifted: rank 0 remote %d hits %d reused %d, rank 2 remote %d",
						remote0, hits0, reused[0], remote2)
				}
				if codec == CodecFP32 {
					var onceBytes, streamBytes int64
					var saved int
					for rank := 0; rank < streamK; rank++ {
						onceBytes += onceCalls[rank].BytesSent()
						streamBytes += streamCalls[rank].BytesSent()
						saved += reused[rank]
					}
					if want := onceBytes - int64(saved*4*(streamDim+1)); streamBytes != want {
						t.Fatalf("stream sent %d bytes, want %d: one-shot %d less %d reused rows and ids",
							streamBytes, want, onceBytes, saved)
					}
				}
			})
		}
	}
}

// TestGatherFlushNeedsPendingRound: a flush with nothing pending is a
// misuse, reported without a collective.
func TestGatherFlushNeedsPendingRound(t *testing.T) {
	stores, calls := streamStores(t, NewLocalGroup, CodecFP32)
	if _, _, err := stores[0].GatherFlush(); err == nil {
		t.Fatal("GatherFlush with no pending round succeeded")
	}
	if n := calls[0].calls.Load(); n != 0 {
		t.Fatalf("a rejected flush ran %d collectives", n)
	}
}

// TestGatherNextReusesPendingRows walks rank 0 through a 3-round chain on
// the fp32 fixture: round 1 repeats round 0's remote ids (one of them
// twice in the round), round 2 repeats ids round 1 requested and ids it
// had itself inherited. Every inherited row must be copied out of the
// pending round's matrix — the pool is primed with NaN matrices and each
// returned matrix is poisoned before release, so a skipped or misdirected
// copy shows — and the owners must receive only the rows not inherited.
func TestGatherNextReusesPendingRows(t *testing.T) {
	full := streamFeatures()
	// Ranks own [0,10), [10,20), [20,30); rank 0 caches vertex 12.
	script := [][]int32{
		{15, 21, 15, 3},      // remote 15 (twice) and 21; local 3
		{21, 15, 16, 12, 15}, // 21 and both 15s inherited; 16 new; 12 cached
		{15, 16, 25, 21},     // 15 and 21 inherited a second time, 16 once; 25 new
	}
	wantRemote := []int{3, 4, 4}
	wantReused := []int{0, 3, 3}
	stores, counted := streamStores(t, NewLocalGroup, CodecFP32)
	nan := float32(math.NaN())
	poison := func(m *tensor.Matrix) {
		for i := range m.Data {
			m.Data[i] = nan
		}
	}
	// Every round's matrix falls in one pool size class; fill it with NaN.
	primed := make([]*tensor.Matrix, 4)
	for i := range primed {
		primed[i] = stores[0].pool.Get(len(script[1]), streamDim)
		poison(primed[i])
	}
	for _, m := range primed {
		stores[0].Release(m)
	}
	type result struct {
		feats []float32
		stats GatherStats
	}
	var got []result
	onAllRanks(t, func(rank int) error {
		st := stores[rank]
		for round := 0; round <= len(script); round++ {
			var ids []int32
			if rank == 0 && round < len(script) {
				ids = script[round]
			}
			var m *tensor.Matrix
			var gs GatherStats
			var err error
			if round < len(script) {
				m, gs, err = st.GatherNext(ids)
			} else {
				m, gs, err = st.GatherFlush()
			}
			if err != nil {
				return err
			}
			if m == nil {
				continue
			}
			if rank == 0 {
				got = append(got, result{append([]float32(nil), m.Data...), gs})
			}
			poison(m)
			st.Release(m)
		}
		if live := st.Live(); live != 0 {
			return fmt.Errorf("%d pooled matrices live after the flush", live)
		}
		return nil
	})
	if len(got) != len(script) {
		t.Fatalf("rank 0 completed %d rounds, want %d", len(got), len(script))
	}
	for round, ids := range script {
		r := got[round]
		if r.stats.RemoteFetch != wantRemote[round] || r.stats.Reused != wantReused[round] {
			t.Fatalf("round %d: remote %d reused %d, want %d and %d",
				round, r.stats.RemoteFetch, r.stats.Reused, wantRemote[round], wantReused[round])
		}
		if err := accountingErr(len(ids), r.stats); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i, v := range ids {
			for j := 0; j < streamDim; j++ {
				if a, b := r.feats[i*streamDim+j], full.At(int(v), j); math.Float32bits(a) != math.Float32bits(b) {
					t.Fatalf("round %d row %d (vertex %d) col %d: got %v, want %v", round, i, v, j, a, b)
				}
			}
		}
	}
	// On the wire: rank 0 asked rank 1 for 15, 15, then 16, then nothing,
	// and rank 2 for 21, then nothing, then 25 — five ids out, three rows
	// back from rank 1 and two from rank 2.
	const row, id = 4 * streamDim, 4
	for rank, want := range []int64{5 * id, 3 * row, 2 * row} {
		if got := counted[rank].BytesSent(); got != want {
			t.Fatalf("rank %d sent %d bytes, want %d", rank, got, want)
		}
	}
}

// TestGatherNextOverlapReleasesOnFailure: while a round that inherits rows
// from the one before it is being pushed or is pending, a failed push and
// a GatherDiscard each leave the store idle with nothing checked out of
// its pool (the scripted-peer harness of corrupt_test.go plays rank 1).
func TestGatherNextOverlapReleasesOnFailure(t *testing.T) {
	a, b := []int32{17, 20, 17}, []int32{20, 17, 25} // b inherits 20 and 17
	rows := make([]byte, 3*4*corruptDim)             // rank 1's answer to a's three requests
	for _, c := range []struct {
		name   string
		second []byte
		want   string
	}{
		{"discard", rows, ""},
		{"short-rows", rows[:len(rows)-4], "payload bytes"},
	} {
		t.Run(c.name, func(t *testing.T) {
			st, err := scriptedPeer(t, CodecFP32, [][]byte{nil, c.second}, func(st *Store) error {
				if _, _, err := st.GatherNext(a); err != nil {
					return err
				}
				m, _, err := st.GatherNext(b)
				if err != nil {
					return err
				}
				st.Release(m)
				if got := st.pending.stats.Reused; got != 2 {
					return fmt.Errorf("pending round inherited %d rows, want 2", got)
				}
				st.GatherDiscard()
				return nil
			})
			if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
				t.Fatalf("got %v, want an error containing %q", err, c.want)
			}
			if live := st.Live(); live != 0 {
				t.Fatalf("%d pooled matrices leaked", live)
			}
		})
	}
}

// TestGatherNextReusesPendingCacheHits: a round inherits the ids the
// pending round served from its cache, not only those it fetched or
// inherited, so a row evicted between two rounds that both read it never
// reaches the wire. Rank 0 caches vertex 12 for round 0, then installs an
// empty epoch before round 1 reads 12 again.
func TestGatherNextReusesPendingCacheHits(t *testing.T) {
	full := streamFeatures()
	script := [][]int32{{12, 15, 3}, {15, 12, 16}}
	stores, counted := streamStores(t, NewLocalGroup, CodecFP32)
	empty := &cache.Epoch{}
	var got []GatherStats
	var feats [][]float32
	onAllRanks(t, func(rank int) error {
		st := stores[rank]
		for round := 0; round <= len(script); round++ {
			var ids []int32
			if rank == 0 && round < len(script) {
				ids = script[round]
			}
			var m *tensor.Matrix
			var gs GatherStats
			var err error
			if round < len(script) {
				m, gs, err = st.GatherNext(ids)
			} else {
				m, gs, err = st.GatherFlush()
			}
			if err != nil {
				return err
			}
			if rank == 0 && round == 0 {
				if _, err := st.InstallEpoch(empty); err != nil {
					return err
				}
			}
			if m == nil {
				continue
			}
			if rank == 0 {
				got = append(got, gs)
				feats = append(feats, append([]float32(nil), m.Data...))
			}
			st.Release(m)
		}
		return nil
	})
	want := []GatherStats{
		{Local: 1, CacheHits: 1, RemoteFetch: 1},
		{RemoteFetch: 3, Reused: 2},
	}
	for round, ids := range script {
		if !reflect.DeepEqual(got[round], want[round]) {
			t.Fatalf("round %d: stats %+v, want %+v", round, got[round], want[round])
		}
		for i, v := range ids {
			for j := 0; j < streamDim; j++ {
				if a, b := feats[round][i*streamDim+j], full.At(int(v), j); math.Float32bits(a) != math.Float32bits(b) {
					t.Fatalf("round %d row %d (vertex %d) col %d: got %v, want %v", round, i, v, j, a, b)
				}
			}
		}
	}
	// Rank 0 asked rank 1 for 15, then 16 — never for 12 — and rank 1
	// answered two rows.
	const row, id = 4 * streamDim, 4
	for rank, want := range []int64{2 * id, 2 * row, 0} {
		if got := counted[rank].BytesSent(); got != want {
			t.Fatalf("rank %d sent %d bytes, want %d", rank, got, want)
		}
	}
}
