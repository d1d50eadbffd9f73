package dist

import (
	"fmt"
	"math"
	"reflect"
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
// rank; half of each shard is GPU-resident.
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
	full := tensor.New(streamN, streamDim)
	r := rng.New(23)
	for i := range full.Data {
		full.Data[i] = float32((r.Float64()*2 - 1) * 8)
	}
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
		ep, err := cache.NewEpoch(cc, rows)
		if err != nil {
			t.Fatal(err)
		}
		counted[rank] = &countComm{Comm: comms[rank]}
		st, err := NewStore(counted[rank], layout, streamDim, local, ep, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		st.SetCodec(codec)
		stores[rank] = st
	}
	return stores, counted
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
	bits   []uint32
	stats  GatherStats
	byPeer []int
}

func keep(m *tensor.Matrix, st GatherStats) gathered {
	g := gathered{stats: st, byPeer: append([]int(nil), st.RemoteByPeer...)}
	for _, v := range m.Data {
		g.bits = append(g.bits, math.Float32bits(v))
	}
	g.stats.RemoteByPeer, g.stats.CacheHitIDs, g.stats.RemoteIDs = nil, nil, nil
	return g
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
// one-shot Gathers of the same id lists, with identical scalar stats and
// per-peer counts, on both transports under every codec — including empty
// rounds and a rank that needs no remote rows. The stream reports counts
// only (no id lists), costs R+1 collectives for R rounds against 2 per
// one-shot Gather, and holds exactly one pooled matrix while a round is
// pending.
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
				once, onceCalls := streamStores(t, tr.mk, codec)
				onAllRanks(t, func(rank int) error {
					for round := 0; round < rounds; round++ {
						m, st, err := once[rank].Gather(ids[rank][round])
						if err != nil {
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
						if gs.CacheHitIDs != nil || gs.RemoteIDs != nil {
							return fmt.Errorf("round %d: stream stats carry id lists", round-1)
						}
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
				// The fixture must exercise what it claims: remote rows and
				// cache hits on rank 0, none remote on rank 2.
				var remote0, hits0, remote2 int
				for round := 0; round < rounds; round++ {
					remote0 += ref[0][round].stats.RemoteFetch
					hits0 += ref[0][round].stats.CacheHits
					remote2 += ref[2][round].stats.RemoteFetch
				}
				if remote0 == 0 || hits0 == 0 || remote2 != 0 {
					t.Fatalf("fixture drifted: rank 0 remote %d hits %d, rank 2 remote %d", remote0, hits0, remote2)
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
