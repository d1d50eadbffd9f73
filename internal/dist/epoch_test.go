package dist

import (
	"reflect"
	"testing"

	"salientpp/internal/cache"
	"salientpp/internal/tensor"
)

// epochTrace is everything observable about one rank's online-cache run:
// the per-round gather classification, every installed membership in
// install order, and the final epoch (generation + membership).
type epochTrace struct {
	Rounds   [][2]int64 // per round: {cache hits, remote fetches}
	Installs [][]int32  // membership of each installed epoch, in order
	FinalGen uint64
	FinalIDs []int32
}

// runOnlineCacheScript drives a scripted online-cache serving loop over a
// 2-rank store pair on the given transport: seeded static epochs, a
// deterministic per-rank gather stream, an Online scorer observing every
// round, and every two rounds an in-place retarget of the rank's working
// epoch — installed once, before the first gather — to the scorer's
// proposal. Returns one trace per rank.
func runOnlineCacheScript(t *testing.T, mk func(k int) ([]Comm, error)) []epochTrace {
	t.Helper()
	const (
		k      = 2
		n      = 8
		dim    = 3
		rounds = 24
	)
	layout, err := NewLayout([]int64{0, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	full := tensor.New(n, dim)
	for v := 0; v < n; v++ {
		for j := 0; j < dim; j++ {
			full.Set(v, j, float32(v*10+j))
		}
	}
	comms, err := mk(k)
	if err != nil {
		t.Fatal(err)
	}
	defer comms[0].Close()

	type rankState struct {
		store  *Store
		online *cache.Online
		work   *cache.Epoch
	}
	row := func(v int32) []float32 { return full.Row(int(v)) }
	ranks := make([]rankState, k)
	for r := 0; r < k; r++ {
		local := tensor.New(4, dim)
		for i := 0; i < 4; i++ {
			copy(local.Row(i), full.Row(r*4+i))
		}
		// Remote vertices in seed-priority order; cache the first two.
		base := int32((1 - r) * 4)
		seedRanking := []int32{base, base + 1, base + 2, base + 3}
		cc, err := cache.Build(seedRanking[:2], n)
		if err != nil {
			t.Fatal(err)
		}
		cdata := tensor.New(2, dim)
		for i := 0; i < 2; i++ {
			copy(cdata.Row(i), full.Row(int(seedRanking[i])))
		}
		ep := &cache.Epoch{Index: cc, Rows: cdata}
		st, err := NewStore(comms[r], layout, dim, local, ep)
		if err != nil {
			t.Fatal(err)
		}
		work := &cache.Epoch{}
		work.CopyFrom(ep)
		if _, err := st.InstallEpoch(work); err != nil {
			t.Fatal(err)
		}
		online, err := cache.NewOnline(n, int32(r*4), int32(r*4+4), seedRanking, nil, cache.OnlineConfig{HalfLife: 4})
		if err != nil {
			t.Fatal(err)
		}
		ranks[r] = rankState{store: st, online: online, work: work}
	}

	traces := make([]epochTrace, k)
	runGroup(t, comms, func(c Comm) error {
		r := c.Rank()
		rs := ranks[r]
		tr := &traces[r]
		for round := 0; round < rounds; round++ {
			// Deterministic drifting stream: each rank keeps hammering a
			// remote vertex that rotates every few rounds, plus one local id.
			base := int32((1 - r) * 4)
			hot := base + int32(round/6)%4
			ids := []int32{int32(r * 4), hot}
			if ids[0] > ids[1] {
				ids[0], ids[1] = ids[1], ids[0]
			}
			feats, stats, err := rs.store.Gather(ids)
			if err != nil {
				return err
			}
			rs.store.Release(feats)
			rs.online.Observe(ids)
			tr.Rounds = append(tr.Rounds, [2]int64{int64(stats.CacheHits), int64(stats.RemoteFetch)})
			if (round+1)%2 == 0 {
				if _, changed := rs.work.Retarget(rs.online.Propose(2), row); changed {
					tr.Installs = append(tr.Installs, append([]int32(nil), rs.work.IDs()...))
				}
			}
		}
		tr.FinalGen = rs.store.CacheGen()
		tr.FinalIDs = append([]int32(nil), rs.store.Epoch().IDs()...)
		return nil
	})

	for r := range ranks {
		// An epoch with an index but no rows (the fields are exported) is
		// refused, and the installed epoch stays in place.
		cur := ranks[r].store.Epoch()
		if _, err := ranks[r].store.InstallEpoch(&cache.Epoch{Index: cur.Index}); err == nil {
			t.Fatalf("rank %d: installed an epoch with nil rows", r)
		}
		if ranks[r].store.Epoch() != cur {
			t.Fatalf("rank %d: a refused install displaced the current epoch", r)
		}
		if cur != ranks[r].work {
			t.Fatalf("rank %d: the working epoch is no longer installed", r)
		}
		for s, v := range cur.IDs() {
			if v >= 0 && !reflect.DeepEqual(cur.Rows.Row(s), full.Row(int(v))) {
				t.Fatalf("rank %d: slot %d does not hold the row of %d", r, s, v)
			}
		}
		if live := ranks[r].store.Live(); live != 0 {
			t.Fatalf("rank %d: %d gather matrices live", r, live)
		}
	}
	return traces
}

// TestOnlineCacheCrossTransportDeterminism runs the identical scripted
// online-cache loop over the in-process and the loopback-TCP transports
// and requires bitwise-identical traces: same per-round gather
// classification, same installed memberships in the same order, same
// final generation. This is the Online determinism contract surfacing end
// to end — the transport must be invisible to the cache layer.
func TestOnlineCacheCrossTransportDeterminism(t *testing.T) {
	local := runOnlineCacheScript(t, NewLocalGroup)
	tcp := runOnlineCacheScript(t, NewTCPGroup)
	for r := range local {
		if len(local[r].Installs) == 0 {
			t.Fatalf("rank %d: the drifting stream triggered no installs — the script is not exercising the swap path", r)
		}
		if !reflect.DeepEqual(local[r], tcp[r]) {
			t.Fatalf("rank %d traces diverge across transports:\nlocal %+v\ntcp   %+v", r, local[r], tcp[r])
		}
	}
}
