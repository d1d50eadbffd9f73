package dist

import (
	"sync"
	"testing"

	"salientpp/internal/cache"
	"salientpp/internal/tensor"
)

func TestLayoutOwnership(t *testing.T) {
	l, err := NewLayout([]int64{0, 3, 3, 10})
	if err != nil {
		t.Fatal(err)
	}
	if l.K() != 3 || l.NumVertices() != 10 {
		t.Fatalf("K=%d N=%d", l.K(), l.NumVertices())
	}
	wantOwner := []int{0, 0, 0, 2, 2, 2, 2, 2, 2, 2}
	for v, want := range wantOwner {
		if got := l.Owner(int32(v)); got != want {
			t.Fatalf("Owner(%d) = %d, want %d", v, got, want)
		}
	}
	if l.PartSize(1) != 0 || l.PartSize(2) != 7 {
		t.Fatalf("part sizes: %d %d", l.PartSize(1), l.PartSize(2))
	}
	for _, bad := range [][]int64{{}, {0}, {1, 2}, {0, 5, 3}} {
		if _, err := NewLayout(bad); err == nil {
			t.Fatalf("NewLayout(%v) accepted invalid boundaries", bad)
		}
	}
}

// runGroup exercises one collective pattern on every rank concurrently.
func runGroup(t *testing.T, comms []Comm, f func(c Comm) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, len(comms))
	for _, c := range comms {
		wg.Add(1)
		go func(c Comm) {
			defer wg.Done()
			if err := f(c); err != nil {
				errs <- err
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func testTransport(t *testing.T, mk func(k int) ([]Comm, error)) {
	const k = 3
	comms, err := mk(k)
	if err != nil {
		t.Fatal(err)
	}
	defer comms[0].Close()

	// AllToAll: rank r sends byte r*10+dst to dst; verify receipt.
	runGroup(t, comms, func(c Comm) error {
		for round := 0; round < 3; round++ {
			send := make([][]byte, k)
			for dst := 0; dst < k; dst++ {
				send[dst] = []byte{byte(c.Rank()*10 + dst), byte(round)}
			}
			recv, err := c.AllToAll(send)
			if err != nil {
				return err
			}
			for src := 0; src < k; src++ {
				want := byte(src*10 + c.Rank())
				if len(recv[src]) != 2 || recv[src][0] != want || recv[src][1] != byte(round) {
					t.Errorf("rank %d round %d: got %v from %d", c.Rank(), round, recv[src], src)
				}
			}
		}
		return nil
	})

	// AllReduceSum: ordered reduction must be exact and identical everywhere.
	results := make([][]float32, k)
	runGroup(t, comms, func(c Comm) error {
		x := []float32{float32(c.Rank() + 1), 0.5}
		if err := c.AllReduceSum(x); err != nil {
			return err
		}
		results[c.Rank()] = x
		return nil
	})
	for r := 0; r < k; r++ {
		if results[r][0] != 6 || results[r][1] != 1.5 {
			t.Fatalf("rank %d allreduce: %v", r, results[r])
		}
	}
	if comms[0].BytesSent() == 0 {
		t.Fatal("BytesSent not accounted")
	}
}

func TestLocalTransport(t *testing.T) { testTransport(t, NewLocalGroup) }
func TestTCPTransport(t *testing.T)   { testTransport(t, NewTCPGroup) }

func TestCloseUnblocksPeers(t *testing.T) {
	comms, err := NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// Rank 1 waits on a collective rank 0 never joins.
		_, err := comms[1].AllToAll([][]byte{{1}, {2}})
		done <- err
	}()
	comms[0].Close()
	if err := <-done; err == nil {
		t.Fatal("blocked collective survived group close")
	}
}

// TestStoreGather verifies classification and feature correctness of the
// one-shot gather on a 2-rank store with a cache.
func TestStoreGather(t *testing.T) {
	const dim = 3
	layout, err := NewLayout([]int64{0, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	full := tensor.New(8, dim)
	for v := 0; v < 8; v++ {
		for j := 0; j < dim; j++ {
			full.Set(v, j, float32(v*10+j))
		}
	}
	comms, err := NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer comms[0].Close()

	stores := make([]*Store, 2)
	for r := 0; r < 2; r++ {
		local := tensor.New(4, dim)
		for i := 0; i < 4; i++ {
			copy(local.Row(i), full.Row(r*4+i))
		}
		// Each rank caches the first remote vertex of its peer.
		cachedID := int32((1 - r) * 4)
		cc, err := cache.Build([]int32{cachedID}, 8)
		if err != nil {
			t.Fatal(err)
		}
		cdata := tensor.New(1, dim)
		copy(cdata.Row(0), full.Row(int(cachedID)))
		ep := &cache.Epoch{Index: cc, Rows: cdata}
		st, err := NewStore(comms[r], layout, dim, local, ep)
		if err != nil {
			t.Fatal(err)
		}
		stores[r] = st
	}

	// Rank 0 gathers a mix; rank 1 gathers nothing but must still join the
	// collectives (the padded-round contract).
	var stats GatherStats
	var feats *tensor.Matrix
	runGroup(t, comms, func(c Comm) error {
		if c.Rank() == 1 {
			_, _, err := stores[1].Gather(nil)
			return err
		}
		var err error
		feats, stats, err = stores[0].Gather([]int32{0, 3, 4, 5, 6})
		return err
	})
	// v0, v3: local; v4: cached; v5, v6: remote from rank 1.
	if stats.Local != 2 || stats.CacheHits != 1 || stats.RemoteFetch != 2 {
		t.Fatalf("stats: %+v", stats)
	}
	if err := accountingErr(5, stats); err != nil {
		t.Fatal(err)
	}
	for i, v := range []int32{0, 3, 4, 5, 6} {
		for j := 0; j < dim; j++ {
			if feats.At(i, j) != full.At(int(v), j) {
				t.Fatalf("row %d (vertex %d) col %d: got %v want %v", i, v, j, feats.At(i, j), full.At(int(v), j))
			}
		}
	}
}
