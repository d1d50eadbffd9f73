package pipeline

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"salientpp/internal/dataset"
)

// TestPlaceInvariants checks a 4-way placement: partitions agree with
// layout ownership, every machine trains only on vertices it owns, the
// per-machine lists cover the training set, no machine holds a wildly
// disproportionate share, and Rounds is the largest batch count.
func TestPlaceInvariants(t *testing.T) {
	ds, err := dataset.PapersSim(12000, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	const k, batch = 4, 32
	pl, err := Place(ds, nil, k, []int{5, 3}, batch, true, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Layout.K() != k || len(pl.TrainPer) != k {
		t.Fatal("wrong K")
	}
	for v, p := range pl.Parts {
		if int(p) != pl.Layout.Owner(int32(v)) {
			t.Fatalf("vertex %d partition mismatch", v)
		}
	}
	total, rounds := 0, 0
	for p, ids := range pl.TrainPer {
		total += len(ids)
		rounds = max(rounds, (len(ids)+batch-1)/batch)
		for _, v := range ids {
			if pl.Layout.Owner(v) != p {
				t.Fatalf("training vertex %d assigned to wrong machine", v)
			}
		}
	}
	if total != len(pl.Data.TrainIDs()) {
		t.Fatal("per-machine training sets do not partition the train set")
	}
	if pl.Rounds != rounds {
		t.Fatalf("Rounds %d, largest machine has %d batches", pl.Rounds, rounds)
	}
	ideal := float64(total) / k
	for p, ids := range pl.TrainPer {
		if float64(len(ids)) > 1.6*ideal || float64(len(ids)) < 0.4*ideal {
			t.Fatalf("machine %d holds %d training vertices (ideal %.0f)", p, len(ids), ideal)
		}
	}
}

// Hashes of smallConfig's placement at VIPReorder true and false, as of
// the commit before the placement had one home. Like the training hashes
// in bits_test.go they are pinned across commits: the partition, the VIP
// order, the layout, the setup caches, the per-rank training lists and
// the round count must come out of set-up unchanged.
const (
	wantPlacementBitsVIP     = 0x6472b04a79149033
	wantPlacementBitsNoOrder = 0x8ebe6d60f6b09df5
)

// placementBits builds smallConfig at the given VIPReorder and hashes
// (FNV-64) Perm, the layout starts, Parts, each rank's setup cache ids,
// each rank's training list and the rounds per epoch.
func placementBits(t *testing.T, vipReorder bool) uint64 {
	t.Helper()
	cfg := smallConfig()
	cfg.VIPReorder = vipReorder
	cl, err := NewCluster(smallDataset(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h := fnv.New64a()
	put := func(vs ...int64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	put32 := func(vs []int32) {
		put(int64(len(vs)))
		for _, v := range vs {
			put(int64(v))
		}
	}
	put32(cl.Perm)
	put(int64(len(cl.Layout.Starts)))
	put(cl.Layout.Starts...)
	put32(cl.Parts)
	for _, rk := range cl.Ranks {
		put32(rk.Store().SetupEpoch().IDs())
		put32(rk.trainIDs)
		put(int64(rk.rounds))
	}
	return h.Sum64()
}

// TestPlacementMatchesParentBits pins the §4.1 placement across commits.
// With Parallelism 0 the VIP analysis shards by GOMAXPROCS, so running
// it at several -cpu values pins the placement at every worker count.
func TestPlacementMatchesParentBits(t *testing.T) {
	for _, c := range []struct {
		vipReorder bool
		want       uint64
	}{{true, wantPlacementBitsVIP}, {false, wantPlacementBitsNoOrder}} {
		if got := placementBits(t, c.vipReorder); got != c.want {
			t.Errorf("VIPReorder %v: placement hash %#x, want %#x", c.vipReorder, got, c.want)
		}
	}
}
