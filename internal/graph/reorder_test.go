package graph

import (
	"testing"
	"testing/quick"

	"salientpp/internal/rng"
)

func TestPermutationInverse(t *testing.T) {
	p := Permutation{2, 0, 1}
	inv := p.Inverse()
	want := Permutation{1, 2, 0}
	for i := range want {
		if inv[i] != want[i] {
			t.Fatalf("inverse = %v, want %v", inv, want)
		}
	}
}

func TestPermutationValidate(t *testing.T) {
	if err := (Permutation{0, 1, 2}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Permutation{0, 0, 2}).Validate(); err == nil {
		t.Fatal("expected duplicate error")
	}
	if err := (Permutation{0, 3, 1}).Validate(); err == nil {
		t.Fatal("expected range error")
	}
}

func TestRelabelPreservesAdjacency(t *testing.T) {
	g, err := Uniform(40, 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	perm := Permutation(rng.New(9).Perm(40))
	h, err := Relabel(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	for u := int32(0); int(u) < 40; u++ {
		for _, v := range g.Neighbors(u) {
			if !h.HasEdge(perm[u], perm[v]) {
				t.Fatalf("edge (%d,%d) lost under relabeling", u, v)
			}
		}
		if g.Degree(u) != h.Degree(perm[u]) {
			t.Fatalf("degree changed for %d", u)
		}
	}
}

func TestRelabelIdentity(t *testing.T) {
	g, err := Ring(12)
	if err != nil {
		t.Fatal(err)
	}
	identity := make(Permutation, 12)
	for i := range identity {
		identity[i] = int32(i)
	}
	h, err := Relabel(g, identity)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Adj {
		if g.Adj[i] != h.Adj[i] {
			t.Fatal("identity relabel changed adjacency")
		}
	}
}

func TestRelabelRejectsBadPerm(t *testing.T) {
	g, _ := Ring(5)
	if _, err := Relabel(g, Permutation{0, 1}); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := Relabel(g, Permutation{0, 0, 1, 2, 3}); err == nil {
		t.Fatal("expected bijection error")
	}
}

func TestPartitionOrderContiguity(t *testing.T) {
	parts := []int32{1, 0, 1, 0, 2, 2, 0}
	score := []float64{0.1, 0.9, 0.8, 0.2, 0.5, 0.6, 0.7}
	perm, starts, err := PartitionOrder(parts, 3, score)
	if err != nil {
		t.Fatal(err)
	}
	if err := perm.Validate(); err != nil {
		t.Fatal(err)
	}
	// Partition sizes: p0 = {1,3,6}, p1 = {0,2}, p2 = {4,5}.
	wantStarts := []int64{0, 3, 5, 7}
	for i, w := range wantStarts {
		if starts[i] != w {
			t.Fatalf("starts = %v, want %v", starts, wantStarts)
		}
	}
	inv := perm.Inverse()
	// Within partition 0 (new ids 0..2) scores must be descending.
	for p := 0; p < 3; p++ {
		for nw := starts[p]; nw < starts[p+1]; nw++ {
			old := inv[nw]
			if parts[old] != int32(p) {
				t.Fatalf("new id %d holds vertex %d of partition %d, want %d", nw, old, parts[old], p)
			}
			if nw > starts[p] {
				prev := inv[nw-1]
				if score[prev] < score[old] {
					t.Fatalf("scores not descending within partition %d", p)
				}
			}
		}
	}
}

func TestPartitionOrderNilScore(t *testing.T) {
	parts := []int32{1, 0, 1, 0}
	perm, starts, err := PartitionOrder(parts, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if starts[1] != 2 {
		t.Fatalf("starts=%v", starts)
	}
	if err := perm.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionOrderRejectsBadPartition(t *testing.T) {
	if _, _, err := PartitionOrder([]int32{0, 5}, 2, nil); err == nil {
		t.Fatal("expected partition range error")
	}
}

// Property: relabeling twice with p then p.Inverse() restores the graph.
func TestRelabelRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(30)
		g, err := Uniform(n, int64(2*n), seed)
		if err != nil {
			return false
		}
		perm := Permutation(r.Perm(n))
		h, err := Relabel(g, perm)
		if err != nil {
			return false
		}
		back, err := Relabel(h, perm.Inverse())
		if err != nil {
			return false
		}
		if back.NumEdges() != g.NumEdges() {
			return false
		}
		for i := range g.Adj {
			if g.Adj[i] != back.Adj[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
