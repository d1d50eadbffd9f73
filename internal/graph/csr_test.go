package graph

import (
	"testing"
	"testing/quick"

	"salientpp/internal/rng"
)

func mustFromEdges(t *testing.T, n int, edges []Edge, opts BuildOptions) *CSR {
	t.Helper()
	g, err := FromEdges(n, edges, opts)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

func TestFromEdgesBasic(t *testing.T) {
	g := mustFromEdges(t, 4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, BuildOptions{})
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got N=%d M=%d", g.NumVertices(), g.NumEdges())
	}
	if !g.HasEdge(0, 1) {
		t.Fatal("missing edge (0,1)")
	}
	if g.HasEdge(1, 0) {
		t.Fatal("directed build should not add reverse edge")
	}
}

func TestFromEdgesUndirected(t *testing.T) {
	g := mustFromEdges(t, 4, []Edge{{0, 1}, {1, 2}, {0, 1}}, BuildOptions{Undirected: true, Dedup: true})
	if g.NumEdges() != 4 { // (0,1),(1,0),(1,2),(2,1)
		t.Fatalf("got M=%d want 4", g.NumEdges())
	}
	if !g.IsUndirected() {
		t.Fatal("expected undirected graph")
	}
	if !g.sorted {
		t.Fatal("dedup build should produce sorted adjacency")
	}
}

func TestFromEdgesSelfLoops(t *testing.T) {
	g := mustFromEdges(t, 3, []Edge{{0, 0}, {0, 1}, {2, 2}}, BuildOptions{Undirected: true, Dedup: true, DropSelfLoops: true})
	if g.NumEdges() != 2 {
		t.Fatalf("got M=%d want 2", g.NumEdges())
	}
	if g.HasEdge(0, 0) || g.HasEdge(2, 2) {
		t.Fatal("self loop survived DropSelfLoops")
	}
}

func TestFromEdgesOutOfRange(t *testing.T) {
	if _, err := FromEdges(3, []Edge{{0, 3}}, BuildOptions{}); err == nil {
		t.Fatal("expected error for out-of-range endpoint")
	}
	if _, err := FromEdges(3, []Edge{{-1, 0}}, BuildOptions{}); err == nil {
		t.Fatal("expected error for negative endpoint")
	}
}

func TestFromEdgesEmpty(t *testing.T) {
	g := mustFromEdges(t, 5, nil, BuildOptions{Dedup: true})
	if g.NumVertices() != 5 || g.NumEdges() != 0 {
		t.Fatalf("got N=%d M=%d", g.NumVertices(), g.NumEdges())
	}
	if g.Degree(0) != 0 {
		t.Fatal("expected degree 0")
	}
}

func TestDegreeAndNeighbors(t *testing.T) {
	g := mustFromEdges(t, 5, []Edge{{0, 1}, {0, 2}, {0, 3}, {4, 0}}, BuildOptions{Undirected: true, Dedup: true})
	if g.Degree(0) != 4 {
		t.Fatalf("Degree(0)=%d want 4", g.Degree(0))
	}
	nbrs := g.Neighbors(0)
	want := []int32{1, 2, 3, 4}
	for i, w := range want {
		if nbrs[i] != w {
			t.Fatalf("Neighbors(0)=%v want %v", nbrs, want)
		}
	}
}

func TestDegreesSliceMatches(t *testing.T) {
	g, err := Uniform(50, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Degrees()
	var total int64
	for v, dv := range d {
		if int(dv) != g.Degree(int32(v)) {
			t.Fatalf("degree mismatch at %d", v)
		}
		total += int64(dv)
	}
	if total != g.NumEdges() {
		t.Fatalf("degree sum %d != M %d", total, g.NumEdges())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := mustFromEdges(t, 3, []Edge{{0, 1}, {1, 2}}, BuildOptions{Dedup: true})
	g.Adj[0] = 99
	if err := g.Validate(); err == nil {
		t.Fatal("expected validation error for out-of-range neighbor")
	}
	g2 := mustFromEdges(t, 3, []Edge{{0, 1}, {1, 2}}, BuildOptions{Dedup: true})
	g2.Offsets[1] = 5
	if err := g2.Validate(); err == nil {
		t.Fatal("expected validation error for bad offsets")
	}
}

// edgeList returns g's stored directed edges.
func edgeList(g *CSR) []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(int32(v)) {
			out = append(out, Edge{int32(v), w})
		}
	}
	return out
}

func TestEdgeListRoundTrip(t *testing.T) {
	g, err := Uniform(30, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	g2 := mustFromEdges(t, 30, edgeList(g), BuildOptions{Dedup: true})
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("edge list round trip changed M: %d != %d", g2.NumEdges(), g.NumEdges())
	}
	for v := int32(0); int(v) < 30; v++ {
		if g2.Degree(v) != g.Degree(v) {
			t.Fatalf("degree mismatch at %d", v)
		}
	}
}

// Property: building with Undirected+Dedup always yields a symmetric,
// loop-free, sorted graph regardless of input.
func TestBuildInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(40)
		m := r.Intn(200)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{int32(r.Intn(n)), int32(r.Intn(n))}
		}
		g, err := FromEdges(n, edges, BuildOptions{Undirected: true, Dedup: true, DropSelfLoops: true})
		if err != nil {
			return false
		}
		if g.Validate() != nil || !g.IsUndirected() {
			return false
		}
		for v := int32(0); int(v) < n; v++ {
			if g.HasEdge(v, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
