package graph

import (
	"sort"
	"testing"
)

func TestRMATBasicProperties(t *testing.T) {
	g, err := RMAT(DefaultRMAT(1000, 8000, 42))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1000 {
		t.Fatalf("N=%d", g.NumVertices())
	}
	if !g.IsUndirected() {
		t.Fatal("RMAT output must be undirected")
	}
	// Dedup may remove some insertions but the bulk should survive.
	if g.NumEdges() < 8000 { // 2*8000 directed minus dedup losses
		t.Fatalf("suspiciously few edges: %d", g.NumEdges())
	}
}

func TestRMATDeterminism(t *testing.T) {
	g1, _ := RMAT(DefaultRMAT(500, 3000, 7))
	g2, _ := RMAT(DefaultRMAT(500, 3000, 7))
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	for i := range g1.Adj {
		if g1.Adj[i] != g2.Adj[i] {
			t.Fatal("same seed produced different adjacency")
		}
	}
	g3, _ := RMAT(DefaultRMAT(500, 3000, 8))
	if g3.NumEdges() == g1.NumEdges() {
		same := true
		for i := range g1.Adj {
			if i >= len(g3.Adj) || g1.Adj[i] != g3.Adj[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestRMATDegreeSkew(t *testing.T) {
	// The skewed quadrant probabilities must produce a heavy-tailed degree
	// distribution: max degree far above average.
	g, err := RMAT(DefaultRMAT(4096, 40000, 3))
	if err != nil {
		t.Fatal(err)
	}
	if float64(g.MaxDegree()) < 5*g.AvgDegree() {
		t.Fatalf("RMAT not skewed: max=%d avg=%.1f", g.MaxDegree(), g.AvgDegree())
	}
}

func TestRMATRejectsBadConfig(t *testing.T) {
	bad := DefaultRMAT(100, 100, 1)
	bad.A = 0.9 // probabilities no longer sum to 1
	if _, err := RMAT(bad); err == nil {
		t.Fatal("expected config error")
	}
	if _, err := RMAT(DefaultRMAT(0, 10, 1)); err == nil {
		t.Fatal("expected size error")
	}
}

func TestUniformProperties(t *testing.T) {
	g, err := Uniform(200, 1000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.IsUndirected() {
		t.Fatal("Uniform output must be undirected")
	}
	// Degree distribution should be tight (Binomial), unlike RMAT.
	degs := g.Degrees()
	sort.Slice(degs, func(i, j int) bool { return degs[i] < degs[j] })
	median := float64(degs[len(degs)/2])
	if float64(g.MaxDegree()) > 6*median+10 {
		t.Fatalf("Uniform unexpectedly skewed: max=%d median=%.0f", g.MaxDegree(), median)
	}
}

func TestRing(t *testing.T) {
	g, err := Ring(10)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < 10; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("ring degree %d at %d", g.Degree(v), v)
		}
	}
	if !g.HasEdge(9, 0) || !g.HasEdge(0, 9) {
		t.Fatal("ring must wrap around")
	}
	if _, err := Ring(2); err == nil {
		t.Fatal("Ring(2) should error")
	}
}

func TestStar(t *testing.T) {
	g, err := Star(8)
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 7 {
		t.Fatalf("hub degree %d", g.Degree(0))
	}
	for v := int32(1); v < 8; v++ {
		if g.Degree(v) != 1 {
			t.Fatalf("leaf %d degree %d", v, g.Degree(v))
		}
	}
}

func TestGrid2D(t *testing.T) {
	g, err := Grid2D(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 12 {
		t.Fatalf("N=%d", g.NumVertices())
	}
	// Corner degrees 2, edge degrees 3, interior 4.
	if g.Degree(0) != 2 {
		t.Fatalf("corner degree %d", g.Degree(0))
	}
	if g.Degree(5) != 4 { // row 1, col 1 is interior
		t.Fatalf("interior degree %d", g.Degree(5))
	}
	// Total edges: 3*3 horizontal + 2*4 vertical = 17 undirected = 34 directed.
	if g.NumEdges() != 34 {
		t.Fatalf("M=%d want 34", g.NumEdges())
	}
}
