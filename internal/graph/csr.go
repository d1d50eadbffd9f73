// Package graph provides the compressed-sparse-row (CSR) graph substrate
// used by the SALIENT++ reproduction: construction from edge lists,
// synthetic generators with realistic degree skew, vertex reordering, and
// binary (de)serialization.
//
// Vertices are identified by int32 indices in [0, N). Directed adjacency is
// stored in CSR form; undirected graphs store each edge in both directions
// (as the paper does after symmetrizing the OGB graphs).
package graph

import (
	"fmt"
	"sort"
)

// CSR is a graph in compressed-sparse-row format.
//
// The neighbors of vertex v are Adj[Offsets[v]:Offsets[v+1]]. Within a
// vertex's neighbor list the order is unspecified unless the graph was
// built with sorted adjacency (see Builder), in which case it is ascending
// and HasEdge runs in O(log d).
type CSR struct {
	// Offsets has length NumVertices()+1; Offsets[0] == 0.
	Offsets []int64
	// Adj holds concatenated neighbor lists; length is NumEdges().
	Adj []int32
	// sorted records whether every adjacency list is ascending.
	sorted bool
}

// NumVertices returns the number of vertices N.
func (g *CSR) NumVertices() int { return len(g.Offsets) - 1 }

// NumEdges returns the number of stored directed edges M. For undirected
// graphs this counts each edge twice (once per direction).
func (g *CSR) NumEdges() int64 { return g.Offsets[len(g.Offsets)-1] }

// Degree returns the out-degree of v.
func (g *CSR) Degree(v int32) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Neighbors returns the neighbor slice of v. The returned slice aliases the
// graph's storage and must not be modified.
func (g *CSR) Neighbors(v int32) []int32 {
	return g.Adj[g.Offsets[v]:g.Offsets[v+1]]
}

// HasEdge reports whether the directed edge (u, v) exists. It uses binary
// search when the graph was built sorted and a linear scan otherwise.
func (g *CSR) HasEdge(u, v int32) bool {
	nbrs := g.Neighbors(u)
	if g.sorted {
		i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
		return i < len(nbrs) && nbrs[i] == v
	}
	for _, w := range nbrs {
		if w == v {
			return true
		}
	}
	return false
}

// MaxDegree returns the maximum out-degree over all vertices (0 for an
// empty graph).
func (g *CSR) MaxDegree() int {
	best := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(int32(v)); d > best {
			best = d
		}
	}
	return best
}

// AvgDegree returns the average out-degree.
func (g *CSR) AvgDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(n)
}

// Degrees returns a fresh slice of all out-degrees.
func (g *CSR) Degrees() []int32 {
	n := g.NumVertices()
	d := make([]int32, n)
	for v := 0; v < n; v++ {
		d[v] = int32(g.Offsets[v+1] - g.Offsets[v])
	}
	return d
}

// IsUndirected reports whether for every stored edge (u,v) the reverse edge
// (v,u) is also stored. It is O(M log d) on sorted graphs and O(M·d)
// otherwise; intended for tests and validation, not hot paths.
func (g *CSR) IsUndirected() bool {
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(int32(u)) {
			if !g.HasEdge(v, int32(u)) {
				return false
			}
		}
	}
	return true
}

// Validate checks structural invariants and returns a descriptive error on
// the first violation: monotone offsets, in-range neighbor ids, and sorted
// adjacency if the graph claims it.
func (g *CSR) Validate() error {
	if len(g.Offsets) == 0 {
		return fmt.Errorf("graph: missing offsets")
	}
	if g.Offsets[0] != 0 {
		return fmt.Errorf("graph: Offsets[0] = %d, want 0", g.Offsets[0])
	}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if g.Offsets[v+1] < g.Offsets[v] {
			return fmt.Errorf("graph: offsets decrease at vertex %d", v)
		}
	}
	if g.Offsets[n] != int64(len(g.Adj)) {
		return fmt.Errorf("graph: Offsets[N] = %d, want len(Adj) = %d", g.Offsets[n], len(g.Adj))
	}
	for v := 0; v < n; v++ {
		nbrs := g.Neighbors(int32(v))
		for i, w := range nbrs {
			if w < 0 || int(w) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, w)
			}
			if g.sorted && i > 0 && nbrs[i-1] > w {
				return fmt.Errorf("graph: vertex %d adjacency not sorted", v)
			}
		}
	}
	return nil
}

// String returns a short human-readable summary.
func (g *CSR) String() string {
	return fmt.Sprintf("CSR{N=%d, M=%d, maxdeg=%d}", g.NumVertices(), g.NumEdges(), g.MaxDegree())
}
