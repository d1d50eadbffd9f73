package graph

import (
	"fmt"
	"slices"
)

// Edge is a directed edge from Src to Dst.
type Edge struct {
	Src, Dst int32
}

// BuildOptions control edge-list to CSR conversion.
type BuildOptions struct {
	// Undirected symmetrizes the input: every edge is stored in both
	// directions. Duplicate edges are always removed when Dedup is set.
	Undirected bool
	// Dedup removes parallel edges (and, combined with DropSelfLoops,
	// self loops). The resulting adjacency lists are sorted.
	Dedup bool
	// DropSelfLoops removes edges with Src == Dst.
	DropSelfLoops bool
}

// FromEdges builds a CSR graph with n vertices from an edge list.
// It returns an error if any endpoint is out of [0, n).
//
// The standard preprocessing used throughout this repository (matching the
// paper's "make the graph undirected" step) is
// FromEdges(n, edges, BuildOptions{Undirected: true, Dedup: true, DropSelfLoops: true}).
func FromEdges(n int, edges []Edge, opts BuildOptions) (*CSR, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for _, e := range edges {
		if e.Src < 0 || int(e.Src) >= n || e.Dst < 0 || int(e.Dst) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.Src, e.Dst, n)
		}
	}

	// Working copy including reversed edges when symmetrizing.
	work := make([]Edge, 0, len(edges)*2)
	for _, e := range edges {
		if opts.DropSelfLoops && e.Src == e.Dst {
			continue
		}
		work = append(work, e)
		if opts.Undirected && e.Src != e.Dst {
			work = append(work, Edge{e.Dst, e.Src})
		}
	}

	// Counting sort by source into CSR, then sort/dedup each list.
	offsets := make([]int64, n+1)
	for _, e := range work {
		offsets[e.Src+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	adj := make([]int32, len(work))
	cursor := make([]int64, n)
	for _, e := range work {
		p := offsets[e.Src] + cursor[e.Src]
		adj[p] = e.Dst
		cursor[e.Src]++
	}

	g := &CSR{Offsets: offsets, Adj: adj}
	if opts.Dedup {
		g = dedupSorted(g)
	}
	return g, nil
}

// dedupSorted sorts every adjacency list and removes duplicates, rebuilding
// offsets to stay dense.
func dedupSorted(g *CSR) *CSR {
	n := g.NumVertices()
	newOffsets := make([]int64, n+1)
	// Compact in place: the write position never overtakes the read
	// position because lists only shrink, so reusing g.Adj is safe.
	adj := g.Adj
	var write int64
	for v := 0; v < n; v++ {
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		nbrs := adj[lo:hi]
		slices.Sort(nbrs)
		newOffsets[v] = write
		for i, w := range nbrs {
			if i > 0 && nbrs[i-1] == w {
				continue
			}
			adj[write] = w
			write++
		}
	}
	newOffsets[n] = write
	return &CSR{Offsets: newOffsets, Adj: adj[:write], sorted: true}
}
