package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Permutation maps old vertex ids to new vertex ids: newID = perm[oldID].
// A valid permutation is a bijection on [0, N).
type Permutation []int32

// Inverse returns the inverse permutation: old = inv[new].
func (p Permutation) Inverse() Permutation {
	inv := make(Permutation, len(p))
	for old, nw := range p {
		inv[nw] = int32(old)
	}
	return inv
}

// Validate reports whether p is a bijection on [0, len(p)).
func (p Permutation) Validate() error {
	seen := make([]bool, len(p))
	for old, nw := range p {
		if nw < 0 || int(nw) >= len(p) {
			return fmt.Errorf("graph: permutation maps %d out of range to %d", old, nw)
		}
		if seen[nw] {
			return fmt.Errorf("graph: permutation target %d duplicated", nw)
		}
		seen[nw] = true
	}
	return nil
}

// Relabel returns a new graph with vertices renamed through perm. The
// adjacency structure is preserved: (u,v) is an edge iff
// (perm[u], perm[v]) is an edge in the result. Adjacency lists in the
// result are sorted.
func Relabel(g *CSR, perm Permutation) (*CSR, error) {
	n := g.NumVertices()
	if len(perm) != n {
		return nil, fmt.Errorf("graph: permutation length %d != N %d", len(perm), n)
	}
	if err := perm.Validate(); err != nil {
		return nil, err
	}
	inv := perm.Inverse()
	offsets := make([]int64, n+1)
	for nw := 0; nw < n; nw++ {
		old := inv[nw]
		offsets[nw+1] = offsets[nw] + int64(g.Degree(old))
	}
	adj := make([]int32, g.NumEdges())
	for nw := 0; nw < n; nw++ {
		old := inv[nw]
		out := adj[offsets[nw]:offsets[nw+1]]
		for i, w := range g.Neighbors(old) {
			out[i] = perm[w]
		}
		slices.Sort(out)
	}
	return &CSR{Offsets: offsets, Adj: adj, sorted: true}, nil
}

// PartitionOrder computes the SALIENT++ vertex ordering (§4.1): vertices of
// the same partition become contiguous, and within each partition vertices
// are sorted by descending score (ties broken by old id for determinism).
// With VIP values as scores, each machine's shard begins with its most
// frequently accessed local features (the paper keeps that prefix in GPU
// memory; this reproduction has no device tier).
//
// parts[v] is the partition of vertex v in [0, k); score[v] is its ranking
// key. It returns the permutation (old → new) and the first new id of each
// partition (length k+1 prefix table: partition p occupies
// [starts[p], starts[p+1])).
func PartitionOrder(parts []int32, k int, score []float64) (Permutation, []int64, error) {
	n := len(parts)
	if score != nil && len(score) != n {
		return nil, nil, fmt.Errorf("graph: score length %d != N %d", len(score), n)
	}
	counts := make([]int64, k+1)
	for v, p := range parts {
		if p < 0 || int(p) >= k {
			return nil, nil, fmt.Errorf("graph: vertex %d has partition %d out of [0,%d)", v, p, k)
		}
		counts[p+1]++
	}
	starts := make([]int64, k+1)
	for p := 0; p < k; p++ {
		starts[p+1] = starts[p] + counts[p+1]
	}

	// Order old ids per partition by descending score.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if parts[a] != parts[b] {
			return cmp.Compare(parts[a], parts[b])
		}
		if score != nil && score[a] != score[b] {
			return cmp.Compare(score[b], score[a])
		}
		return cmp.Compare(a, b)
	})
	perm := make(Permutation, n)
	for nw, old := range order {
		perm[old] = int32(nw)
	}
	return perm, starts, nil
}
