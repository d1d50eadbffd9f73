package graph

import (
	"fmt"

	"salientpp/internal/rng"
)

// RMATConfig parametrizes the recursive-matrix (Kronecker-style) generator
// of Chakrabarti, Zhan, and Faloutsos. RMAT graphs have the heavy-tailed
// degree distributions and community structure characteristic of the OGB
// citation and co-purchase graphs used in the paper, which is what the
// VIP/caching behaviour depends on.
type RMATConfig struct {
	// NumVertices is rounded up to the next power of two internally; the
	// generated edges are mapped back into [0, NumVertices).
	NumVertices int
	// NumEdges is the number of edge insertions before preprocessing
	// (symmetrization and dedup reduce the final count slightly).
	NumEdges int64
	// A, B, C, D are the quadrant probabilities; they must be positive and
	// sum to 1. The classic skewed setting is A=0.57 B=0.19 C=0.19 D=0.05.
	A, B, C, D float64
	// Noise perturbs the quadrant probabilities per recursion level to
	// smooth the degree distribution (standard "smoothed RMAT"). 0 disables.
	Noise float64
	// Seed makes generation deterministic.
	Seed uint64
}

// DefaultRMAT returns the classic skewed configuration at the given size.
func DefaultRMAT(n int, m int64, seed uint64) RMATConfig {
	return RMATConfig{NumVertices: n, NumEdges: m, A: 0.57, B: 0.19, C: 0.19, D: 0.05, Noise: 0.1, Seed: seed}
}

// RMAT generates an undirected, deduplicated, self-loop-free graph.
func RMAT(cfg RMATConfig) (*CSR, error) {
	if cfg.NumVertices <= 0 {
		return nil, fmt.Errorf("graph: RMAT needs positive NumVertices, got %d", cfg.NumVertices)
	}
	sum := cfg.A + cfg.B + cfg.C + cfg.D
	if sum < 0.999 || sum > 1.001 || cfg.A <= 0 || cfg.B <= 0 || cfg.C <= 0 || cfg.D <= 0 {
		return nil, fmt.Errorf("graph: RMAT quadrant probabilities must be positive and sum to 1 (got %v)", sum)
	}
	levels := 0
	for (1 << levels) < cfg.NumVertices {
		levels++
	}
	r := rng.New(cfg.Seed)
	edges := make([]Edge, 0, cfg.NumEdges)
	for i := int64(0); i < cfg.NumEdges; i++ {
		src, dst := rmatEdge(r, levels, cfg)
		// Map the power-of-two domain back into [0, N): rejection keeps the
		// distribution unbiased for the kept region.
		if src >= int64(cfg.NumVertices) || dst >= int64(cfg.NumVertices) {
			i--
			continue
		}
		edges = append(edges, Edge{int32(src), int32(dst)})
	}
	return FromEdges(cfg.NumVertices, edges, BuildOptions{Undirected: true, Dedup: true, DropSelfLoops: true})
}

func rmatEdge(r *rng.RNG, levels int, cfg RMATConfig) (int64, int64) {
	var src, dst int64
	a, b, c := cfg.A, cfg.B, cfg.C
	for l := 0; l < levels; l++ {
		aa, bb, cc := a, b, c
		if cfg.Noise > 0 {
			// Multiplicative noise per level, renormalized. Each product
			// rounds through an explicit conversion so arm64 cannot fuse it
			// into the following add and build a different graph.
			na := float64(aa * (1 - cfg.Noise + float64(2*cfg.Noise*r.Float64())))
			nb := float64(bb * (1 - cfg.Noise + float64(2*cfg.Noise*r.Float64())))
			nc := float64(cc * (1 - cfg.Noise + float64(2*cfg.Noise*r.Float64())))
			nd := float64((1 - aa - bb - cc) * (1 - cfg.Noise + float64(2*cfg.Noise*r.Float64())))
			tot := na + nb + nc + nd
			aa, bb, cc = na/tot, nb/tot, nc/tot
		}
		u := r.Float64()
		src <<= 1
		dst <<= 1
		switch {
		case u < aa:
			// top-left: no bits set
		case u < aa+bb:
			dst |= 1
		case u < aa+bb+cc:
			src |= 1
		default:
			src |= 1
			dst |= 1
		}
	}
	return src, dst
}

// Uniform generates an Erdős–Rényi-style G(n, m) graph: m edge insertions
// chosen uniformly at random, then symmetrized and deduplicated.
func Uniform(n int, m int64, seed uint64) (*CSR, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: Uniform needs positive n, got %d", n)
	}
	r := rng.New(seed)
	edges := make([]Edge, 0, m)
	for i := int64(0); i < m; i++ {
		edges = append(edges, Edge{int32(r.Intn(n)), int32(r.Intn(n))})
	}
	return FromEdges(n, edges, BuildOptions{Undirected: true, Dedup: true, DropSelfLoops: true})
}

// Ring generates an undirected cycle on n vertices.
func Ring(n int) (*CSR, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: Ring needs n >= 3, got %d", n)
	}
	edges := make([]Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, Edge{int32(i), int32((i + 1) % n)})
	}
	return FromEdges(n, edges, BuildOptions{Undirected: true, Dedup: true, DropSelfLoops: true})
}

// Star generates an undirected star: vertex 0 is the hub joined to all
// other vertices. The hub's degree is n-1, a stress test for samplers and
// for the VIP model's min(1, f/d) transition probabilities.
func Star(n int) (*CSR, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: Star needs n >= 2, got %d", n)
	}
	edges := make([]Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{0, int32(i)})
	}
	return FromEdges(n, edges, BuildOptions{Undirected: true, Dedup: true, DropSelfLoops: true})
}

// Grid2D generates an undirected rows×cols grid graph, a convenient
// low-degree planar workload with perfectly predictable partitions.
func Grid2D(rows, cols int) (*CSR, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("graph: Grid2D needs positive dimensions, got %dx%d", rows, cols)
	}
	id := func(r, c int) int32 { return int32(r*cols + c) }
	edges := make([]Edge, 0, 2*rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, Edge{id(r, c), id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, Edge{id(r, c), id(r+1, c)})
			}
		}
	}
	return FromEdges(rows*cols, edges, BuildOptions{Undirected: true, Dedup: true, DropSelfLoops: true})
}
