// Package vip implements the paper's central contribution: vertex inclusion
// probability (VIP) analysis for GNN neighborhood expansion with node-wise
// sampling (Proposition 1).
//
// Given a distribution p0 over minibatch seeds, the model propagates
// hop-wise inclusion probabilities through the graph:
//
//	p[h](u) = 1 − Π_{v∈N1(u)} (1 − t_h(u,v)·p[h−1](v))
//	p(u)    = 1 − Π_{h=1..L} (1 − p[h](u))
//
// where, for uniform node-wise sampling without replacement with fanout f_h
// (GraphSAGE), the transition probability is t_h(u,v) = min(1, f_h/d(v)).
//
// The computation is O(L·(M+N)): each hop takes one pass over vertices to
// form s_v = t_h(v)·p[h−1](v) and one pass over edges to accumulate
// Σ log1p(−s_v). Log-space accumulation avoids the catastrophic
// cancellation that a naive product would suffer for the very small
// per-neighbor probabilities typical of low-degree vertices far from the
// training set.
//
// Both passes are embarrassingly parallel in the pull direction — every
// output element depends only on the previous hop's vector — so the
// propagation shards the vertex range into edge-balanced contiguous
// intervals processed by a worker pool (Config.Workers). Each vertex's
// neighbor accumulation keeps the exact serial order, so the output is
// bitwise-identical for every worker count, not merely for a fixed one.
package vip

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"salientpp/internal/graph"
)

// Config parametrizes the sampling process being analyzed.
type Config struct {
	// Fanouts[h-1] is the per-vertex neighbor budget at hop h (sampling
	// order, i.e., the first element is the hop taken directly from the
	// minibatch). A 3-layer GraphSAGE with PyG-style fanouts (15,10,5)
	// passes exactly that slice.
	Fanouts []int
	// BatchSize is the minibatch size B used for the uniform seed
	// distribution helpers. It does not affect Probabilities when a custom
	// p0 is supplied.
	BatchSize int
	// IncludeSeeds folds the hop-0 probability into the final VIP value:
	// p(u) = 1 − (1−p[0](u))·Π_h(1−p[h](u)). Proposition 1 as stated
	// covers hops 1..L only; including seeds matters when ranking *local*
	// vertices (the paper's GPU residency), because minibatch vertices
	// need their own features too. It has no effect on remote-vertex rankings (remote
	// vertices have p[0] = 0 for the partition in question).
	IncludeSeeds bool
	// Workers bounds the propagation parallelism: the vertex range is cut
	// into edge-balanced shards processed concurrently. 0 uses GOMAXPROCS;
	// 1 runs the serial reference path. Results are bitwise-identical for
	// every setting.
	Workers int
}

// Validate checks the configuration against a graph.
func (c Config) Validate() error {
	if len(c.Fanouts) == 0 {
		return fmt.Errorf("vip: empty fanouts")
	}
	for i, f := range c.Fanouts {
		if f <= 0 {
			return fmt.Errorf("vip: fanout[%d] = %d must be positive", i, f)
		}
	}
	return nil
}

// UniformSeeds returns the hop-0 distribution for uniform minibatch
// sampling without replacement: p0(u) = B/|T| for u in the training set T
// (capped at 1), 0 elsewhere.
func UniformSeeds(n int, trainIDs []int32, batchSize int) []float64 {
	p0 := make([]float64, n)
	if len(trainIDs) == 0 {
		return p0
	}
	p := float64(batchSize) / float64(len(trainIDs))
	if p > 1 {
		p = 1
	}
	for _, v := range trainIDs {
		p0[v] = p
	}
	return p0
}

// Result carries the VIP values and, optionally, the per-hop vectors.
type Result struct {
	// P[u] is the probability that u appears in the sampled L-hop expanded
	// neighborhood of a minibatch.
	P []float64
	// Hops[h-1][u] is p[h](u); populated only when KeepHops was requested.
	Hops [][]float64
}

// Probabilities computes VIP values for an arbitrary seed distribution p0.
// keepHops retains the intermediate hop vectors (used by analysis tools and
// tests; costs L extra vectors).
func Probabilities(g *graph.CSR, p0 []float64, cfg Config, keepHops bool) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	if len(p0) != n {
		return nil, fmt.Errorf("vip: p0 has %d entries for %d vertices", len(p0), n)
	}
	for v, p := range p0 {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return nil, fmt.Errorf("vip: p0[%d] = %v is not a probability", v, p)
		}
	}

	// logKeep[u] accumulates Σ_h log(1 − p[h](u)); final P = 1 − exp(logKeep).
	logKeep := make([]float64, n)
	if cfg.IncludeSeeds {
		for v, p := range p0 {
			logKeep[v] = log1mp(p)
		}
	}

	prev := make([]float64, n)
	copy(prev, p0)
	cur := make([]float64, n)
	sv := make([]float64, n) // s_v = t_h(v)·p[h−1](v), then log1p(−s_v)

	shards := edgeShards(g, cfg.Workers)
	res := &Result{}
	for _, f := range cfg.Fanouts {
		// Pass 1 (vertices): per-sampler contribution in log space.
		// Vertices outside the current frontier (prev == 0) cost one read.
		forShards(shards, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				if prev[v] == 0 {
					sv[v] = 0
					continue
				}
				d := g.Degree(int32(v))
				t := 1.0
				if d > f {
					t = float64(f) / float64(d)
				}
				sv[v] = log1mp(t * prev[v])
			}
		})
		// Pass 2 (edges): p[h](u) = 1 − exp(Σ_{v∈N(u)} log(1 − s_v)).
		// Each destination accumulates its neighbors in adjacency order,
		// exactly as the serial pass does.
		forShards(shards, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				var acc float64
				for _, v := range g.Neighbors(int32(u)) {
					acc += sv[v]
				}
				p := -math.Expm1(acc) // 1 − exp(acc)
				cur[u] = p
				logKeep[u] += log1mp(p)
			}
		})
		if keepHops {
			hop := make([]float64, n)
			copy(hop, cur)
			res.Hops = append(res.Hops, hop)
		}
		prev, cur = cur, prev
	}

	out := make([]float64, n)
	forShards(shards, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			out[u] = -math.Expm1(logKeep[u])
			// Clamp tiny negative values from floating-point noise.
			if out[u] < 0 {
				out[u] = 0
			} else if out[u] > 1 {
				out[u] = 1
			}
		}
	})
	res.P = out
	return res, nil
}

// edgeShards cuts [0, n) into at most workers contiguous vertex ranges
// whose stored-edge counts are balanced, so pass-2 work (proportional to
// degree sums, not vertex counts) divides evenly even on the skewed
// power-law graphs the paper targets. Workers <= 0 means GOMAXPROCS.
func edgeShards(g *graph.CSR, workers int) [][2]int {
	n := g.NumVertices()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 0 {
		return [][2]int{{0, n}}
	}
	m := g.NumEdges()
	shards := make([][2]int, 0, workers)
	lo := 0
	for s := 1; s <= workers && lo < n; s++ {
		var hi int
		if s == workers {
			hi = n
		} else {
			// First vertex whose prefix edge count reaches s/workers of
			// the total; +1 keeps shards non-empty on edgeless prefixes.
			target := m * int64(s) / int64(workers)
			hi = sort.Search(n, func(v int) bool { return g.Offsets[v+1] >= target })
			if hi <= lo {
				hi = lo + 1
			}
			if hi > n {
				hi = n
			}
		}
		shards = append(shards, [2]int{lo, hi})
		lo = hi
	}
	return shards
}

// forShards runs fn over every shard, concurrently when there is more than
// one. Shards never overlap, so workers write disjoint ranges of the
// shared output vectors and need no synchronization beyond the barrier.
func forShards(shards [][2]int, fn func(lo, hi int)) {
	if len(shards) == 1 {
		fn(shards[0][0], shards[0][1])
		return
	}
	var wg sync.WaitGroup
	for _, sh := range shards {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(sh[0], sh[1])
	}
	wg.Wait()
}

// log1mp returns log(1−p) handling p == 1 exactly.
func log1mp(p float64) float64 {
	if p >= 1 {
		return math.Inf(-1)
	}
	return math.Log1p(-p)
}

// ForPartitions computes partition-wise VIP vectors: element [k][u] is the
// probability that machine k's minibatch expansion includes vertex u.
// parts[v] gives the partition of v; trainIDs are the global training
// vertices (each contributes to its own partition's seed distribution with
// p0 = B/|T_k|, matching the paper's partition-wise analysis).
func ForPartitions(g *graph.CSR, parts []int32, k int, trainIDs []int32, cfg Config) ([][]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	if len(parts) != n {
		return nil, fmt.Errorf("vip: parts has %d entries for %d vertices", len(parts), n)
	}
	trainPer := make([][]int32, k)
	for _, v := range trainIDs {
		p := parts[v]
		if p < 0 || int(p) >= k {
			return nil, fmt.Errorf("vip: training vertex %d has partition %d outside [0,%d)", v, p, k)
		}
		trainPer[p] = append(trainPer[p], v)
	}
	out := make([][]float64, k)
	for p := 0; p < k; p++ {
		p0 := UniformSeeds(n, trainPer[p], cfg.BatchSize)
		res, err := Probabilities(g, p0, cfg, false)
		if err != nil {
			return nil, err
		}
		out[p] = res.P
	}
	return out, nil
}

// RandomWalk computes the linear special case of the VIP model (§3.1): with
// batch size 1 and all fanouts 1 the expansion is a random walk and the
// hop-wise model becomes p[h] = Pᵀ p[h−1] with P(v→u) = 1/d(v). Returns the
// expected number of visits truncated to probabilities (values capped at 1
// per hop for comparability with the nonlinear model).
func RandomWalk(g *graph.CSR, p0 []float64, hops int) []float64 {
	n := g.NumVertices()
	prev := make([]float64, n)
	copy(prev, p0)
	cur := make([]float64, n)
	keep := make([]float64, n)
	for u := range keep {
		keep[u] = 1
	}
	for h := 0; h < hops; h++ {
		for u := 0; u < n; u++ {
			var acc float64
			for _, v := range g.Neighbors(int32(u)) {
				d := g.Degree(v)
				if d > 0 {
					acc += prev[v] / float64(d)
				}
			}
			if acc > 1 {
				acc = 1
			}
			cur[u] = acc
			keep[u] *= 1 - acc
		}
		prev, cur = cur, prev
	}
	out := make([]float64, n)
	for u := range out {
		out[u] = 1 - keep[u]
	}
	return out
}

// FullExpansion computes the other end of the continuum (§3.1): fanouts at
// least the maximum degree make sampling deterministic, t_h ≡ 1, and
//
//	p[h](u) = 1 − Π_{v∈N(u)} (1 − p[h−1](v)).
func FullExpansion(g *graph.CSR, p0 []float64, hops int) []float64 {
	n := g.NumVertices()
	prev := make([]float64, n)
	copy(prev, p0)
	cur := make([]float64, n)
	logKeep := make([]float64, n)
	for h := 0; h < hops; h++ {
		for u := 0; u < n; u++ {
			var acc float64
			for _, v := range g.Neighbors(int32(u)) {
				acc += log1mp(prev[v])
			}
			p := -math.Expm1(acc)
			cur[u] = p
			logKeep[u] += log1mp(p)
		}
		prev, cur = cur, prev
	}
	out := make([]float64, n)
	for u := range out {
		out[u] = -math.Expm1(logKeep[u])
	}
	return out
}
