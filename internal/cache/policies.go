package cache

import (
	"salientpp/internal/rng"
	"salientpp/internal/sample"
	"salientpp/internal/vip"
)

// Degree is the "deg." policy (Lin et al. 2020, PaGraph-style): remote
// vertices reachable from the partition's training set within L hops,
// ranked by degree. High degree is a proxy for access likelihood that
// ignores the sampling process entirely.
type Degree struct{}

// Name implements Ranker.
func (Degree) Name() string { return "deg." }

// Rank implements Ranker.
func (Degree) Rank(ctx *Context) ([]int32, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	reach := reachable(ctx, len(ctx.Fanouts))
	var ids []int32
	for _, v := range reach {
		if ctx.Parts[v] != ctx.Part {
			ids = append(ids, v)
		}
	}
	g := ctx.G
	return rankByScore(ids, func(v int32) float64 { return float64(g.Degree(v)) }), nil
}

// Halo is the "1-hop" policy: replicate the entire 1-hop halo of the
// partition (remote neighbors of local vertices). Its natural replication
// factor is whatever the halo size dictates; under a capacity limit the
// halo is ranked by degree.
type Halo struct{}

// Name implements Ranker.
func (Halo) Name() string { return "1-hop" }

// Rank implements Ranker.
func (Halo) Rank(ctx *Context) ([]int32, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	g := ctx.G
	n := g.NumVertices()
	inHalo := make([]bool, n)
	var ids []int32
	for v := 0; v < n; v++ {
		if ctx.Parts[v] != ctx.Part {
			continue
		}
		for _, u := range g.Neighbors(int32(v)) {
			if ctx.Parts[u] != ctx.Part && !inHalo[u] {
				inHalo[u] = true
				ids = append(ids, u)
			}
		}
	}
	return rankByScore(ids, func(v int32) float64 { return float64(g.Degree(v)) }), nil
}

// WeightedPageRank is the "wPR" policy (Min et al. 2021): a few iterations
// of reverse PageRank seeded at the partition's training vertices, with
// transition weights 1/d(v). It models multi-hop expansion but is agnostic
// to fanouts and the layer count.
type WeightedPageRank struct {
	Iterations int
	Damping    float64
}

// Name implements Ranker.
func (WeightedPageRank) Name() string { return "wPR" }

// Rank implements Ranker.
func (p WeightedPageRank) Rank(ctx *Context) ([]int32, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	iters, damp := p.Iterations, p.Damping
	if iters <= 0 {
		iters = 5
	}
	if damp <= 0 || damp >= 1 {
		damp = 0.85
	}
	g := ctx.G
	n := g.NumVertices()
	local := ctx.LocalTrain()
	seedMass := make([]float64, n)
	if len(local) > 0 {
		w := 1.0 / float64(len(local))
		for _, v := range local {
			seedMass[v] = w
		}
	}
	rank := make([]float64, n)
	copy(rank, seedMass)
	next := make([]float64, n)
	for it := 0; it < iters; it++ {
		for u := 0; u < n; u++ {
			var acc float64
			for _, v := range g.Neighbors(int32(u)) {
				if d := g.Degree(v); d > 0 {
					acc += rank[v] / float64(d)
				}
			}
			next[u] = float64((1-damp)*seedMass[u]) + float64(damp*acc) // conversions: no arm64 FMA
		}
		rank, next = next, rank
	}
	ids := ctx.remoteIDs()
	return rankByScore(ids, func(v int32) float64 { return rank[v] }), nil
}

// NumPaths is the "#paths" policy: rank remote vertices by the number of
// paths of length at most L that reach them from any local training
// vertex. It models the expansion topology but not the sampling
// probabilities.
type NumPaths struct{}

// Name implements Ranker.
func (NumPaths) Name() string { return "#paths" }

// Rank implements Ranker.
func (NumPaths) Rank(ctx *Context) ([]int32, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	g := ctx.G
	n := g.NumVertices()
	cur := make([]float64, n)
	for _, v := range ctx.LocalTrain() {
		cur[v] = 1
	}
	score := make([]float64, n)
	next := make([]float64, n)
	for h := 0; h < len(ctx.Fanouts); h++ {
		for u := 0; u < n; u++ {
			var acc float64
			for _, v := range g.Neighbors(int32(u)) {
				acc += cur[v]
			}
			next[u] = acc
			score[u] += acc
		}
		cur, next = next, cur
	}
	ids := ctx.remoteIDs()
	return rankByScore(ids, func(v int32) float64 { return score[v] }), nil
}

// Simulated is the "sim." policy (GNNLab, Yang et al. 2022): run a small
// number of simulated training epochs and rank remote vertices by their
// empirical access counts. Cheap to generalize to any sampling scheme, but
// noisy for infrequently accessed vertices — exactly the regime where the
// analytic VIP model keeps its edge (Figure 2d, Figure 9).
type Simulated struct {
	// Epochs is the number of simulated epochs (the paper uses 2).
	Epochs int
}

// Name implements Ranker.
func (Simulated) Name() string { return "sim." }

// Rank implements Ranker.
func (p Simulated) Rank(ctx *Context) ([]int32, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	epochs := p.Epochs
	if epochs <= 0 {
		epochs = 2
	}
	counts, err := simulateCounts(ctx, epochs, ctx.Seed)
	if err != nil {
		return nil, err
	}
	ids := ctx.remoteIDs()
	return rankByScore(ids, func(v int32) float64 { return float64(counts[v]) }), nil
}

// VIP is the paper's analytic policy: rank remote vertices by the vertex
// inclusion probabilities of Proposition 1 computed for this partition's
// minibatch distribution.
type VIP struct{}

// Name implements Ranker.
func (VIP) Name() string { return "VIP" }

// Rank implements Ranker.
func (VIP) Rank(ctx *Context) ([]int32, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	p0 := vip.UniformSeeds(ctx.G.NumVertices(), ctx.LocalTrain(), ctx.BatchSize)
	res, err := vip.Probabilities(ctx.G, p0, vip.Config{Fanouts: ctx.Fanouts, BatchSize: ctx.BatchSize}, false)
	if err != nil {
		return nil, err
	}
	ids := ctx.remoteIDs()
	return rankByScore(ids, func(v int32) float64 { return res.P[v] }), nil
}

// Oracle ranks remote vertices by their actual access frequencies over the
// very epochs used for evaluation, providing the communication lower bound
// for any static cache. EvalSeed and Epochs must match the evaluation
// workload exactly.
type Oracle struct {
	Epochs   int
	EvalSeed uint64
}

// Name implements Ranker.
func (Oracle) Name() string { return "oracle" }

// Rank implements Ranker.
func (p Oracle) Rank(ctx *Context) ([]int32, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	epochs := p.Epochs
	if epochs <= 0 {
		epochs = 1
	}
	counts, err := simulateCounts(ctx, epochs, p.EvalSeed)
	if err != nil {
		return nil, err
	}
	ids := ctx.remoteIDs()
	return rankByScore(ids, func(v int32) float64 { return float64(counts[v]) }), nil
}

// None is the no-caching baseline; it ranks nothing.
type None struct{}

// Name implements Ranker.
func (None) Name() string { return "none" }

// Rank implements Ranker.
func (None) Rank(ctx *Context) ([]int32, error) { return nil, nil }

// simulateCounts runs the partition's sampled epochs and returns per-vertex
// access counts.
func simulateCounts(ctx *Context, epochs int, seed uint64) ([]int64, error) {
	s, err := sample.NewSampler(ctx.G, ctx.Fanouts)
	if err != nil {
		return nil, err
	}
	local := ctx.LocalTrain()
	return sample.AccessCounts(s, local, ctx.BatchSize, epochs, rng.New(seed), ctx.Workers), nil
}

// reachable returns all vertices within maxHops of the partition's local
// training set (including the training vertices themselves). Distances are
// int32: an int16 array overflowed once a distance passed 32767, and the
// wrapped-negative values made visited vertices look unvisited again, so
// the BFS re-enqueued them forever — deep-fanout configs pass len(Fanouts)
// straight through here as maxHops.
func reachable(ctx *Context, maxHops int) []int32 {
	g := ctx.G
	n := g.NumVertices()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	var queue []int32
	for _, v := range ctx.LocalTrain() {
		dist[v] = 0
		queue = append(queue, v)
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if int(dist[v]) >= maxHops {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return queue
}
