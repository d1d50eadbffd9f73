package cache

import (
	"fmt"

	"salientpp/internal/graph"
)

// Context carries everything a ranking policy may need. Policies rank the
// remote vertices of partition Part (vertices v with Parts[v] != Part).
type Context struct {
	// G is the full (undirected) graph.
	G *graph.CSR
	// Parts assigns each vertex to a partition in [0, K).
	Parts []int32
	// K is the partition count.
	K int
	// Part is the partition whose cache is being ranked.
	Part int32
	// TrainIDs are the global training vertices (all partitions); policies
	// seed from the subset local to Part.
	TrainIDs []int32
	// Fanouts and BatchSize describe the sampling process being optimized.
	Fanouts   []int
	BatchSize int
	// Seed drives any policy-internal simulation.
	Seed uint64
	// Workers bounds policy-internal parallelism (0 = GOMAXPROCS).
	Workers int
}

// Validate performs basic sanity checks shared by policies.
func (c *Context) Validate() error {
	if c.G == nil {
		return fmt.Errorf("cache: nil graph")
	}
	if len(c.Parts) != c.G.NumVertices() {
		return fmt.Errorf("cache: parts length %d != N %d", len(c.Parts), c.G.NumVertices())
	}
	if c.Part < 0 || int(c.Part) >= c.K {
		return fmt.Errorf("cache: partition %d out of [0,%d)", c.Part, c.K)
	}
	if len(c.Fanouts) == 0 {
		return fmt.Errorf("cache: empty fanouts")
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("cache: batch size %d", c.BatchSize)
	}
	return nil
}

// LocalTrain returns the training vertices belonging to Part.
func (c *Context) LocalTrain() []int32 {
	var out []int32
	for _, v := range c.TrainIDs {
		if c.Parts[v] == c.Part {
			out = append(out, v)
		}
	}
	return out
}

// remoteIDs returns all vertices not in Part.
func (c *Context) remoteIDs() []int32 {
	out := make([]int32, 0, len(c.Parts))
	for v, p := range c.Parts {
		if p != c.Part {
			out = append(out, int32(v))
		}
	}
	return out
}

// Ranker produces the setup-time ranking of remote vertices for one
// partition, best candidates first. The seven Figure 2 policies implement
// it; the truncated ranking becomes the first cache epoch (and, in the
// default static serving mode, every epoch after it). The online scorer
// that evolves the cache after setup is Online (online.go).
type Ranker interface {
	// Name is the short label used in tables (matching Figure 2's legend).
	Name() string
	// Rank returns remote vertex ids in descending cache priority. The
	// ranking may omit vertices that the policy would never cache (e.g.
	// unreachable ones); FromRanking treats missing vertices as
	// lowest-priority.
	Rank(ctx *Context) ([]int32, error)
}

// Registry returns the full set of Figure 2 policies in presentation
// order. simEpochs and oracleEpochs control the two empirical policies
// (the paper uses 2 simulated epochs for "sim." and the evaluation epochs
// themselves for "oracle").
func Registry(simEpochs, oracleEpochs int, oracleSeed uint64) []Ranker {
	return []Ranker{
		Degree{},
		Halo{},
		WeightedPageRank{Iterations: 5, Damping: 0.85},
		NumPaths{},
		Simulated{Epochs: simEpochs},
		VIP{},
		Oracle{Epochs: oracleEpochs, EvalSeed: oracleSeed},
	}
}
