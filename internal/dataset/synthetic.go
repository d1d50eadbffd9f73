package dataset

import (
	"fmt"
	"math"
	"sync"

	"salientpp/internal/graph"
	"salientpp/internal/rng"
)

// SyntheticConfig describes a synthetic node-classification dataset.
type SyntheticConfig struct {
	Name string
	// NumVertices is the graph size N.
	NumVertices int
	// AvgDegree is the target average *stored* (directed) degree; the RMAT
	// edge-insertion count is derived from it accounting for symmetrization.
	AvgDegree float64
	// FeatureDim is D.
	FeatureDim int
	// NumClasses is C.
	NumClasses int
	// TrainFrac, ValFrac, TestFrac are the split fractions; the remainder
	// is SplitNone. They must sum to at most 1.
	TrainFrac, ValFrac, TestFrac float64
	// FeatureNoise is the per-dimension Gaussian noise added to class
	// centroids; larger values make the task harder. 0.5 is moderate.
	FeatureNoise float64
	// Materialize controls whether Features are generated. Performance
	// experiments that only need sizes should leave it false.
	Materialize bool
	// Seed drives all randomness.
	Seed uint64
}

// Generate builds the dataset described by cfg.
func Generate(cfg SyntheticConfig) (*Dataset, error) {
	if cfg.NumVertices <= 0 {
		return nil, fmt.Errorf("dataset: NumVertices must be positive, got %d", cfg.NumVertices)
	}
	if cfg.NumClasses <= 1 {
		return nil, fmt.Errorf("dataset: NumClasses must be >= 2, got %d", cfg.NumClasses)
	}
	if f := cfg.TrainFrac + cfg.ValFrac + cfg.TestFrac; f > 1.0001 || cfg.TrainFrac < 0 || cfg.ValFrac < 0 || cfg.TestFrac < 0 {
		return nil, fmt.Errorf("dataset: split fractions invalid (sum %.3f)", f)
	}

	// Each RMAT insertion becomes ~2 stored directed edges before dedup;
	// bump by 6% to compensate for duplicate removal on skewed graphs.
	insertions := int64(float64(cfg.NumVertices) * cfg.AvgDegree / 2 * 1.06)
	r := rng.New(cfg.Seed ^ 0xd1ce)
	// The feature noise depends on nothing the graph decides, so its
	// stream is drawn beside R-MAT and the centroids are added once the
	// labels are known.
	var centroids, features []float32
	var noise sync.WaitGroup
	if cfg.Materialize {
		noise.Add(1)
		// The stream is copied onto the goroutine's stack: a heap
		// generator may share a cache line with R-MAT's, and both write
		// theirs on every draw.
		go func(r rng.RNG) {
			defer noise.Done()
			centroids, features = drawNoise(cfg.NumVertices, cfg.NumClasses, cfg.FeatureDim, cfg.FeatureNoise, &r)
		}(*r.Split(3))
	}
	g, err := graph.RMAT(graph.DefaultRMAT(cfg.NumVertices, insertions, cfg.Seed))
	if err != nil {
		noise.Wait()
		return nil, err
	}

	labels := voronoiLabels(g, cfg.NumClasses, r.Split(1))
	splits := assignSplits(cfg.NumVertices, cfg.TrainFrac, cfg.ValFrac, cfg.TestFrac, r.Split(2))
	noise.Wait()
	if cfg.Materialize {
		addCentroids(features, centroids, labels, cfg.FeatureDim)
	}
	return &Dataset{
		Name:       cfg.Name,
		Graph:      g,
		FeatureDim: cfg.FeatureDim,
		Features:   features,
		Labels:     labels,
		NumClasses: cfg.NumClasses,
		Splits:     splits,
	}, nil
}

// voronoiLabels plants C homophilous label regions by multi-source BFS from
// C random seeds: every vertex takes the label of its nearest seed.
// Vertices unreachable from any seed get uniform random labels.
func voronoiLabels(g *graph.CSR, classes int, r *rng.RNG) []int32 {
	n := g.NumVertices()
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]int32, 0, n)
	// Distinct random seeds (graph may be smaller than class count in
	// pathological tests; guard with min).
	numSeeds := classes
	if numSeeds > n {
		numSeeds = n
	}
	for _, s := range r.SampleK(nil, numSeeds, n) {
		labels[s] = int32(len(queue) % classes)
		queue = append(queue, s)
	}
	// Re-assign seed labels to be 0..numSeeds-1 in draw order.
	for i, s := range queue {
		labels[s] = int32(i % classes)
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.Neighbors(v) {
			if labels[w] < 0 {
				labels[w] = labels[v]
				queue = append(queue, w)
			}
		}
	}
	for v := range labels {
		if labels[v] < 0 {
			labels[v] = int32(r.Intn(classes))
		}
	}
	return labels
}

// assignSplits draws a random permutation and cuts it into train/val/test
// prefixes of the requested fractions.
func assignSplits(n int, train, val, test float64, r *rng.RNG) []Split {
	splits := make([]Split, n)
	perm := r.Perm(n)
	nTrain := int(math.Round(train * float64(n)))
	nVal := int(math.Round(val * float64(n)))
	nTest := int(math.Round(test * float64(n)))
	if nTrain+nVal+nTest > n {
		nTest = n - nTrain - nVal
	}
	idx := 0
	for i := 0; i < nTrain; i++ {
		splits[perm[idx]] = SplitTrain
		idx++
	}
	for i := 0; i < nVal; i++ {
		splits[perm[idx]] = SplitVal
		idx++
	}
	for i := 0; i < nTest; i++ {
		splits[perm[idx]] = SplitTest
		idx++
	}
	return splits
}

// drawNoise draws a random centroid per class, then float32(noise·z) for
// every vertex v and dimension j in that order, row v of the returned
// features holding v's noise.
func drawNoise(n, classes, dim int, noise float64, r *rng.RNG) (centroids, features []float32) {
	centroids = make([]float32, classes*dim)
	for i := range centroids {
		centroids[i] = float32(r.NormFloat64())
	}
	features = make([]float32, n*dim)
	for i := range features {
		features[i] = float32(noise * r.NormFloat64())
	}
	return centroids, features
}

// addCentroids completes x_v = centroid[label(v)] + noise in place over the
// noise drawNoise stored in features.
func addCentroids(features, centroids []float32, labels []int32, dim int) {
	for v, l := range labels {
		c := centroids[int(l)*dim : (int(l)+1)*dim]
		row := features[v*dim : (v+1)*dim]
		for j := range row {
			row[j] = c[j] + row[j]
		}
	}
}

// The three paper benchmarks (Table 2), scaled. The scale parameter is the
// vertex count; relative statistics follow the paper:
//
//	dataset   N (paper)  M stored  avg deg  D    train%  val%   test%
//	products  2.4M       123M      51.2     100  8.2%    1.6%   91.7%
//	papers    111M       3.2B      28.8     128  1.08%   0.11%  0.19%
//	mag240c   121M       2.6B      21.5     768  0.91%   0.11%  0.07%

// ProductsSim returns the ogbn-products analog at n vertices.
func ProductsSim(n int, materialize bool, seed uint64) (*Dataset, error) {
	return Generate(SyntheticConfig{
		Name: "products-sim", NumVertices: n, AvgDegree: 51.2,
		FeatureDim: 100, NumClasses: 16,
		TrainFrac: 0.082, ValFrac: 0.016, TestFrac: 0.902,
		FeatureNoise: 0.6, Materialize: materialize, Seed: seed,
	})
}

// PapersSim returns the ogbn-papers100M analog at n vertices.
func PapersSim(n int, materialize bool, seed uint64) (*Dataset, error) {
	return Generate(SyntheticConfig{
		Name: "papers-sim", NumVertices: n, AvgDegree: 28.8,
		FeatureDim: 128, NumClasses: 32,
		TrainFrac: 0.0108, ValFrac: 0.0011, TestFrac: 0.0019,
		FeatureNoise: 0.6, Materialize: materialize, Seed: seed,
	})
}

// Mag240Sim returns the mag240c (papers-to-papers citation component)
// analog at n vertices. Its distinguishing property in the paper is the 6×
// larger feature dimension, which makes remote-feature communication
// throughput-bound.
func Mag240Sim(n int, materialize bool, seed uint64) (*Dataset, error) {
	return Generate(SyntheticConfig{
		Name: "mag240-sim", NumVertices: n, AvgDegree: 21.5,
		FeatureDim: 768, NumClasses: 32,
		TrainFrac: 0.0091, ValFrac: 0.0011, TestFrac: 0.0007,
		FeatureNoise: 0.6, Materialize: materialize, Seed: seed,
	})
}
