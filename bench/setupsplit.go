package main

import (
	"time"

	"salientpp/internal/cache"
	"salientpp/internal/dataset"
	"salientpp/internal/partition"
	"salientpp/internal/vip"
)

// setupSplit measures where set-up time goes by calling the layers
// pipeline.NewCluster calls, in its order and with its arguments, each
// under a span: dataset generation, partitioning, VIP analysis, cache
// ranking and cache-epoch construction. It returns the generated dataset
// for the run's real cluster.
func setupSplit(w *workload, sc scale, seed uint64, tr *recorder, vals map[string]float64) (*dataset.Dataset, error) {
	root := tr.begin("setup", -1, 0, 0)
	defer tr.end(root)
	var err error
	timed := func(name string, rank int, fn func()) {
		s := tr.begin(name, root, rank, 0)
		t0 := time.Now()
		fn()
		vals[name] += time.Since(t0).Seconds()
		tr.end(s)
	}

	var ds *dataset.Dataset
	timed("dataset.gen_s", 0, func() { ds, err = generate(sc, seed) })
	if err != nil {
		return nil, err
	}
	n := ds.NumVertices()
	isTrain, isVal, isTest := make([]bool, n), make([]bool, n), make([]bool, n)
	for v, s := range ds.Splits {
		isTrain[v], isVal[v], isTest[v] = s == dataset.SplitTrain, s == dataset.SplitVal, s == dataset.SplitTest
	}
	var parts *partition.Result
	timed("partition.s", 0, func() {
		parts, err = partition.Partition(ds.Graph, partition.Config{
			K: ranks, Weights: partition.SalientWeights(ds.Graph, isTrain, isVal, isTest), Seed: seed,
		})
	})
	if err != nil {
		return nil, err
	}
	vals["partition.cut_frac"] = parts.CutFraction(ds.Graph)

	train := ds.TrainIDs()
	timed("vip.s", 0, func() {
		_, err = vip.ForPartitions(ds.Graph, parts.Parts, ranks, train, vip.Config{
			Fanouts: fanouts, BatchSize: batchSize, IncludeSeeds: true, Workers: 2,
		})
	})
	if err != nil {
		return nil, err
	}

	capacity := cache.CapacityForAlpha(w.alpha, n, ranks)
	for rank := 0; rank < ranks; rank++ {
		var ranking []int32
		timed("cache.rank_s", rank, func() {
			ranking, err = cache.VIP{}.Rank(&cache.Context{
				G: ds.Graph, Parts: parts.Parts, K: ranks, Part: int32(rank), TrainIDs: train,
				Fanouts: fanouts, BatchSize: batchSize, Seed: seed + uint64(rank), Workers: 2,
			})
		})
		if err != nil {
			return nil, err
		}
		builder, err := cache.NewEpochBuilder(n, featureDim, ds.FeatureRow)
		if err != nil {
			return nil, err
		}
		timed("cache.build_s", rank, func() { _, err = builder.Build(ranking[:min(capacity, len(ranking))]) })
		if err != nil {
			return nil, err
		}
	}
	return ds, nil
}
