// Quickstart: the complete SALIENT++ workflow in ~60 lines — generate a
// synthetic dataset, inspect a partition, compute VIP values, assemble a
// 2-machine in-process cluster with a VIP cache, train a few epochs, and
// evaluate with sampled inference.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"salientpp"
	"salientpp/internal/dataset"
)

// seed pins the dataset and partition; the training loop's own streams
// are seeded in TrainConfig below, so the whole run is reproducible.
const seed = 42

func main() {
	log.SetFlags(0)

	// 1. A scaled ogbn-products analog with materialized features.
	ds, err := salientpp.NewProductsDataset(4000, true, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset %s: %d vertices, %d edges, %d features, %d train\n",
		ds.Name, ds.NumVertices(), ds.Graph.NumEdges(), ds.FeatureDim, ds.CountSplit(dataset.SplitTrain))

	// 2. Partition with the paper's balance constraints.
	part, err := salientpp.PartitionGraph(ds, 2, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2-way partition: edge cut %d (%.1f%% of edges), sizes %v\n",
		part.EdgeCut, 100*part.CutFraction(ds.Graph), part.PartSizes())

	// 3. VIP analysis (Proposition 1): probability that each vertex appears
	// in a sampled 2-hop neighborhood of a minibatch.
	vip, err := salientpp.VIPProbabilities(ds.Graph, ds.TrainIDs(), salientpp.VIPConfig{
		Fanouts: []int{10, 5}, BatchSize: 64,
	})
	if err != nil {
		log.Fatal(err)
	}
	hot, cold := 0, 0
	for _, p := range vip {
		if p > 0.5 {
			hot++
		} else if p < 0.01 {
			cold++
		}
	}
	fmt.Printf("VIP: %d hot vertices (p>0.5), %d cold (p<0.01) of %d\n", hot, cold, len(vip))

	// 4. A 2-machine cluster: partitioned features, VIP reordering,
	// VIP-ranked remote cache at replication factor 0.2, deep pipeline.
	cluster, err := salientpp.NewCluster(ds, salientpp.ClusterConfig{
		K: 2, Alpha: 0.2, VIPReorder: true,
		Hidden: 32, Layers: 2,
		Train: salientpp.TrainConfig{
			Fanouts: []int{10, 5}, BatchSize: 64,
			PipelineDepth: 10, SamplerWorkers: 2, LR: 0.01, Seed: 1,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// 5. Train.
	for epoch := 0; epoch < 4; epoch++ {
		stats, err := cluster.TrainEpochAll(epoch)
		if err != nil {
			log.Fatal(err)
		}
		var loss float64
		var remote, wire, hits int
		for _, s := range stats {
			loss += s.Loss / float64(len(stats))
			remote += s.Gather.RemoteFetch
			wire += s.Gather.RemoteFetch - s.Gather.Reused
			hits += s.Gather.CacheHits
		}
		fmt.Printf("epoch %d: loss %.3f, remote fetches %d (%d on the wire), cache hits %d\n", epoch, loss, remote, wire, hits)
	}

	// 6. Sampled inference on the validation split.
	acc, err := cluster.EvaluateAll(dataset.SplitVal, []int{15, 15}, 64, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("validation accuracy: %.3f\n", acc)
}
