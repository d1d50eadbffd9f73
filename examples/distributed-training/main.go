// Distributed training: trains the same model twice on a 4-machine
// in-process cluster — once without a remote-feature cache and once with
// a cache of α = 0.32 (VIP at setup, then each epoch's planned schedule) —
// demonstrating that caching removes most feature communication without
// changing the learning trajectory. Pass -tcp to
// run the feature and gradient collectives over real loopback TCP instead
// of in-process channels.
//
// Run with:
//
//	go run ./examples/distributed-training [-tcp]
package main

import (
	"flag"
	"fmt"
	"log"

	"salientpp"
	"salientpp/internal/dataset"
)

// Explicit seeds for every random stream: the dataset generator, the
// per-rank sampling/dropout streams, and the model initialization. The
// with/without-cache comparison below relies on them being identical
// across the two runs.
const (
	dataSeed  = 9
	trainSeed = 21
	modelSeed = 5
)

func main() {
	log.SetFlags(0)
	useTCP := flag.Bool("tcp", false, "use loopback TCP transports")
	flag.Parse()

	ds, err := salientpp.NewProductsDataset(6000, true, dataSeed)
	if err != nil {
		log.Fatal(err)
	}
	transport := "in-process channels"
	if *useTCP {
		transport = "loopback TCP"
	}
	fmt.Printf("dataset %s on 4 machines over %s\n\n", ds.Name, transport)

	run := func(alpha float64) (finalLoss, valAcc float64, remote, wire, hits int64) {
		cluster, err := salientpp.NewCluster(ds, salientpp.ClusterConfig{
			K: 4, Alpha: alpha, VIPReorder: true,
			Hidden: 32, Layers: 2, UseTCP: *useTCP,
			Train: salientpp.TrainConfig{
				Fanouts: []int{10, 5}, BatchSize: 64,
				PipelineDepth: 10, SamplerWorkers: 2, LR: 0.01, Seed: trainSeed,
			},
			ModelSeed: modelSeed,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer cluster.Close()
		for epoch := 0; epoch < 4; epoch++ {
			stats, err := cluster.TrainEpochAll(epoch)
			if err != nil {
				log.Fatal(err)
			}
			finalLoss = 0
			remote, wire, hits = 0, 0, 0
			for _, s := range stats {
				finalLoss += s.Loss / float64(len(stats))
				remote += int64(s.Gather.RemoteFetch)
				wire += int64(s.Gather.RemoteFetch - s.Gather.Reused)
				hits += int64(s.Gather.CacheHits)
			}
		}
		valAcc, err = cluster.EvaluateAll(dataset.SplitVal, []int{15, 15}, 64, 0)
		if err != nil {
			log.Fatal(err)
		}
		return finalLoss, valAcc, remote, wire, hits
	}

	lossNo, accNo, remoteNo, wireNo, _ := run(0)
	lossC, accC, remoteC, wireC, hitsC := run(0.32)

	fmt.Printf("%-18s %-12s %-10s %-14s %-16s %s\n", "configuration", "final loss", "val acc", "remote/epoch", "wire rows/epoch", "cache hits/epoch")
	fmt.Printf("%-18s %-12.3f %-10.3f %-14d %-16d %d\n", "no cache (α=0)", lossNo, accNo, remoteNo, wireNo, 0)
	fmt.Printf("%-18s %-12.3f %-10.3f %-14d %-16d %d\n", "cache (α=0.32)", lossC, accC, remoteC, wireC, hitsC)
	fmt.Printf("\ncommunication reduction: %.1fx fewer rows on the wire; training quality unchanged (same seeds, same trajectory)\n",
		float64(wireNo)/float64(wireC))
}
