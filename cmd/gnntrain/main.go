// Command gnntrain runs real end-to-end distributed GraphSAGE training on
// the synthetic analogs (the §5.3 accuracy experiment): K in-process
// machines with partitioned features, VIP caching and reordering, the
// deep minibatch pipeline, and synchronous gradient all-reduce.
//
// Fault tolerance: -checkpoint-dir enables coordinated checkpoints
// (atomic rename-into-place, retain-K rotation) covering the complete
// training state — weights, Adam moments, RNG streams, epoch/round cursor,
// and the partition/VIP/cache topology. -resume restores the newest valid
// checkpoint and continues bitwise identically to an uninterrupted run.
// -elastic goes further: a rank that dies mid-run becomes a live
// membership change — the survivors detect the stall (-stall-timeout),
// agree on the newest checkpoint they all hold, absorb the dead rank's
// shard and cache slice, and continue on K-1 machines.
//
// Example:
//
//	gnntrain -dataset products-sim -n 8000 -k 2 -epochs 5
//	gnntrain -dataset products-sim -checkpoint-dir ckpts -checkpoint-every-rounds 50
//	gnntrain -dataset products-sim -checkpoint-dir ckpts -resume
//	gnntrain -dataset products-sim -k 3 -checkpoint-dir ckpts -elastic -stall-timeout 5s
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"salientpp"
	"salientpp/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gnntrain: ")
	var (
		datasets = flag.String("dataset", "products-sim,papers-sim,mag240-sim", "datasets (comma separated)")
		n        = flag.Int("n", 8000, "vertices per dataset")
		k        = flag.Int("k", 2, "machines")
		alpha    = flag.Float64("alpha", 0.32, "replication factor")
		hidden   = flag.Int("hidden", 32, "hidden dimension")
		batch    = flag.Int("batch", 64, "per-machine batch size")
		epochs   = flag.Int("epochs", 5, "training epochs")
		lr       = flag.Float64("lr", 0.005, "Adam learning rate")
		seed     = flag.Uint64("seed", 3, "random seed")
	)
	// The codec/parallelism/checkpoint surface is the unified
	// salientpp.RunConfig, so gnntrain and gnnserve spell it identically.
	run := salientpp.RunConfig{Checkpoint: salientpp.CheckpointConfig{Retain: 3}}
	run.RegisterFlags(flag.CommandLine)
	run.RegisterCheckpointFlags(flag.CommandLine)
	run.RegisterTrainFlags(flag.CommandLine)
	flag.Parse()
	if err := run.Validate(); err != nil {
		log.Fatal(err)
	}

	cfg := experiments.DefaultAccuracyConfig()
	cfg.Datasets = strings.Split(*datasets, ",")
	for i := range cfg.Datasets {
		cfg.Datasets[i] = strings.TrimSpace(cfg.Datasets[i])
	}
	cfg.N = *n
	cfg.K = *k
	cfg.Alpha = *alpha
	cfg.Hidden = *hidden
	cfg.Batch = *batch
	cfg.Epochs = *epochs
	cfg.LR = *lr
	cfg.Seed = *seed
	cfg.Codec = run.Codec
	cfg.GradCodec = run.GradCodec
	cfg.Parallelism = run.Parallelism
	cfg.Checkpoint = run.Checkpoint
	cfg.Resume = run.Resume
	cfg.Elastic = run.Elastic
	cfg.StallTimeout = run.StallTimeout

	rows, err := experiments.Accuracy(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(experiments.RenderAccuracy(rows))
}
