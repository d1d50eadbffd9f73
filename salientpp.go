// Package salientpp is a from-scratch Go reproduction of SALIENT++
// (Kaler et al., "Communication-Efficient Graph Neural Networks with
// Probabilistic Neighborhood Expansion Analysis and Caching", MLSys 2023):
// distributed GNN minibatch training with partitioned vertex features,
// vertex-inclusion-probability (VIP) analysis, VIP-driven static caching
// of remote features, VIP-ordered partitions, and a deep
// minibatch-preparation pipeline. The paper keeps each partition's
// high-VIP prefix in GPU memory; this CPU-only reproduction orders
// partitions by VIP but keeps no device tier.
//
// This root package is the facade over the implementation packages:
//
//   - internal/rng        — splittable seeded PRNG, zipf load sampler
//   - internal/graph      — CSR graphs, generators, reordering
//   - internal/dataset    — synthetic OGB analogs (Table 2)
//   - internal/partition  — multilevel multi-constraint edge-cut partitioner
//   - internal/vip        — Proposition 1 (the paper's core analysis)
//   - internal/cache      — the seven caching policies of Figure 2
//   - internal/sample     — node-wise neighborhood sampling and MFGs
//   - internal/tensor,nn  — dense float32 tensors and GraphSAGE fwd/bwd
//   - internal/dist       — transports, collectives, partitioned feature
//     store, wire codecs, compressed gradient all-reduce, chaos injection
//   - internal/pipeline   — the §4.1 placement and the real 10-stage
//     training pipeline (§4.3)
//   - internal/ckpt       — versioned coordinated checkpoints and restore
//   - internal/serve      — online inference with request coalescing
//   - internal/simnet     — bandwidth/latency/token-bucket link models
//   - internal/metrics    — text tables and histograms for the harnesses
//   - internal/experiments— Figure 2, the accuracy runs, ablations, and
//     the serving benchmark
//
// docs/ARCHITECTURE.md maps these packages onto the train and serve data
// flows and lists where each guarantee is pinned by a test. The quickest
// tour is examples/quickstart; examples/optimization-ladder measures the
// paper's Table 1 on the real stack. Speed is measured by the repository
// benchmark, the separate bench/ module (run it with bash bench/run.sh;
// see bench/README.md).
package salientpp

import (
	"salientpp/internal/cache"
	"salientpp/internal/ckpt"
	"salientpp/internal/dataset"
	"salientpp/internal/graph"
	"salientpp/internal/partition"
	"salientpp/internal/pipeline"
	"salientpp/internal/serve"
	"salientpp/internal/vip"
)

// Re-exported core types. These aliases are the supported public surface;
// the internal packages remain free to grow without breaking users.
type (
	// Graph is a compressed-sparse-row undirected graph.
	Graph = graph.CSR
	// Dataset bundles a graph with features, labels, and splits.
	Dataset = dataset.Dataset
	// PartitionResult is a K-way vertex partition with quality metrics.
	PartitionResult = partition.Result
	// VIPConfig parametrizes Proposition 1.
	VIPConfig = vip.Config
	// CachePolicy ranks remote vertices for the setup-time cache.
	CachePolicy = cache.Ranker
	// CacheEpoch is one immutable installed version of a rank's cache.
	CacheEpoch = cache.Epoch
	// Cluster is an in-process K-machine SALIENT++ deployment.
	Cluster = pipeline.Cluster
	// ClusterConfig configures NewCluster.
	ClusterConfig = pipeline.ClusterConfig
	// TrainConfig configures the per-rank training loop.
	TrainConfig = pipeline.Config
	// Server coalesces concurrent per-vertex prediction requests into
	// sampled micro-batches over a frozen model snapshot.
	Server = serve.Server
	// ServeConfig configures the coalescing admission policy.
	ServeConfig = serve.Config
	// ServeStats is the per-request latency accounting Predict returns.
	ServeStats = serve.Stats
	// CheckpointConfig configures coordinated fault-tolerance checkpoints
	// (ClusterConfig.Checkpoint): trigger cadence, directory, rotation.
	CheckpointConfig = ckpt.Config
	// TrainState is a complete restored checkpoint (ClusterConfig.Resume):
	// weights, Adam moments, RNG streams, the epoch/round cursor, and the
	// partition/VIP/cache topology.
	TrainState = ckpt.TrainState
	// ElasticReport summarizes an elastic run: stall/regroup/replay
	// counters, the final member set, per-epoch stats, and one
	// RegroupEvent per membership change.
	ElasticReport = pipeline.ElasticReport
	// RegroupEvent records one membership change: the consensus resume
	// step, the surviving original ranks, and the shrunk training state
	// the survivors continued from.
	RegroupEvent = pipeline.RegroupEvent
)

// ErrShed is returned by Server.Predict when deadline-aware admission
// control (ServeConfig.Deadline) concludes the request cannot be answered
// within its budget. Shedding is always explicit — an overloaded server
// answers every request with either a prediction or ErrShed, never
// silence — so callers can back off and retry.
var ErrShed = serve.ErrShed

// ErrShrinkAborted is returned by TrainElastic when a recovery attempt
// would leave fewer than two survivors answering the probe: a single rank
// has no distribution left to train. The run stops rather than continuing
// on a membership it cannot use.
var ErrShrinkAborted = pipeline.ErrShrinkAborted

// NewPapersDataset generates the scaled ogbn-papers100M analog with n
// vertices (features materialized when materialize is true).
func NewPapersDataset(n int, materialize bool, seed uint64) (*Dataset, error) {
	return dataset.PapersSim(n, materialize, seed)
}

// NewProductsDataset generates the scaled ogbn-products analog.
func NewProductsDataset(n int, materialize bool, seed uint64) (*Dataset, error) {
	return dataset.ProductsSim(n, materialize, seed)
}

// NewMag240Dataset generates the scaled mag240 papers-citation analog.
func NewMag240Dataset(n int, materialize bool, seed uint64) (*Dataset, error) {
	return dataset.Mag240Sim(n, materialize, seed)
}

// PartitionGraph computes a K-way edge-cut partition with the paper's
// balance constraints derived from the dataset splits — the partition
// NewCluster places its ranks on.
func PartitionGraph(ds *Dataset, k int, seed uint64) (*PartitionResult, error) {
	return partition.Partition(ds.Graph, partition.Config{K: k, Weights: pipeline.SplitWeights(ds), Seed: seed})
}

// VIPProbabilities runs Proposition 1 for one partition's minibatch
// distribution and returns per-vertex inclusion probabilities. Set
// cfg.Workers to bound the sharded parallel propagation (0 uses
// GOMAXPROCS); the result is bitwise-identical for every worker count.
// The analogous training-side knobs are TrainConfig.SamplerWorkers (batch
// preparation) and TrainConfig.Parallelism (setup-time analysis).
func VIPProbabilities(g *Graph, trainIDs []int32, cfg VIPConfig) ([]float64, error) {
	p0 := vip.UniformSeeds(g.NumVertices(), trainIDs, cfg.BatchSize)
	res, err := vip.Probabilities(g, p0, cfg, false)
	if err != nil {
		return nil, err
	}
	return res.P, nil
}

// NewCluster assembles a ready-to-train in-process SALIENT++ deployment:
// the §4.1 placement (partitioning, VIP analysis, vertex reordering, each
// rank's training vertices), cache construction, feature sharding,
// communicators, and per-rank models.
func NewCluster(ds *Dataset, cfg ClusterConfig) (*Cluster, error) {
	return pipeline.NewCluster(ds, cfg)
}

// TrainElastic trains for the given number of epochs while surviving rank
// failures: every training collective is bounded by
// ClusterConfig.StallTimeout; on a stall each rank is probed, the
// survivors agree on the newest checkpoint they all hold, absorb the dead
// rank's feature shard and VIP cache slice, and continue on K-1 machines —
// bitwise identical to a cold K-1 restart from that same checkpoint. The
// same timeout bounds each probe and the agreement; a run absorbs at most
// K-1 failures and never shrinks below two ranks. Requires
// ClusterConfig.Checkpoint to be enabled. The returned cluster is still
// open (evaluate on it, then Close); the report carries the recovery
// counters and per-epoch stats.
func TrainElastic(ds *Dataset, cfg ClusterConfig, epochs int) (*Cluster, *ElasticReport, error) {
	return pipeline.TrainElastic(ds, cfg, epochs)
}

// NewServer builds an online-inference server over a cluster: per rank, a
// sibling feature store sharing the read-only shard and cache, a frozen
// snapshot of the rank's model, and a coalescing admission queue. The
// cluster may keep training afterwards; predictions come from the
// snapshot.
func NewServer(cl *Cluster, cfg ServeConfig) (*Server, error) {
	return serve.New(cl, cfg)
}

// LoadCheckpoint decodes and validates the checkpoint at path (the
// CRC-checked binary format of internal/ckpt). Pass the result as
// ClusterConfig.Resume to continue the run bitwise identically, or build a
// cluster from it and hand that to NewServer to serve the snapshot.
func LoadCheckpoint(path string) (*TrainState, error) { return ckpt.Load(path) }

// LoadLatestCheckpoint loads the newest valid checkpoint in dir, skipping
// torn or corrupt files, and reports which file it used.
func LoadLatestCheckpoint(dir string) (*TrainState, string, error) { return ckpt.LoadLatest(dir) }

// WireCodecs lists the supported feature-gather wire codecs in order of
// increasing compression: "fp32" (raw), "fp16" (half-precision rows +
// varint delta id lists, ~50% smaller; the default an empty
// ClusterConfig.Codec selects), and "int8" (per-row-scaled 8-bit rows, ~75%
// smaller). Set ClusterConfig.Codec to one of these; a server built on the
// cluster shares it. Lossy codecs never change which
// rows are fetched, only the bytes each row costs on the wire. See the README's
// "Communication efficiency" section for when int8 is safe.
func WireCodecs() []string { return []string{"fp32", "fp16", "int8"} }

// VIPCachePolicy returns the paper's analytic caching policy.
func VIPCachePolicy() CachePolicy { return cache.VIP{} }

// CachePolicies returns the full Figure 2 policy registry.
func CachePolicies(simEpochs, oracleEpochs int, oracleSeed uint64) []CachePolicy {
	return cache.Registry(simEpochs, oracleEpochs, oracleSeed)
}
