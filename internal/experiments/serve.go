package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"salientpp/internal/ckpt"
	"salientpp/internal/dataset"
	"salientpp/internal/metrics"
	"salientpp/internal/pipeline"
	"salientpp/internal/rng"
	"salientpp/internal/serve"
)

// Scale sizes the papers-sim analog and the real cluster that ServeBench
// and the ablations run on.
type Scale struct {
	PapersN int
	Batch   int
	Workers int
	Seed    uint64
	// Codec selects the feature-gather wire codec ("", "fp32", "fp16",
	// "int8") of the real distributed cluster ServeBench runs. The empty
	// string is the cluster default, fp16, or a checkpoint's codec.
	Codec string
}

// DefaultScale is the gnnserve default.
func DefaultScale() Scale {
	return Scale{PapersN: 200000, Batch: 128, Workers: 2, Seed: 7}
}

// SmallScale is used by unit tests and testing.B benchmarks.
func SmallScale() Scale {
	return Scale{PapersN: 20000, Batch: 32, Workers: 2, Seed: 7}
}

// ServeAlphaRow is one measured serving run at a fixed replication factor
// α: a closed-loop load generator drives the coalescing server with a
// same-seed workload, so rows differ only in the cache.
type ServeAlphaRow struct {
	Alpha         float64
	WallSeconds   float64
	Requests      int64
	ThroughputRPS float64

	// Latency quantiles, in seconds.
	P50, P95, P99 float64

	MeanBatch float64

	CacheHits     int64
	RemoteFetches int64
	CacheHitRate  float64
	BytesSent     int64
	// ComputeSeconds is cumulative forward-pass time across rounds.
	ComputeSeconds float64
}

// ServeBenchResult is the online-inference report: sustained closed-loop
// throughput and latency percentiles of the coalescing server across the
// cache-α sweep, on the real distributed data path (sampler → partitioned
// cache-aware gather → frozen-model forward). The workload is identical
// across rows — each client replays the same seeded vertex stream — so
// remote-fetch counts and hit rates are directly attributable to the cache.
type ServeBenchResult struct {
	Dataset           string
	Vertices          int
	K                 int
	Fanouts           []int
	Hidden            int
	MaxBatch          int
	MaxWaitMicros     int64
	Clients           int
	RequestsPerClient int
	Seed              uint64
	// Codec is the cluster's wire codec, which serving shares; each row's
	// BytesSent counts encoded wire bytes, so fp16/int8 shrink it at
	// identical remote-fetch counts.
	Codec    string
	MaxProcs int
	NumCPU   int
	Alphas   []ServeAlphaRow
}

// ServeConfig sizes the serving run.
type ServeConfig struct {
	// Alphas is the replication-factor sweep; nil uses {0, 0.08, 0.16, 0.32}.
	Alphas []float64
	// Clients is the closed-loop client count (default 8).
	Clients int
	// RequestsPerClient fixes the per-client request count (default 150),
	// making the workload identical across α rows.
	RequestsPerClient int
	// MaxBatch and MaxWaitMicros set the coalescing admission policy
	// (defaults 32 and 1000).
	MaxBatch      int
	MaxWaitMicros int64
	// UseTCP serves over loopback TCP instead of in-process channels.
	UseTCP bool
	// Checkpoint, when set, serves a frozen snapshot restored from this
	// checkpoint file (the format cmd/gnntrain -checkpoint-dir writes):
	// the cluster — dataset, partition layout, cache contents, wire codec,
	// trained weights, model dimensions — is rebuilt entirely from the
	// file instead of being trained fresh, and the α sweep collapses to
	// the checkpoint's own cache configuration. A non-empty Scale.Codec
	// must name the checkpoint's codec.
	Checkpoint string
}

func (c ServeConfig) withDefaults() ServeConfig {
	if len(c.Alphas) == 0 {
		c.Alphas = []float64{0, 0.08, 0.16, 0.32}
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.RequestsPerClient <= 0 {
		c.RequestsPerClient = 150
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxWaitMicros <= 0 {
		c.MaxWaitMicros = 1000
	}
	return c
}

// ServeBench builds a K=2 cluster on the papers-sim analog per α, freezes
// the model into a serving deployment, and drives it with closed-loop
// clients. Per-α clusters share the scale seed, so partitioning, VIP
// analysis, reordering, and the client vertex streams are identical — the
// only variable is cache capacity.
func ServeBench(scale Scale, cfg ServeConfig) (*ServeBenchResult, error) {
	cfg = cfg.withDefaults()
	var (
		ds    *dataset.Dataset
		dims  ModelDims
		k     = 2
		seed  = scale.Seed
		state *ckpt.TrainState
		err   error
	)
	if cfg.Checkpoint != "" {
		// Serving from a checkpoint: every run parameter that must match
		// the checkpointed training run — dataset identity, seed, batch
		// size, fanouts, K, and the hidden width (recovered from the saved
		// parameter shapes) — is reconstructed from the file itself, so
		// any gnntrain/gnnserve checkpoint is servable without replaying
		// its flags.
		state, err = ckpt.Load(cfg.Checkpoint)
		if err != nil {
			return nil, err
		}
		// Checkpoints record the codec's canonical name, which is the only
		// non-empty spelling ParseCodec accepts.
		if scale.Codec != "" && scale.Codec != state.Codec {
			return nil, fmt.Errorf("codec %q differs from the checkpoint's wire codec %q", scale.Codec, state.Codec)
		}
		ds, err = DatasetByName(state.Dataset, int(state.Topo.NumVertices), state.Seed)
		if err != nil {
			return nil, fmt.Errorf("regenerating the checkpointed dataset: %w", err)
		}
		k = int(state.Topo.K)
		seed = state.Seed
		scale.Batch = int(state.BatchSize)
		scale.Seed = state.Seed
		fanouts := make([]int, len(state.Fanouts))
		for i, f := range state.Fanouts {
			fanouts[i] = int(f)
		}
		// Layer 0's WSelf is inDim x hidden (x classes for a 1-layer
		// model, where the hidden width is unused anyway).
		dims = ModelDims{Hidden: int(state.Ranks[0].Params[0].Cols), Fanouts: fanouts}
	} else {
		ds, err = DatasetByName("papers-sim", scale.PapersN, scale.Seed)
		if err != nil {
			return nil, err
		}
		dims = PaperDims(ds.Name)
	}
	codec, err := pipeline.ClusterConfig{Codec: scale.Codec, Resume: state}.FeatureCodec()
	if err != nil {
		return nil, err
	}
	res := &ServeBenchResult{
		Dataset: ds.Name, Vertices: ds.NumVertices(),
		K: k, Fanouts: dims.Fanouts, Hidden: dims.Hidden,
		MaxBatch: cfg.MaxBatch, MaxWaitMicros: cfg.MaxWaitMicros,
		Clients: cfg.Clients, RequestsPerClient: cfg.RequestsPerClient,
		Seed: seed, Codec: codec.String(),
		MaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
	}
	if state != nil {
		// One row: the checkpoint's own cache configuration.
		alpha := float64(len(state.Topo.CacheIDs[0])*k) / float64(ds.NumVertices())
		row, err := serveOneAlpha(ds, scale, cfg, dims, k, alpha, state)
		if err != nil {
			return nil, fmt.Errorf("serve bench from checkpoint %s: %w", cfg.Checkpoint, err)
		}
		res.Alphas = append(res.Alphas, *row)
		return res, nil
	}
	for _, alpha := range cfg.Alphas {
		row, err := serveOneAlpha(ds, scale, cfg, dims, k, alpha, nil)
		if err != nil {
			return nil, fmt.Errorf("serve bench at alpha=%v: %w", alpha, err)
		}
		res.Alphas = append(res.Alphas, *row)
	}
	return res, nil
}

// serveClusterConfig is the cluster assembly serveOneAlpha uses. It is a
// named helper so the checkpoint-serving test trains its checkpoint with
// exactly this configuration (resume validation requires a match).
func serveClusterConfig(scale Scale, useTCP bool, dims ModelDims, k int, alpha float64) pipeline.ClusterConfig {
	return pipeline.ClusterConfig{
		K: k, Alpha: alpha, VIPReorder: true,
		Hidden: dims.Hidden, Layers: len(dims.Fanouts), UseTCP: useTCP,
		Codec: scale.Codec,
		Train: pipeline.Config{
			Fanouts: dims.Fanouts, BatchSize: scale.Batch, PipelineDepth: 10,
			SamplerWorkers: scale.Workers, Parallelism: scale.Workers,
			LR: 1e-3, Seed: scale.Seed,
		},
		ModelSeed: scale.Seed + 1,
	}
}

// serveOneAlpha assembles one cluster at the given α, freezes it into a
// serving deployment, and replays the seeded closed-loop workload.
func serveOneAlpha(ds *dataset.Dataset, scale Scale, cfg ServeConfig, dims ModelDims, k int, alpha float64, resume *ckpt.TrainState) (*ServeAlphaRow, error) {
	ccfg := serveClusterConfig(scale, cfg.UseTCP, dims, k, alpha)
	ccfg.Resume = resume
	cl, err := pipeline.NewCluster(ds, ccfg)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	srv, err := serve.New(cl, serve.Config{
		MaxBatch: cfg.MaxBatch,
		MaxWait:  time.Duration(cfg.MaxWaitMicros) * time.Microsecond,
		Seed:     scale.Seed,
		UseTCP:   cfg.UseTCP,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	n := ds.NumVertices()
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Clients)
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Same-seed vertex stream for every α row.
			r := rng.New(scale.Seed ^ 0x5eed).Split(uint64(c))
			out := make([]float32, srv.Classes())
			for i := 0; i < cfg.RequestsPerClient; i++ {
				if _, err := srv.Predict(int32(r.Intn(n)), out); err != nil {
					errCh <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	snap := srv.Snapshot()
	return &ServeAlphaRow{
		Alpha: alpha, WallSeconds: wall, Requests: snap.Requests,
		ThroughputRPS: float64(snap.Requests) / wall,
		P50:           snap.P50, P95: snap.P95, P99: snap.P99,
		MeanBatch: snap.MeanBatch,
		CacheHits: snap.CacheHits, RemoteFetches: snap.RemoteFetches,
		CacheHitRate: snap.CacheHitRate, BytesSent: snap.BytesSent,
		ComputeSeconds: snap.ComputeSeconds,
	}, nil
}

// RenderServeBench formats the α-sweep table.
func RenderServeBench(r *ServeBenchResult) string {
	t := metrics.NewTable(
		fmt.Sprintf("Online inference serving (%s, N=%d, K=%d, fanouts=%v, %d clients × %d reqs, maxbatch=%d, maxwait=%dµs, codec=%s, GOMAXPROCS=%d/%d CPUs)",
			r.Dataset, r.Vertices, r.K, r.Fanouts, r.Clients, r.RequestsPerClient, r.MaxBatch, r.MaxWaitMicros, r.Codec, r.MaxProcs, r.NumCPU),
		"α", "req/s", "p50 (ms)", "p95 (ms)", "p99 (ms)", "mean batch", "hit rate", "remote rows", "MB sent", "compute (s)")
	for _, row := range r.Alphas {
		t.AddRow(
			fmt.Sprintf("%.2f", row.Alpha),
			fmt.Sprintf("%.0f", row.ThroughputRPS),
			fmt.Sprintf("%.3f", row.P50*1e3),
			fmt.Sprintf("%.3f", row.P95*1e3),
			fmt.Sprintf("%.3f", row.P99*1e3),
			fmt.Sprintf("%.2f", row.MeanBatch),
			fmt.Sprintf("%.3f", row.CacheHitRate),
			row.RemoteFetches,
			fmt.Sprintf("%.2f", float64(row.BytesSent)/1e6),
			fmt.Sprintf("%.4f", row.ComputeSeconds))
	}
	return t.String()
}
