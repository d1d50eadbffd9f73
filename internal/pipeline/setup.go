package pipeline

import (
	"fmt"
	"time"

	"salientpp/internal/cache"
	"salientpp/internal/ckpt"
	"salientpp/internal/dataset"
	"salientpp/internal/dist"
	"salientpp/internal/graph"
	"salientpp/internal/nn"
	"salientpp/internal/sample"
	"salientpp/internal/tensor"
)

// ClusterConfig assembles a full SALIENT++ deployment inside one process:
// partitioning, VIP analysis, vertex reordering, cache construction,
// feature sharding, and per-rank models with identical initial weights.
type ClusterConfig struct {
	K int
	// Alpha is the replication factor (0 disables remote caching).
	Alpha float64
	// GPUFraction has no effect: this reproduction keeps no device tier.
	// NewCluster rejects any value other than 0 or 1.
	//
	// Deprecated: removed together with the last caller that sets it, the
	// benchmark's workload set-up.
	GPUFraction float64
	// VIPReorder orders each partition's local vertices by descending VIP
	// value; false keeps the arbitrary post-partition order ("no
	// reorder").
	VIPReorder bool
	// Hidden, Layers, Dropout, and Train configure the model and loop.
	Hidden  int
	Layers  int
	Dropout float64
	Train   Config
	// ModelSeed fixes initial weights across ranks.
	ModelSeed uint64
	// UseTCP selects the loopback TCP transport instead of in-process
	// channels.
	UseTCP bool
	// Codec selects the feature-gather wire codec for the cluster's comm
	// group: "fp32" (raw, byte-identical to the historical wire format),
	// "fp16" (half-precision rows + varint delta id lists), or "int8"
	// (per-row-scaled int8 rows + varint delta id lists). "" means fp16;
	// on resume the checkpoint's (see FeatureCodec). All ranks share the
	// setting — it is the comm group's negotiated codec. Lossy codecs
	// change gathered remote feature values (never which rows move), so
	// the codec is part of the run identity checkpoints pin.
	Codec string
	// Checkpoint enables coordinated fault-tolerance checkpoints (see
	// internal/ckpt): barrier-consistent saves every EveryRounds retired
	// rounds and/or every EveryEpochs epoch boundaries, written atomically
	// (temp file + rename) with retain-K rotation. Every checkpoint is
	// self-contained: it carries the partition topology and cache contents
	// alongside per-rank weights, Adam moments, and RNG streams.
	Checkpoint ckpt.Config
	// Resume restores a checkpointed run. The saved topology (vertex
	// permutation, partition layout, per-rank cache contents) replaces
	// partitioning, VIP analysis, and cache ranking — restore skips
	// re-analysis entirely — and per-rank weights/optimizer/RNG state are
	// loaded so training continues bitwise identically from the saved
	// epoch/round cursor. The dataset and the training configuration
	// (fanouts, batch size, seeds, K) must match the checkpointed run;
	// VIPReorder is ignored because the topology is pinned. Drive epochs
	// starting at FirstEpoch().
	Resume *ckpt.TrainState
	// WrapComm, when non-nil, wraps each rank's communicators before the
	// store and training loop are built. This is the crash-recovery
	// harness's fault-injection point: wrap with Comms that fail at a
	// chosen collective to kill a rank at an arbitrary batch (a realistic
	// kill closes both groups, as a dying machine would, so peers unwind
	// instead of deadlocking in the gradient all-reduce). Production
	// deployments leave it nil.
	WrapComm func(rank int, feat, grad dist.Comm) (dist.Comm, dist.Comm)
	// StallTimeout, when > 0, arms a deadline on every training collective
	// (feature gathers and gradient all-reduces alike): a collective that
	// makes no progress for this long fails with dist.ErrTimeout and poisons
	// its group instead of hanging the epoch. This is the detection half of
	// elastic training — TrainElastic classifies the failure, probes the
	// survivors, and regroups. Zero leaves collectives unbounded (the
	// historical behavior; a dead peer hangs the loop).
	StallTimeout time.Duration
}

// FeatureCodec resolves Codec. An empty Codec is the checkpoint's codec
// when resuming and fp16 otherwise; an explicit one must parse (and, on
// resume, match the checkpoint, which validateResume checks).
func (cfg ClusterConfig) FeatureCodec() (dist.Codec, error) {
	name := cfg.Codec
	if name == "" {
		name = dist.CodecFP16.String()
		if cfg.Resume != nil {
			name = cfg.Resume.Codec
		}
	}
	return dist.ParseCodec(name)
}

// Cluster is a ready-to-train in-process deployment.
type Cluster struct {
	Ranks []*Rank
	// Placement is what the ranks were built on: the relabelled dataset
	// they share (read-only), its layout, partition and permutation, and
	// each rank's training vertices.
	*Placement

	commFeat []dist.Comm
	commGrad []dist.Comm
	resume   *ckpt.TrainState // pending resume cursor; consumed by TrainEpochAll
}

// FirstEpoch returns the epoch TrainEpochAll should be driven from: the
// checkpoint's epoch when the cluster was built with Resume, 0 otherwise.
func (c *Cluster) FirstEpoch() int {
	if c.resume != nil {
		return c.resume.Step.Epoch
	}
	return 0
}

// Close releases communicators.
func (c *Cluster) Close() { closeComms(c.commFeat, c.commGrad) }

// newGroups builds a K-member cluster's two communicator groups: features
// and gradients are separate, like NCCL streams.
func newGroups(k int, tcp bool) (feat, grad []dist.Comm, err error) {
	if feat, err = dist.NewGroup(k, tcp); err != nil {
		return nil, nil, err
	}
	if grad, err = dist.NewGroup(k, tcp); err != nil {
		closeComms(feat)
		return nil, nil, err
	}
	return feat, grad, nil
}

// closeComms closes every communicator of the given groups.
func closeComms(groups ...[]dist.Comm) {
	for _, g := range groups {
		for _, c := range g {
			c.Close()
		}
	}
}

// NewCluster builds the deployment from a materialized dataset.
func NewCluster(ds *dataset.Dataset, cfg ClusterConfig) (*Cluster, error) {
	if !ds.HasFeatures() {
		return nil, fmt.Errorf("pipeline: dataset must be materialized for training")
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("pipeline: K = %d", cfg.K)
	}
	if cfg.GPUFraction != 0 && cfg.GPUFraction != 1 {
		return nil, fmt.Errorf("pipeline: GPUFraction %v: the device split is gone, every local row is read alike", cfg.GPUFraction)
	}
	if cfg.Hidden == 0 {
		cfg.Hidden = 64
	}
	if cfg.Layers == 0 {
		cfg.Layers = len(cfg.Train.Fanouts)
	}
	codec, err := cfg.FeatureCodec()
	if err != nil {
		return nil, err
	}
	gradCodec, err := dist.ParseCodec(cfg.Train.GradCodec)
	if err != nil {
		return nil, fmt.Errorf("pipeline: gradient codec: %w", err)
	}

	// The §4.1 placement (partitioning, VIP analysis, reordering) runs
	// only for fresh clusters; a Resume restores it from the checkpoint
	// topology instead, skipping the re-analysis entirely.
	var pl *Placement
	if cfg.Resume != nil {
		topo := cfg.Resume.Topo
		if err := validateResume(ds, cfg, codec, gradCodec, cfg.Resume); err != nil {
			return nil, err
		}
		perm := graph.Permutation(append([]int32(nil), topo.Perm...))
		starts := append([]int64(nil), topo.Starts...)
		parts := append([]int32(nil), topo.Parts...)
		pl, err = place(ds, perm, starts, parts, cfg.Train.BatchSize)
	} else {
		pl, err = Place(ds, nil, cfg.K, cfg.Train.Fanouts, cfg.Train.BatchSize, cfg.VIPReorder, cfg.Train.Seed, cfg.Train.Parallelism)
	}
	if err != nil {
		return nil, err
	}
	if cfg.Resume != nil && cfg.Resume.Rounds != pl.Rounds {
		return nil, fmt.Errorf("pipeline: checkpoint has %d rounds per epoch, this configuration derives %d (batch size or dataset drifted)",
			cfg.Resume.Rounds, pl.Rounds)
	}
	rds := pl.Data

	// Communicator groups. From here on every error return closes them.
	commFeat, commGrad, err := newGroups(cfg.K, cfg.UseTCP)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{Placement: pl, commFeat: commFeat, commGrad: commGrad, resume: cfg.Resume}
	built := false
	defer func() {
		if !built {
			cl.Close()
		}
	}()

	// Per-rank stores, models, ranks.
	capacity := cache.CapacityForAlpha(cfg.Alpha, ds.NumVertices(), cfg.K)
	refModel, err := nn.NewModel(rds.FeatureDim, cfg.Hidden, rds.NumClasses, cfg.Layers, cfg.Dropout, cfg.ModelSeed)
	if err != nil {
		return nil, err
	}

	dim, trainIDs := rds.FeatureDim, rds.TrainIDs()
	cacheIDs := make([][]int32, cfg.K)
	for rank := 0; rank < cfg.K; rank++ {
		// Local shard: a row view of the relabelled features, since a
		// partition is a contiguous id interval and no store writes its
		// shard.
		lo, hi := int(pl.Layout.Starts[rank]), int(pl.Layout.Starts[rank+1])
		local := &tensor.Matrix{Rows: hi - lo, Cols: dim, Data: rds.Features[lo*dim : hi*dim : hi*dim]}

		// Remote cache: restored verbatim from the checkpoint topology, or
		// the top of the VIP ranking (reordered id space) on a fresh
		// cluster. Feature rows are always rehydrated from the dataset —
		// checkpoints store cache membership, not feature bytes — through
		// the wire codec, so a cached row holds exactly what a fetch of it
		// would deliver (a no-op copy under fp32). A resumed epoch's
		// scheduled cache rehydrates the members it never gathered the same
		// way.
		rowBuf := make([]float32, dim)
		row := func(v int32) []float32 {
			codec.RoundTripRow(rowBuf, rds.FeatureRow(v))
			return rowBuf
		}
		var ids []int32
		if cfg.Resume != nil {
			ids = cfg.Resume.Topo.CacheIDs[rank]
		} else if capacity > 0 {
			// cache.Context shares the vip.Config convention: Workers 0
			// means GOMAXPROCS, so Parallelism passes through untouched.
			ctx := &cache.Context{
				G: rds.Graph, Parts: pl.Parts, K: cfg.K, Part: int32(rank),
				TrainIDs: trainIDs, Fanouts: cfg.Train.Fanouts,
				BatchSize: cfg.Train.BatchSize, Seed: cfg.Train.Seed + uint64(rank),
				Workers: cfg.Train.Parallelism,
			}
			ranking, err := cache.VIP{}.Rank(ctx)
			if err != nil {
				return nil, err
			}
			ids = ranking[:min(capacity, len(ranking))]
		}
		ep := &cache.Epoch{}
		if len(ids) > 0 {
			builder, err := cache.NewEpochBuilder(ds.NumVertices(), dim, row)
			if err != nil {
				return nil, err
			}
			if ep, err = builder.Build(ids); err != nil {
				return nil, err
			}
		}
		cacheIDs[rank] = ep.IDs()

		fc, gc := commFeat[rank], commGrad[rank]
		if cfg.WrapComm != nil {
			fc, gc = cfg.WrapComm(rank, fc, gc)
		}
		if cfg.StallTimeout > 0 {
			fc.SetTimeout(cfg.StallTimeout)
			gc.SetTimeout(cfg.StallTimeout)
		}
		store, err := dist.NewStore(fc, pl.Layout, rds.FeatureDim, local, ep)
		if err != nil {
			return nil, err
		}
		store.SetCodec(codec)
		smp, err := sample.NewSampler(rds.Graph, cfg.Train.Fanouts)
		if err != nil {
			return nil, err
		}
		model, err := nn.NewModel(rds.FeatureDim, cfg.Hidden, rds.NumClasses, cfg.Layers, cfg.Dropout, cfg.ModelSeed+uint64(rank)+1)
		if err != nil {
			return nil, err
		}
		if err := model.CopyWeightsFrom(refModel); err != nil {
			return nil, err
		}
		rk, err := NewRank(cfg.Train, fc, gc, store, smp, model, pl.TrainPer[rank], rds.Labels, pl.Rounds)
		if err != nil {
			return nil, err
		}
		if cfg.Resume != nil {
			if err := rk.RestoreState(cfg.Resume.Ranks[rank]); err != nil {
				return nil, err
			}
		}
		if rk.sched != nil {
			rk.sched.rehydrate = row
		}
		cl.Ranks = append(cl.Ranks, rk)
	}

	// Coordinated checkpointing: one saver shared by all ranks, primed with
	// the run's identity and topology so every checkpoint file is
	// self-contained.
	if cfg.Checkpoint.Enabled() {
		fanouts := make([]int32, len(cfg.Train.Fanouts))
		for i, f := range cfg.Train.Fanouts {
			fanouts[i] = int32(f)
		}
		saver, err := ckpt.NewSaver(cfg.Checkpoint, &ckpt.TrainState{
			Rounds:    pl.Rounds,
			Dataset:   ds.Name,
			Seed:      cfg.Train.Seed,
			BatchSize: int32(cfg.Train.BatchSize),
			Fanouts:   fanouts,
			Codec:     codec.String(),
			GradCodec: gradCodec.String(),
			Topo: &ckpt.Topology{
				NumVertices: int64(ds.NumVertices()),
				FeatureDim:  int32(rds.FeatureDim),
				K:           int32(cfg.K),
				Perm:        pl.Perm,
				Starts:      pl.Layout.Starts,
				Parts:       pl.Parts,
				CacheIDs:    cacheIDs,
			},
		})
		if err != nil {
			return nil, err
		}
		for _, rk := range cl.Ranks {
			rk.SetCheckpointer(saver)
		}
	}
	built = true
	return cl, nil
}

// validateResume checks a checkpoint against the dataset and configuration
// it is being restored into; codec and gradCodec are the configuration's
// resolved wire and gradient codecs.
func validateResume(ds *dataset.Dataset, cfg ClusterConfig, codec, gradCodec dist.Codec, st *ckpt.TrainState) error {
	if err := st.Validate(); err != nil {
		return err
	}
	topo := st.Topo
	if int(topo.K) != cfg.K {
		return fmt.Errorf("pipeline: checkpoint was taken with K=%d, configuration says K=%d", topo.K, cfg.K)
	}
	// The dataset name guards against resuming one run's topology and
	// weights on another generated dataset that happens to share its shape
	// (papers-sim and mag240-sim do at equal N); seed, batch size, and
	// fanouts determine the batch permutation and per-batch sampling
	// streams, so drift in any of them would silently replay different
	// batches against the restored mid-epoch statistics.
	if st.Dataset != ds.Name {
		return fmt.Errorf("pipeline: checkpoint was taken on dataset %q, configuration supplies %q", st.Dataset, ds.Name)
	}
	if st.Seed != cfg.Train.Seed {
		return fmt.Errorf("pipeline: checkpoint was taken with seed %d, configuration says %d", st.Seed, cfg.Train.Seed)
	}
	// The wire codec is run identity too: a lossy codec perturbs every
	// gathered remote feature row, so resuming an fp16 run under fp32 (or
	// vice versa) would silently diverge from the checkpointed trajectory.
	// An empty Codec adopts the checkpoint's; an explicit one must match.
	if st.Codec != codec.String() {
		return fmt.Errorf("pipeline: checkpoint was taken with wire codec %q, configuration says %q", st.Codec, codec.String())
	}
	// The gradient codec is run identity exactly like the gather codec: a
	// lossy gradient reduce perturbs every optimizer step and carries
	// error-feedback residual state that only means anything under the
	// codec that produced it.
	if st.GradCodec != gradCodec.String() {
		return fmt.Errorf("pipeline: checkpoint was taken with gradient codec %q, configuration says %q", st.GradCodec, gradCodec.String())
	}
	if int(st.BatchSize) != cfg.Train.BatchSize {
		return fmt.Errorf("pipeline: checkpoint was taken with batch size %d, configuration says %d", st.BatchSize, cfg.Train.BatchSize)
	}
	if len(st.Fanouts) != len(cfg.Train.Fanouts) {
		return fmt.Errorf("pipeline: checkpoint has %d fanouts, configuration has %d", len(st.Fanouts), len(cfg.Train.Fanouts))
	}
	for i, f := range st.Fanouts {
		if int(f) != cfg.Train.Fanouts[i] {
			return fmt.Errorf("pipeline: checkpoint fanouts %v differ from configured %v", st.Fanouts, cfg.Train.Fanouts)
		}
	}
	if topo.NumVertices != int64(ds.NumVertices()) {
		return fmt.Errorf("pipeline: checkpoint covers %d vertices, dataset has %d", topo.NumVertices, ds.NumVertices())
	}
	if int(topo.FeatureDim) != ds.FeatureDim {
		return fmt.Errorf("pipeline: checkpoint feature dim %d, dataset has %d", topo.FeatureDim, ds.FeatureDim)
	}
	if err := graph.Permutation(topo.Perm).Validate(); err != nil {
		return fmt.Errorf("pipeline: checkpoint permutation invalid: %w", err)
	}
	return nil
}

// TrainEpochAll runs one synchronized epoch across every rank concurrently
// and returns per-rank stats. On a cluster built with Resume, the first
// call must pass FirstEpoch(): that epoch starts at the checkpoint's round
// cursor with its partially accumulated statistics, and subsequent epochs
// run normally.
func (c *Cluster) TrainEpochAll(epoch int) ([]EpochStats, error) {
	startRound := 0
	var partials []*ckpt.PartialEpoch
	if rs := c.resume; rs != nil {
		if epoch < rs.Step.Epoch {
			return nil, fmt.Errorf("pipeline: epoch %d precedes the resume point (epoch %d); drive training from FirstEpoch()", epoch, rs.Step.Epoch)
		}
		if epoch == rs.Step.Epoch && rs.Step.Round > 0 {
			startRound = rs.Step.Round
			partials = make([]*ckpt.PartialEpoch, len(c.Ranks))
			for i, rk := range rs.Ranks {
				p := rk.Partial
				partials[i] = &p
			}
		}
		c.resume = nil // the cursor applies to exactly one epoch
	}
	stats := make([]EpochStats, len(c.Ranks))
	errs := make(chan error, len(c.Ranks))
	done := make(chan struct{})
	for i, r := range c.Ranks {
		go func(i int, r *Rank) {
			var p *ckpt.PartialEpoch
			if partials != nil {
				p = partials[i]
			}
			s, err := r.trainEpochFrom(epoch, startRound, p)
			stats[i] = s
			if err != nil {
				errs <- err
			}
			done <- struct{}{}
		}(i, r)
	}
	for range c.Ranks {
		<-done
	}
	select {
	case err := <-errs:
		return stats, err
	default:
	}
	return stats, nil
}

// EvaluateAll runs sampled inference over the given split on every rank
// (each rank evaluates its local vertices) and returns global accuracy.
func (c *Cluster) EvaluateAll(split dataset.Split, fanouts []int, batch, epoch int) (float64, error) {
	per, rounds, err := splitByOwner(c.Data.IDsInSplit(split), c.Layout, batch)
	if err != nil {
		return 0, err
	}
	if rounds == 0 {
		return 0, fmt.Errorf("pipeline: split %v empty", split)
	}
	type res struct {
		correct, total int
		err            error
	}
	out := make(chan res, len(c.Ranks))
	for i, r := range c.Ranks {
		go func(i int, r *Rank) {
			cor, tot, err := r.Evaluate(per[i], fanouts, batch, rounds, epoch)
			out <- res{cor, tot, err}
		}(i, r)
	}
	correct, total := 0, 0
	var firstErr error
	for range c.Ranks {
		r := <-out
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		correct += r.correct
		total += r.total
	}
	if firstErr != nil {
		return 0, firstErr
	}
	if total == 0 {
		return 0, nil
	}
	return float64(correct) / float64(total), nil
}
