package experiments

import (
	"fmt"
	"time"

	"salientpp/internal/ckpt"
	"salientpp/internal/dataset"
	"salientpp/internal/metrics"
	"salientpp/internal/pipeline"
)

// AccuracyConfig controls the real end-to-end training runs (§5.3). The
// paper trains 30 epochs on 8 machines at lr 0.001 and evaluates with
// sampled inference; reduced scale trades epochs and hidden width for CPU
// time while keeping the full distributed data path (partitioned features,
// VIP cache, pipeline, gradient all-reduce).
type AccuracyConfig struct {
	Datasets   []string
	N          int // vertices per dataset
	K          int
	Alpha      float64
	Hidden     int
	Fanouts    []int
	EvalFanout []int
	Batch      int
	Epochs     int
	LR         float64
	Seed       uint64
	// Codec is the feature-gather wire codec ("", "fp32", "fp16", "int8";
	// "" means fp16, on resume the checkpoint's). Lossy codecs shrink
	// communication without changing which rows move; the codec is part of
	// the checkpoint identity, so an explicit setting must match on resume.
	Codec string
	// GradCodec is the gradient all-reduce wire codec ("", "fp32", "fp16",
	// "int8"). Lossy codecs quantize per row with error-feedback residuals;
	// the residuals (and the codec name) are part of the checkpoint
	// identity, so resuming requires the same setting.
	GradCodec string
	// Parallelism bounds sampler workers and setup-time analysis threads
	// (0 keeps the default of 2).
	Parallelism int

	// Checkpoint enables coordinated fault-tolerance checkpoints for the
	// training runs (internal/ckpt): Dir, EveryRounds/EveryEpochs
	// triggers, retain-K rotation. If a Dir is set with no trigger, epoch
	// boundaries are checkpointed.
	Checkpoint ckpt.Config
	// Resume restores the newest valid checkpoint in Checkpoint.Dir and
	// continues training from its epoch/round cursor — bitwise identically
	// to a run that was never interrupted. Requires exactly one dataset
	// (a checkpoint belongs to one training run).
	Resume bool
	// Elastic runs the training loop under pipeline.TrainElastic: a rank
	// failure mid-run becomes a live membership change (probe, survivor
	// consensus, shard re-layout, continue on K-1) instead of an error.
	// Requires Checkpoint.Dir.
	Elastic bool
	// StallTimeout bounds every training collective when Elastic is set
	// (0 uses the pipeline default).
	StallTimeout time.Duration
}

// DefaultAccuracyConfig is sized for a few minutes on a small CPU box.
func DefaultAccuracyConfig() AccuracyConfig {
	return AccuracyConfig{
		Datasets:   []string{"products-sim", "papers-sim", "mag240-sim"},
		N:          8000,
		K:          2,
		Alpha:      0.32,
		Hidden:     32,
		Fanouts:    []int{10, 5},
		EvalFanout: []int{15, 15},
		Batch:      64,
		Epochs:     5,
		LR:         0.005,
		Seed:       3,
	}
}

// AccuracyRow is one dataset's training outcome.
type AccuracyRow struct {
	Dataset        string
	FirstLoss      float64
	FinalLoss      float64
	ValAcc         float64
	TestAcc        float64
	RemotePerEpoch int64 // remote accesses in the final epoch, summed over ranks
	WirePerEpoch   int64 // of those, rows fetched on the wire (the rest reused the previous round's)
	// Elastic-recovery counters; zero on healthy or non-elastic runs.
	StallsDetected int
	Regroups       int
	RoundsReplayed int
	// FinalK is the member count the run finished with (0 when the run
	// was not elastic).
	FinalK int
}

// Accuracy trains each dataset for real on the full distributed stack and
// reports losses and sampled-inference accuracies.
// DatasetByName regenerates one of the reduced-scale training analogs by
// name. Accuracy, the serve bench, and checkpoint restore all go through
// here so "the same dataset" means bit-identical features for all three
// (regeneration is deterministic in (name, n, seed); checkpoints store
// those, not feature bytes).
func DatasetByName(name string, n int, seed uint64) (*dataset.Dataset, error) {
	switch name {
	case "products-sim":
		return dataset.ProductsSim(n, true, seed)
	case "papers-sim":
		// The sparse-label analogs need enough labeled vertices to train
		// at reduced scale: regenerate with products-like splits but
		// papers-like graph statistics.
		return dataset.Generate(dataset.SyntheticConfig{
			Name: "papers-sim", NumVertices: n, AvgDegree: 28.8,
			FeatureDim: 128, NumClasses: 32,
			TrainFrac: 0.10, ValFrac: 0.02, TestFrac: 0.05,
			FeatureNoise: 0.6, Materialize: true, Seed: seed,
		})
	case "mag240-sim":
		return dataset.Generate(dataset.SyntheticConfig{
			Name: "mag240-sim", NumVertices: n, AvgDegree: 21.5,
			FeatureDim: 128, NumClasses: 32, // feature dim reduced from 768 for CPU-time budget
			TrainFrac: 0.10, ValFrac: 0.02, TestFrac: 0.05,
			FeatureNoise: 0.6, Materialize: true, Seed: seed,
		})
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
}

func Accuracy(cfg AccuracyConfig) ([]AccuracyRow, error) {
	if cfg.Checkpoint.Dir != "" && cfg.Checkpoint.EveryRounds == 0 && cfg.Checkpoint.EveryEpochs == 0 {
		cfg.Checkpoint.EveryEpochs = 1
	}
	if cfg.Checkpoint.Dir != "" && len(cfg.Datasets) != 1 {
		// Checkpoint files are named by (epoch, round) only, so two
		// datasets sharing a directory would silently clobber and rotate
		// each other's files.
		return nil, fmt.Errorf("experiments: checkpointing requires exactly one dataset, got %d (one checkpoint directory per run)", len(cfg.Datasets))
	}
	if cfg.Resume && cfg.Checkpoint.Dir == "" {
		return nil, fmt.Errorf("experiments: -resume needs a checkpoint directory")
	}
	if cfg.Elastic && cfg.Checkpoint.Dir == "" {
		return nil, fmt.Errorf("experiments: -elastic needs a checkpoint directory (the survivors resume from a checkpoint they all hold)")
	}
	var rows []AccuracyRow
	for _, name := range cfg.Datasets {
		ds, err := DatasetByName(name, cfg.N, cfg.Seed)
		if err != nil {
			return nil, err
		}
		workers := cfg.Parallelism
		if workers <= 0 {
			workers = 2
		}
		ccfg := pipeline.ClusterConfig{
			K: cfg.K, Alpha: cfg.Alpha, VIPReorder: true,
			Hidden: cfg.Hidden, Layers: len(cfg.Fanouts), Dropout: 0,
			Codec: cfg.Codec,
			Train: pipeline.Config{
				Fanouts: cfg.Fanouts, BatchSize: cfg.Batch,
				PipelineDepth: 10, SamplerWorkers: workers, Parallelism: workers,
				LR: cfg.LR, Seed: cfg.Seed,
				GradCodec: cfg.GradCodec,
			},
			ModelSeed:  cfg.Seed + 1,
			Checkpoint: cfg.Checkpoint,
		}
		if cfg.Resume {
			state, path, err := ckpt.LoadLatest(cfg.Checkpoint.Dir)
			if err != nil {
				return nil, fmt.Errorf("experiments: loading latest checkpoint: %w", err)
			}
			fmt.Printf("resuming %s from %s (epoch %d, round %d)\n", name, path, state.Step.Epoch, state.Step.Round)
			ccfg.Resume = state
		}
		if ccfg.Resume != nil && ccfg.Resume.Step.Epoch >= cfg.Epochs {
			return nil, fmt.Errorf("experiments: checkpoint already covers epoch %d of the requested %d; raise -epochs to continue the run",
				ccfg.Resume.Step.Epoch, cfg.Epochs)
		}
		row := AccuracyRow{Dataset: name}
		var cl *pipeline.Cluster
		if cfg.Elastic {
			ccfg.StallTimeout = cfg.StallTimeout
			var rep *pipeline.ElasticReport
			cl, rep, err = pipeline.TrainElastic(ds, ccfg, cfg.Epochs)
			if err != nil {
				return nil, err
			}
			for e := 0; e < cfg.Epochs; e++ {
				if stats := rep.Epochs[e]; len(stats) > 0 {
					foldEpoch(&row, e, stats)
				}
			}
			row.StallsDetected = rep.StallsDetected
			row.Regroups = rep.Regroups
			row.RoundsReplayed = rep.RoundsReplayed
			row.FinalK = rep.FinalK
			if rep.Regroups > 0 {
				fmt.Printf("elastic: %s survived %d membership change(s), finished on %d ranks, replayed %d rounds\n",
					name, rep.Regroups, rep.FinalK, rep.RoundsReplayed)
			}
		} else {
			cl, err = pipeline.NewCluster(ds, ccfg)
			if err != nil {
				return nil, err
			}
			for e := cl.FirstEpoch(); e < cfg.Epochs; e++ {
				stats, err := cl.TrainEpochAll(e)
				if err != nil {
					cl.Close()
					return nil, err
				}
				foldEpoch(&row, e, stats)
			}
		}
		val, err := cl.EvaluateAll(dataset.SplitVal, cfg.EvalFanout, cfg.Batch, cfg.Epochs)
		if err != nil {
			cl.Close()
			return nil, err
		}
		test, err := cl.EvaluateAll(dataset.SplitTest, cfg.EvalFanout, cfg.Batch, cfg.Epochs)
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.Close()
		row.ValAcc = val
		row.TestAcc = test
		rows = append(rows, row)
	}
	return rows, nil
}

// foldEpoch folds one epoch's per-rank stats into the row: rank-averaged
// loss (ranks with no batches sit out), first/final loss bookkeeping, and
// the summed remote-access and wire-row counts.
func foldEpoch(row *AccuracyRow, e int, stats []pipeline.EpochStats) {
	var loss float64
	var n int
	var remote, wire int64
	for _, s := range stats {
		if s.Batches > 0 {
			loss += s.Loss
			n++
		}
		remote += int64(s.Gather.RemoteFetch)
		wire += int64(s.Gather.RemoteFetch - s.Gather.Reused)
	}
	if n > 0 {
		loss /= float64(n)
	}
	if e == 0 {
		row.FirstLoss = loss
	}
	row.FinalLoss = loss
	row.RemotePerEpoch = remote
	row.WirePerEpoch = wire
}

// RenderAccuracy formats the rows.
func RenderAccuracy(rows []AccuracyRow) string {
	t := metrics.NewTable("§5.3 accuracy: real distributed training on synthetic analogs",
		"dataset", "loss (epoch 1)", "loss (final)", "val acc", "test acc", "remote/epoch", "wire rows/epoch")
	for _, r := range rows {
		t.AddRow(r.Dataset, fmt.Sprintf("%.3f", r.FirstLoss), fmt.Sprintf("%.3f", r.FinalLoss),
			fmt.Sprintf("%.3f", r.ValAcc), fmt.Sprintf("%.3f", r.TestAcc), r.RemotePerEpoch, r.WirePerEpoch)
	}
	return t.String()
}
