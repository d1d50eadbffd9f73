package salientpp

import (
	"flag"
	"fmt"
	"time"

	"salientpp/internal/dist"
)

// RunConfig is the unified run-configuration surface shared by the CLI
// harnesses (cmd/gnntrain, cmd/gnnserve) and available to embedders. It
// folds the knobs that used to be ad-hoc per-command flags — wire codec,
// worker parallelism, and coordinated checkpointing — into one struct with
// a single flag-registration and validation path, so every harness spells
// them identically and a setting means the same thing everywhere.
//
// The zero value is a valid fp16-wire, auto-parallelism, no-checkpoint run.
type RunConfig struct {
	// Codec is the feature-gather wire codec ("fp32", "fp16", "int8"; ""
	// means fp16; on resume the checkpoint's). Lossy codecs shrink
	// communication without changing which rows move. Part of checkpoint
	// run identity: an explicit codec must match the checkpoint's.
	Codec string
	// GradCodec is the gradient all-reduce wire codec ("fp32", "fp16",
	// "int8"; "" means fp32). Lossy codecs quantize each gradient row with
	// a per-row scale and fold the quantization error back into the next
	// round (error feedback), keeping accuracy within fractions of a point
	// of fp32. Part of checkpoint run identity: the accumulated residuals
	// are saved and restored with the model.
	GradCodec string
	// Parallelism bounds sampler workers and setup-time analysis threads;
	// 0 keeps each harness's own default.
	Parallelism int
	// Checkpoint configures coordinated fault-tolerance checkpoints
	// (directory, cadence triggers, retain-K rotation). An empty Dir
	// disables checkpointing.
	Checkpoint CheckpointConfig
	// Resume restores the newest valid checkpoint in Checkpoint.Dir and
	// continues bitwise identically to an uninterrupted run.
	Resume bool
	// Elastic turns a mid-run rank failure into a live membership change
	// instead of a fatal error: the survivors agree on the newest
	// checkpoint they all hold, the dead rank's shard and cache slice are
	// re-laid onto them, and training continues on K-1 machines — bitwise
	// identical to a cold K-1 restart from that checkpoint. Requires
	// Checkpoint.Dir.
	Elastic bool
	// StallTimeout bounds every training collective when Elastic is set: a
	// collective stuck this long is declared a stall and triggers the
	// recovery path. 0 uses the pipeline default (5s).
	StallTimeout time.Duration
}

// RegisterFlags installs the shared -codec/-parallelism flags on fs, with
// the receiver's current values as defaults. Call before fs.Parse.
func (c *RunConfig) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Codec, "codec", c.Codec,
		"feature-gather wire codec: fp32 (raw), fp16 (half-precision rows + varint ids), int8 (per-row-scaled rows + varint ids); empty means fp16, or the checkpoint's when resuming or serving one")
	fs.IntVar(&c.Parallelism, "parallelism", c.Parallelism,
		"sampler/analysis worker count (0 = harness default)")
}

// RegisterCheckpointFlags installs the coordinated-checkpointing flags
// (-checkpoint-dir, cadence, rotation, -resume) on fs.
func (c *RunConfig) RegisterCheckpointFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Checkpoint.Dir, "checkpoint-dir", c.Checkpoint.Dir,
		"enable coordinated checkpointing into this directory")
	fs.IntVar(&c.Checkpoint.EveryRounds, "checkpoint-every-rounds", c.Checkpoint.EveryRounds,
		"checkpoint every N pipeline rounds (0 disables mid-epoch checkpoints)")
	fs.IntVar(&c.Checkpoint.EveryEpochs, "checkpoint-every-epochs", c.Checkpoint.EveryEpochs,
		"checkpoint every N epoch boundaries (0 with no -checkpoint-every-rounds defaults to 1)")
	fs.IntVar(&c.Checkpoint.Retain, "checkpoint-retain", c.Checkpoint.Retain,
		"keep the newest N checkpoint files")
	fs.BoolVar(&c.Resume, "resume", c.Resume,
		"restore the newest valid checkpoint in -checkpoint-dir and continue")
}

// RegisterTrainFlags installs the training-only flags on fs: the gradient
// all-reduce codec (-grad-codec) and elastic training
// (-elastic, -stall-timeout). Only the training harness registers these —
// serving never reduces gradients and has its own timeout/regroup surface.
func (c *RunConfig) RegisterTrainFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.GradCodec, "grad-codec", c.GradCodec,
		"gradient all-reduce wire codec: fp32 (raw), fp16 (half-precision rows), int8 (per-row-scaled rows with error-feedback residuals)")
	fs.BoolVar(&c.Elastic, "elastic", c.Elastic,
		"survive a mid-run rank failure by shrinking onto the live ranks (needs -checkpoint-dir)")
	fs.DurationVar(&c.StallTimeout, "stall-timeout", c.StallTimeout,
		"declare a training collective stalled after this long (0 = pipeline default of 5s; needs -elastic)")
}

// Validate rejects unknown codec names and negative
// parallelism early, before any cluster assembly.
func (c RunConfig) Validate() error {
	if _, err := dist.ParseCodec(c.Codec); err != nil {
		return fmt.Errorf("-codec: %w", err)
	}
	if _, err := dist.ParseCodec(c.GradCodec); err != nil {
		return fmt.Errorf("-grad-codec: %w", err)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("-parallelism: negative worker count %d", c.Parallelism)
	}
	if c.Resume && c.Checkpoint.Dir == "" {
		return fmt.Errorf("-resume needs -checkpoint-dir")
	}
	if c.Elastic && c.Checkpoint.Dir == "" {
		return fmt.Errorf("-elastic needs -checkpoint-dir (the survivors resume from a checkpoint they all hold)")
	}
	if c.StallTimeout < 0 {
		return fmt.Errorf("-stall-timeout: negative duration %v", c.StallTimeout)
	}
	return nil
}
