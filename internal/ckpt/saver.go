package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Config controls coordinated checkpointing.
type Config struct {
	// Dir is the checkpoint directory (created if missing). Empty disables
	// checkpointing entirely.
	Dir string
	// EveryRounds checkpoints after every N fully retired pipeline rounds
	// within an epoch (barrier-consistent across ranks). 0 disables
	// mid-epoch checkpoints.
	EveryRounds int
	// EveryEpochs checkpoints at every Nth epoch boundary. 0 disables
	// epoch-boundary checkpoints.
	EveryEpochs int
	// Retain keeps the newest Retain checkpoint files, deleting older ones
	// after each successful save. <= 0 means 3.
	Retain int
}

// Enabled reports whether the configuration checkpoints at all.
func (c Config) Enabled() bool {
	return c.Dir != "" && (c.EveryRounds > 0 || c.EveryEpochs > 0)
}

func (c Config) withDefaults() Config {
	if c.Retain <= 0 {
		c.Retain = 3
	}
	return c
}

// Saver coordinates barrier-consistent checkpoints across the K ranks of
// one training run. Every rank calls Offer at the same Step (the pipeline
// guarantees this: the trigger is a pure function of the shared round
// cursor); the K-th arrival encodes the assembled TrainState and writes it
// atomically (temp file + rename) into the directory, then rotates old
// files down to Retain.
//
// Per-rank state slots and the encode buffer are reused across saves, so
// steady-state checkpointing allocates only at the file-write boundary —
// and rounds that do not checkpoint cost one integer check in the training
// loop (guarded by the pipeline's AllocsPerRun test).
type Saver struct {
	cfg    Config
	k      int
	rounds int

	mu        sync.Mutex
	topo      *Topology
	dataset   string
	seed      uint64
	batchSize int32
	fanouts   []int32
	codec     string
	gradCodec string
	slots     []*RankState
	filled    []bool
	arrived   int
	pending   Step
	lastSaved Step
	hasSaved  bool
	encBuf    []byte
	err       error // sticky: a failed write poisons later Offers loudly
}

// NewSaver validates the configuration, creates the directory, and returns
// a coordinator for a K-rank run with the given rounds-per-epoch.
func NewSaver(cfg Config, k, rounds int) (*Saver, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("ckpt: saver needs a directory")
	}
	if k <= 0 || rounds <= 0 {
		return nil, fmt.Errorf("ckpt: saver needs positive k (%d) and rounds (%d)", k, rounds)
	}
	if err := os.MkdirAll(cfg.Dir, 0o777); err != nil {
		return nil, fmt.Errorf("ckpt: creating %s: %w", cfg.Dir, err)
	}
	s := &Saver{cfg: cfg, k: k, rounds: rounds, slots: make([]*RankState, k), filled: make([]bool, k)}
	for i := range s.slots {
		s.slots[i] = &RankState{}
	}
	return s, nil
}

// SetTopology installs the run's immutable topology, included in every
// checkpoint file so restores are self-contained. Must be called before
// the first Offer.
func (s *Saver) SetTopology(t *Topology) { s.topo = t }

// SetRunConfig pins the run identity (dataset name, sampling seed, batch
// size, fanouts, the feature-gather wire codec, and the gradient
// all-reduce codec) in every checkpoint so restore can reject drift that
// would silently train the wrong data, replay different batches,
// dequantize different feature bytes, or quantize gradients against a
// stale residual. Must be called before the first Offer. The cluster passes
// resolved codec names; an empty codec or gradCodec records "fp32".
func (s *Saver) SetRunConfig(dataset string, seed uint64, batchSize int, fanouts []int, codec, gradCodec string) {
	s.dataset = dataset
	s.seed = seed
	s.batchSize = int32(batchSize)
	s.fanouts = make([]int32, len(fanouts))
	for i, f := range fanouts {
		s.fanouts[i] = int32(f)
	}
	if codec == "" {
		codec = "fp32"
	}
	s.codec = codec
	if gradCodec == "" {
		gradCodec = "fp32"
	}
	s.gradCodec = gradCodec
}

// DueRound reports whether a checkpoint fires after roundsDone fully
// retired rounds of the current epoch (roundsDone in [1, rounds]).
func (s *Saver) DueRound(roundsDone int) bool {
	return s.cfg.EveryRounds > 0 && roundsDone%s.cfg.EveryRounds == 0
}

// DueEpoch reports whether a checkpoint fires at the boundary after
// epochsDone completed epochs.
func (s *Saver) DueEpoch(epochsDone int) bool {
	return s.cfg.EveryEpochs > 0 && epochsDone%s.cfg.EveryEpochs == 0
}

// Offer contributes rank's state at step. fill writes into a reusable
// RankState slot (append into the existing slices). When the last rank of
// the barrier arrives, the checkpoint is encoded and written atomically;
// that rank pays the I/O. Offers for steps at or before the last saved
// step are ignored, which makes coinciding round/epoch triggers idempotent.
func (s *Saver) Offer(rank int, step Step, fill func(*RankState)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if rank < 0 || rank >= s.k {
		return fmt.Errorf("ckpt: offer from rank %d of %d", rank, s.k)
	}
	if s.hasSaved && !s.lastSaved.Less(step) {
		return nil // already captured (e.g. round trigger coinciding with epoch trigger)
	}
	if s.arrived == 0 {
		s.pending = step
	} else if s.pending != step {
		s.err = fmt.Errorf("ckpt: rank %d offered step %+v while assembling %+v (lost barrier consistency)", rank, step, s.pending)
		return s.err
	}
	if s.filled[rank] {
		s.err = fmt.Errorf("ckpt: duplicate offer from rank %d at step %+v", rank, step)
		return s.err
	}
	fill(s.slots[rank])
	s.filled[rank] = true
	s.arrived++
	if s.arrived < s.k {
		return nil
	}
	// Barrier complete: this rank writes the file.
	s.arrived = 0
	for i := range s.filled {
		s.filled[i] = false
	}
	state := &TrainState{
		Step: step, Rounds: s.rounds,
		Dataset: s.dataset, Seed: s.seed, BatchSize: s.batchSize, Fanouts: s.fanouts,
		Codec: s.codec, GradCodec: s.gradCodec, Topo: s.topo, Ranks: s.slots,
	}
	if err := s.write(state); err != nil {
		s.err = err
		return err
	}
	s.lastSaved, s.hasSaved = step, true
	return nil
}

// FileName returns the canonical checkpoint file name for a step.
func FileName(step Step) string {
	return fmt.Sprintf("ckpt-e%05d-r%06d.sppc", step.Epoch, step.Round)
}

// parseFileName inverts FileName; ok is false for foreign files.
func parseFileName(name string) (Step, bool) {
	var e, r int
	if n, err := fmt.Sscanf(name, "ckpt-e%05d-r%06d.sppc", &e, &r); n != 2 || err != nil {
		return Step{}, false
	}
	if !strings.HasSuffix(name, ".sppc") || e < 0 || r < 0 {
		return Step{}, false
	}
	return Step{Epoch: e, Round: r}, true
}

// write encodes into the reused buffer and renames a temp file into place,
// then rotates old checkpoints.
func (s *Saver) write(state *TrainState) error {
	b, err := AppendEncode(s.encBuf[:0], state)
	s.encBuf = b
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.cfg.Dir, ".ckpt-*.tmp")
	if err != nil {
		return fmt.Errorf("ckpt: temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: writing %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: syncing %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: closing %s: %w", tmpName, err)
	}
	final := filepath.Join(s.cfg.Dir, FileName(state.Step))
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: publishing %s: %w", final, err)
	}
	s.rotate()
	return nil
}

// rotate deletes all but the newest Retain checkpoint files (and any stale
// temp files). Best-effort: rotation failures never fail a save.
func (s *Saver) rotate() {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return
	}
	type f struct {
		step Step
		name string
	}
	var files []f
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(e.Name(), ".ckpt-") && strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(s.cfg.Dir, e.Name()))
			continue
		}
		if step, ok := parseFileName(e.Name()); ok {
			files = append(files, f{step, e.Name()})
		}
	}
	if len(files) <= s.cfg.Retain {
		return
	}
	sort.Slice(files, func(i, j int) bool { return files[j].step.Less(files[i].step) })
	for _, old := range files[s.cfg.Retain:] {
		os.Remove(filepath.Join(s.cfg.Dir, old.name))
	}
}

// Load decodes and validates the checkpoint at path.
func Load(path string) (*TrainState, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return Decode(fh)
}

// Latest returns the path of the newest checkpoint file in dir (by step,
// not mtime). os.ErrNotExist when the directory holds no checkpoints.
func Latest(dir string) (string, error) {
	paths, err := listByStepDescending(dir)
	if err != nil {
		return "", err
	}
	if len(paths) == 0 {
		return "", fmt.Errorf("ckpt: no checkpoints in %s: %w", dir, os.ErrNotExist)
	}
	return paths[0], nil
}

// LoadLatest loads the newest *valid* checkpoint in dir, skipping files
// that fail CRC or structural validation (e.g. a file torn by a crash that
// somehow bypassed the atomic rename). Returns the state and the path it
// came from.
func LoadLatest(dir string) (*TrainState, string, error) {
	paths, err := listByStepDescending(dir)
	if err != nil {
		return nil, "", err
	}
	var firstErr error
	for _, p := range paths {
		st, err := Load(p)
		if err == nil {
			return st, p, nil
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("ckpt: %s: %w", p, err)
		}
	}
	if firstErr != nil {
		return nil, "", firstErr
	}
	return nil, "", fmt.Errorf("ckpt: no checkpoints in %s: %w", dir, os.ErrNotExist)
}

func listByStepDescending(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type f struct {
		step Step
		path string
	}
	var files []f
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if step, ok := parseFileName(e.Name()); ok {
			files = append(files, f{step, filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[j].step.Less(files[i].step) })
	out := make([]string, len(files))
	for i, x := range files {
		out[i] = x.path
	}
	return out, nil
}
