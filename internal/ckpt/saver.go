package ckpt

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
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
	cfg Config

	mu sync.Mutex
	// state is the file being assembled: the run identity, rounds and
	// topology NewSaver was given, Step the step the barrier is assembling
	// (set by its first offer), and Ranks the reused per-rank slots.
	state     TrainState
	filled    []bool
	arrived   int
	lastSaved Step
	hasSaved  bool
	encBuf    []byte
	err       error // sticky: a failed write poisons later Offers loudly
}

// NewSaver validates the configuration, creates the directory, and returns
// a coordinator for the run that run describes. run supplies what every
// file carries unchanged: the run identity (dataset, seed, batch size,
// fanouts, wire and gradient codecs), which restore checks for drift, the
// rounds per epoch, and the topology, which makes each file
// self-contained. Its Step and Ranks are ignored: each save fills them in.
func NewSaver(cfg Config, run *TrainState) (*Saver, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("ckpt: saver needs a directory")
	}
	if run.Topo == nil || run.Topo.K <= 0 || run.Rounds <= 0 {
		return nil, fmt.Errorf("ckpt: saver needs a run with a topology, positive K and positive rounds")
	}
	if err := os.MkdirAll(cfg.Dir, 0o777); err != nil {
		return nil, fmt.Errorf("ckpt: creating %s: %w", cfg.Dir, err)
	}
	k := int(run.Topo.K)
	s := &Saver{cfg: cfg, state: *run, filled: make([]bool, k)}
	s.state.Ranks = make([]*RankState, k)
	for i := range s.state.Ranks {
		s.state.Ranks[i] = &RankState{}
	}
	return s, nil
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
	if rank < 0 || rank >= len(s.filled) {
		return fmt.Errorf("ckpt: offer from rank %d of %d", rank, len(s.filled))
	}
	if s.hasSaved && !s.lastSaved.Less(step) {
		return nil // already captured (e.g. round trigger coinciding with epoch trigger)
	}
	if s.arrived == 0 {
		s.state.Step = step
	} else if s.state.Step != step {
		s.err = fmt.Errorf("ckpt: rank %d offered step %+v while assembling %+v (lost barrier consistency)", rank, step, s.state.Step)
		return s.err
	}
	if s.filled[rank] {
		s.err = fmt.Errorf("ckpt: duplicate offer from rank %d at step %+v", rank, step)
		return s.err
	}
	fill(s.state.Ranks[rank])
	s.filled[rank] = true
	s.arrived++
	if s.arrived < len(s.filled) {
		return nil
	}
	// Barrier complete: this rank writes the file.
	s.arrived = 0
	for i := range s.filled {
		s.filled[i] = false
	}
	if err := s.write(); err != nil {
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

// parseFileName inverts FileName; ok is false for any other name, so
// FileName of a parsed step names the file it came from.
func parseFileName(name string) (Step, bool) {
	var s Step
	if _, err := fmt.Sscanf(name, "ckpt-e%05d-r%06d.sppc", &s.Epoch, &s.Round); err != nil ||
		s.Epoch < 0 || s.Round < 0 || name != FileName(s) {
		return Step{}, false
	}
	return s, true
}

// Steps lists the barrier-consistent checkpoint steps present in dir,
// newest first — the local half of a membership agreement round (each
// survivor advertises its list; the consensus resume point is the newest
// step in every list). Returns an empty slice for a directory with no
// checkpoints; the error is reserved for an unreadable directory.
func Steps(dir string) ([]Step, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var steps []Step
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if step, ok := parseFileName(e.Name()); ok {
			steps = append(steps, step)
		}
	}
	sort.Slice(steps, func(i, j int) bool { return steps[j].Less(steps[i]) })
	return steps, nil
}

// write encodes the assembled state into the reused buffer and renames a
// temp file into place, then rotates old checkpoints.
func (s *Saver) write() error {
	b, err := AppendEncode(s.encBuf[:0], &s.state)
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
	final := filepath.Join(s.cfg.Dir, FileName(s.state.Step))
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
	tmps, _ := fs.Glob(os.DirFS(s.cfg.Dir), ".ckpt-*.tmp")
	for _, tmp := range tmps {
		os.Remove(filepath.Join(s.cfg.Dir, tmp))
	}
	steps, _ := Steps(s.cfg.Dir)
	for _, old := range steps[min(s.cfg.Retain, len(steps)):] {
		os.Remove(filepath.Join(s.cfg.Dir, FileName(old)))
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

// LoadLatest loads the newest *valid* checkpoint in dir, skipping files
// that fail CRC or structural validation (e.g. a file torn by a crash that
// somehow bypassed the atomic rename). Returns the state and the path it
// came from.
func LoadLatest(dir string) (*TrainState, string, error) {
	steps, err := Steps(dir)
	if err != nil {
		return nil, "", err
	}
	var firstErr error
	for _, step := range steps {
		p := filepath.Join(dir, FileName(step))
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
