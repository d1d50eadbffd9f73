package pipeline

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"salientpp/internal/ckpt"
	"salientpp/internal/dataset"
	"salientpp/internal/dist"
)

// Elastic training: the training-loop twin of the serving layer's
// timeout-and-regroup machinery. A mid-epoch rank failure surfaces as a
// recoverable collective error (dist.ErrTimeout from an armed
// ClusterConfig.StallTimeout, or dist.ErrClosed from a crashed peer's
// poisoned group) instead of a hang; TrainElastic then probes each rank,
// runs one membership agreement round over the survivors, re-lays the dead
// rank's shard and cache slice onto the K′ survivors from the latest
// barrier-consistent checkpoint every survivor holds, rebuilds the comm
// groups, and continues. Because the continued run consumes exactly the
// state ckpt.ShrinkState produces — the same state a cold K′ restart from
// that checkpoint consumes — and trainEpochFrom seeds its RNG streams by
// absolute epoch and round, the post-regroup trajectory is bitwise
// identical to the cold restart (pinned by the chaos matrix tests).

// ErrShrinkAborted reports a membership change that would leave fewer
// than minRanks live ranks: the run stops instead of shrinking, with all
// resources released.
var ErrShrinkAborted = errors.New("pipeline: too few survivors to continue")

// minRanks is the smallest cluster the driver will shrink to: shrinking
// to one rank leaves no distribution to train.
const minRanks = 2

// ElasticReport summarizes what the recovery driver did around a run.
type ElasticReport struct {
	// StallsDetected counts training epochs that failed with a recoverable
	// collective error and triggered a probe.
	StallsDetected int
	// Regroups counts successful membership changes (a full-K regroup
	// after a spurious timeout counts too: the group was rebuilt).
	Regroups int
	// RoundsReplayed sums the consensus checkpoints' mid-epoch round
	// cursors discarded by regroups — the work re-run because an
	// interrupted epoch restarts from its boundary under the new layout.
	RoundsReplayed int
	// FinalK is the member count the run finished with.
	FinalK int
	// Survivors maps final ranks to their original physical ranks.
	Survivors []int
	// RegroupEvents records each membership change, in order.
	RegroupEvents []RegroupEvent
	// Epochs holds the final per-rank statistics for each epoch, keyed by
	// epoch index. An epoch re-run after a regroup overwrites its earlier
	// (pre-failure) entry, so the map matches what a cold K′ restart
	// records.
	Epochs map[int][]EpochStats
}

// RegroupEvent describes one membership change: where the survivors
// agreed to resume, who they are, and the re-laid-out state they resumed
// from. A cold restart consuming State reproduces the post-regroup
// trajectory bitwise (the checkpoint *file* behind Step may later be
// overwritten or rotated by the continued run, so State — not the file —
// is the durable record of what was resumed).
type RegroupEvent struct {
	// Step is the consensus resume point: the newest barrier-consistent
	// checkpoint every survivor held.
	Step ckpt.Step
	// Survivors lists the surviving members as original physical ranks,
	// in new-rank order.
	Survivors []int
	// State is the ckpt.ShrinkState output the continued run consumed.
	State *ckpt.TrainState
}

// TrainElastic runs epochs [FirstEpoch, epochs) with live membership
// changes: any epoch failing with a recoverable collective error triggers
// probe → agreement → shrink → rebuild → continue (see the package comment
// above), at most K-1 times and never below two ranks. Requires
// checkpointing (cfg.Checkpoint) — the consensus resume point is a
// checkpoint every survivor holds — and a positive cfg.StallTimeout
// (defaulted to 5s) so a wedged peer is detected rather than waited on
// forever; the same timeout bounds each probe and the agreement round. On
// success the (possibly rebuilt) cluster is returned still open, for
// evaluation; the caller closes it.
func TrainElastic(ds *dataset.Dataset, cfg ClusterConfig, epochs int) (*Cluster, *ElasticReport, error) {
	if !cfg.Checkpoint.Enabled() {
		return nil, nil, fmt.Errorf("pipeline: elastic training requires checkpointing (the survivors' consensus resume point is a checkpoint)")
	}
	if cfg.StallTimeout <= 0 {
		cfg.StallTimeout = 5 * time.Second
	}
	maxRecoveries := cfg.K - 1
	userWrap := cfg.WrapComm

	// identity maps current ranks to original physical ranks; the fault
	// harness (WrapComm) follows physical machines across regroups, so a
	// schedule tripped on original rank 2 stays on that machine whatever
	// its current rank is.
	identity := make([]int, cfg.K)
	for i := range identity {
		identity[i] = i
	}
	wrapFor := func(ident []int) func(int, dist.Comm, dist.Comm) (dist.Comm, dist.Comm) {
		if userWrap == nil {
			return nil
		}
		return func(rank int, f, g dist.Comm) (dist.Comm, dist.Comm) {
			return userWrap(ident[rank], f, g)
		}
	}

	cfg.WrapComm = wrapFor(identity)
	cl, err := NewCluster(ds, cfg)
	if err != nil {
		return nil, nil, err
	}
	report := &ElasticReport{Epochs: make(map[int][]EpochStats)}
	var gen uint32
	recoveries := 0
	epoch := cl.FirstEpoch()
	for epoch < epochs {
		stats, err := cl.TrainEpochAll(epoch)
		if err == nil {
			report.Epochs[epoch] = stats
			epoch++
			continue
		}
		if !dist.Recoverable(err) {
			cl.Close()
			return nil, nil, err
		}

		// Stall or crash detected: the group is poisoned. Tear the cluster
		// down (TrainEpochAll already joined every rank goroutine) and find
		// out who is still alive.
		report.StallsDetected++
		cl.Close()
		if recoveries >= maxRecoveries {
			return nil, nil, fmt.Errorf("pipeline: %w after %d membership changes: %v", errTooManyRecoveries, recoveries, err)
		}
		recoveries++
		gen++

		agreed, survivors, aerr := probeAndAgree(cfg, identity, gen)
		if aerr != nil {
			return nil, nil, aerr
		}

		// Load the consensus checkpoint and re-lay it onto the survivors.
		st, lerr := ckpt.Load(filepath.Join(cfg.Checkpoint.Dir, ckpt.FileName(agreed)))
		if lerr != nil {
			return nil, nil, fmt.Errorf("pipeline: loading consensus checkpoint %v: %w", agreed, lerr)
		}
		newStarts, serr := ckpt.ShrinkLayout(st.Topo.Starts, survivors)
		if serr != nil {
			return nil, nil, serr
		}
		rounds, serr := roundsForLayout(ds, st, newStarts, cfg.Train.BatchSize)
		if serr != nil {
			return nil, nil, serr
		}
		shrunk, serr := ckpt.ShrinkState(st, survivors, rounds)
		if serr != nil {
			return nil, nil, serr
		}
		report.RoundsReplayed += st.Step.Round

		next := make([]int, len(survivors))
		for i, s := range survivors {
			next[i] = identity[s]
		}
		identity = next
		report.RegroupEvents = append(report.RegroupEvents, RegroupEvent{
			Step: agreed, Survivors: identity, State: shrunk,
		})

		cfg.K = len(survivors)
		cfg.Resume = shrunk
		cfg.WrapComm = wrapFor(identity)
		cl, err = NewCluster(ds, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("pipeline: rebuilding on %d survivors: %w", len(survivors), err)
		}
		report.Regroups++
		// The interrupted epoch (and any epoch after the consensus point)
		// re-runs; map overwrite keeps the recorded stats equal to a cold
		// restart's.
		epoch = cl.FirstEpoch()
	}
	report.FinalK = cfg.K
	report.Survivors = identity
	return cl, report, nil
}

var errTooManyRecoveries = errors.New("recovery budget exhausted")

// probeAndAgree finds the live ranks and runs the membership agreement
// round over them, returning the consensus resume step and the survivor
// set (current-rank indices, strictly increasing). Retries the whole
// sequence a bounded number of times, so a rank dying between the probe
// and the agreement is re-probed rather than hanging the consensus.
func probeAndAgree(cfg ClusterConfig, identity []int, gen uint32) (ckpt.Step, []int, error) {
	var lastErr error
	for attempt := 0; attempt <= cfg.K; attempt++ {
		alive := probeRanks(cfg, identity, gen)
		var survivors []int
		for r, ok := range alive {
			if ok {
				survivors = append(survivors, r)
			}
		}
		if len(survivors) < minRanks {
			return ckpt.Step{}, nil, fmt.Errorf("%w: %d of %d ranks alive, need %d",
				ErrShrinkAborted, len(survivors), cfg.K, minRanks)
		}
		agreed, err := agreeMembers(cfg, identity, survivors, gen)
		if err == nil {
			return agreed, survivors, nil
		}
		if !dist.Recoverable(err) {
			return ckpt.Step{}, nil, err
		}
		lastErr = err // a survivor died mid-agreement: probe again
	}
	return ckpt.Step{}, nil, fmt.Errorf("pipeline: membership agreement never converged: %w", lastErr)
}

// probeRanks health-checks every current rank in parallel: each probe is a
// dist.Agree round over the rank's own singleton feature group, wrapped by
// its fault seam (so a wedged or dead machine's probe inherits its
// faults), followed by one all-reduce on its singleton gradient group. A
// rank is alive only if both succeed — the training loop needs both its
// communicators.
func probeRanks(cfg ClusterConfig, identity []int, gen uint32) []bool {
	alive := make([]bool, cfg.K)
	var wg sync.WaitGroup
	for r := range alive {
		wg.Add(1)
		go func() {
			defer wg.Done()
			feat, grad, err := dialMembers(cfg, []int{r})
			if err != nil {
				return
			}
			defer closeComms(feat, grad)
			if _, err := dist.Agree(feat, []dist.MemberFrame{{Gen: gen, Rank: int32(identity[r])}}); err != nil {
				return
			}
			alive[r] = grad[0].AllReduceSum([]float32{1}) == nil
		}()
	}
	wg.Wait()
	return alive
}

// agreeMembers runs one membership agreement round over the survivors:
// each advertises its physical identity and the checkpoint steps it holds
// in one dist.Agree round, and the resume point is the newest step held
// by all of them.
func agreeMembers(cfg ClusterConfig, identity []int, survivors []int, gen uint32) (ckpt.Step, error) {
	// In-process ranks share one checkpoint directory, so every survivor
	// holds the same list.
	held, err := ckpt.Steps(cfg.Checkpoint.Dir)
	if err != nil {
		return ckpt.Step{}, fmt.Errorf("pipeline: listing checkpoints: %w", err)
	}
	if len(held) > dist.MaxMemberSteps {
		held = held[:dist.MaxMemberSteps]
	}
	steps := make([]dist.MemberStep, len(held))
	for i, s := range held {
		steps[i] = dist.MemberStep{Epoch: int32(s.Epoch), Round: int32(s.Round)}
	}
	frames := make([]dist.MemberFrame, len(survivors))
	for i, s := range survivors {
		frames[i] = dist.MemberFrame{Gen: gen, Rank: int32(identity[s]), Steps: steps}
	}

	feat, grad, err := dialMembers(cfg, survivors)
	if err != nil {
		return ckpt.Step{}, err
	}
	agreed, err := dist.Agree(feat, frames)
	closeComms(feat, grad)
	if err != nil {
		return ckpt.Step{}, err
	}
	holders := make(map[ckpt.Step]int)
	for _, f := range agreed {
		for _, s := range f.Steps {
			holders[ckpt.Step{Epoch: int(s.Epoch), Round: int(s.Round)}]++
		}
	}
	var best ckpt.Step
	found := false
	for s, n := range holders {
		if n == len(agreed) && (!found || best.Less(s)) {
			best, found = s, true
		}
	}
	if !found {
		return ckpt.Step{}, fmt.Errorf("pipeline: no checkpoint is held by all %d survivors", len(agreed))
	}
	return best, nil
}

// dialMembers builds fresh feature and gradient groups over the given
// members (current ranks), each member wrapped by its fault seam and
// bounded by the stall timeout.
func dialMembers(cfg ClusterConfig, members []int) (feat, grad []dist.Comm, err error) {
	feat, grad, err = newGroups(len(members), cfg.UseTCP)
	if err != nil {
		return nil, nil, err
	}
	for i, m := range members {
		if cfg.WrapComm != nil {
			feat[i], grad[i] = cfg.WrapComm(m, feat[i], grad[i])
		}
		feat[i].SetTimeout(cfg.StallTimeout)
		grad[i].SetTimeout(cfg.StallTimeout)
	}
	return feat, grad, nil
}

// roundsForLayout derives the rounds-per-epoch for a merged layout: the
// checkpoint's relabelled training vertices split over newStarts by the
// same helper NewCluster's placement uses, run ahead of it so the shrunk
// state validates.
func roundsForLayout(ds *dataset.Dataset, st *ckpt.TrainState, newStarts []int64, batchSize int) (int, error) {
	layout, err := dist.NewLayout(newStarts)
	if err != nil {
		return 0, err
	}
	train := ds.TrainIDs()
	for i, v := range train {
		train[i] = st.Topo.Perm[v]
	}
	_, rounds, err := splitByOwner(train, layout, batchSize)
	if err == nil && rounds == 0 {
		err = fmt.Errorf("pipeline: merged layout holds no training vertices")
	}
	return rounds, err
}
