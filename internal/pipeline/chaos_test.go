package pipeline

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"salientpp/internal/ckpt"
	"salientpp/internal/dataset"
	"salientpp/internal/dist"
)

// Training-path chaos matrix: kill or stall one rank at each phase of the
// training loop (sampling, feature gather, forward overlap, the
// backward-hook gradient all-reduce, and a checkpoint write), on both
// transports, and demand that the run (a) never hangs, (b) shrinks to the
// K-1 survivors, and (c) finishes bitwise identical — per-epoch loss,
// accuracy, remote-fetch counts, and final weights — to a cold K-1 restart
// from the same consensus checkpoint. The dist.Chaos schedule lives in the
// harness, not the wrapper, so the victim stays dead (or wedged) across
// the regroup exactly as a crashed machine would.

// elasticConfig is the 3-rank variant of crashConfig with checkpointing
// and stall detection armed, as TrainElastic requires.
func elasticConfig(useTCP bool, dir string) ClusterConfig {
	cfg := crashConfig(useTCP)
	cfg.K = 3
	cfg.Checkpoint = ckpt.Config{Dir: dir, EveryRounds: 2, EveryEpochs: 1, Retain: 8}
	cfg.StallTimeout = time.Second
	return cfg
}

// wrapVictim wraps only the victim's communicators in the chaos harness —
// the other ranks run clean, as in the serving chaos tests. gradOnly
// targets the gradient all-reduce path specifically (the harness counter
// then counts only reduces, so a schedule index addresses "the Nth
// all-reduce"); otherwise the feat/grad pair shares fate via WrapPair.
func wrapVictim(ch *dist.Chaos, victim int, gradOnly bool) func(int, dist.Comm, dist.Comm) (dist.Comm, dist.Comm) {
	return func(rank int, f, g dist.Comm) (dist.Comm, dist.Comm) {
		if rank != victim {
			return f, g
		}
		if gradOnly {
			return f, ch.Wrap(g)
		}
		return ch.WrapPair(f, g)
	}
}

// countVictimCalls measures how many feature-gather and gradient-reduce
// collectives the victim issues per epoch, so the matrix can schedule
// faults at phase-specific positions inside epoch 1 instead of guessing.
func countVictimCalls(t *testing.T, d *dataset.Dataset, victim int) (feat, grad int64) {
	t.Helper()
	chF := dist.NewChaos(dist.ChaosConfig{})
	chG := dist.NewChaos(dist.ChaosConfig{})
	cfg := crashConfig(false)
	cfg.K = 3
	cfg.WrapComm = func(rank int, f, g dist.Comm) (dist.Comm, dist.Comm) {
		if rank != victim {
			return f, g
		}
		return chF.Wrap(f), chG.Wrap(g)
	}
	cl, err := NewCluster(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.TrainEpochAll(0); err != nil {
		t.Fatal(err)
	}
	return chF.Calls(), chG.Calls()
}

type chaosScenario struct {
	name     string
	stall    bool // wedge the victim instead of killing it
	gradOnly bool // target the gradient all-reduce path
	// at positions the fault within epoch 1, as an offset into the
	// victim's epoch-1 collective sequence (pair counter for pair targets,
	// reduce counter for gradOnly). 0 with watch unset is invalid.
	at int64
	// watch, when set, fires the fault when the mid-epoch-1 checkpoint
	// file lands on disk — the "fault during a checkpoint write" phase.
	watch bool
}

func trainingChaosScenarios(featPE, gradPE int64) []chaosScenario {
	pairPE := featPE + gradPE
	return []chaosScenario{
		// First collective of epoch 1: the samplers are prefetching and no
		// gather of the epoch has completed.
		{name: "kill-sample", at: pairPE + 1},
		{name: "stall-sample", stall: true, at: pairPE + 1},
		// Inside the first round's gather sequence.
		{name: "kill-gather", at: pairPE + 2},
		{name: "stall-gather", stall: true, at: pairPE + 2},
		// Mid-round: forward of batch N overlaps the gather of batch N+1.
		{name: "kill-forward", at: pairPE + 6},
		{name: "stall-forward", stall: true, at: pairPE + 6},
		// First gradient all-reduce of epoch 1 (the backward hook).
		{name: "kill-backward", gradOnly: true, at: gradPE + 1},
		{name: "stall-backward", gradOnly: true, stall: true, at: gradPE + 1},
		// While the mid-epoch checkpoint of epoch 1 is being written.
		{name: "kill-ckptwrite", watch: true},
		{name: "stall-ckptwrite", stall: true, watch: true},
	}
}

// fileTrigger runs fire once, ahead of the first collective its member
// issues after path exists.
type fileTrigger struct {
	dist.Comm
	path string
	once *sync.Once
	fire func()
}

func (f *fileTrigger) check() {
	if _, err := os.Stat(f.path); err == nil {
		f.once.Do(f.fire)
	}
}

func (f *fileTrigger) AllToAll(send [][]byte) ([][]byte, error) {
	f.check()
	return f.Comm.AllToAll(send)
}

func (f *fileTrigger) AllReduceSum(x []float32) error {
	f.check()
	return f.Comm.AllReduceSum(x)
}

func testTrainingChaosMatrix(t *testing.T, useTCP bool) {
	d := crashDataset(t)
	const victim = 1
	featPE, gradPE := countVictimCalls(t, d, victim)
	if featPE == 0 || gradPE == 0 {
		t.Fatalf("collective counting run saw %d gathers, %d reduces", featPE, gradPE)
	}
	for _, sc := range trainingChaosScenarios(featPE, gradPE) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			runTrainingChaosScenario(t, d, useTCP, victim, sc)
		})
	}
}

func TestTrainChaosMatrixInProcess(t *testing.T) { testTrainingChaosMatrix(t, false) }
func TestTrainChaosMatrixTCP(t *testing.T)       { testTrainingChaosMatrix(t, true) }

func runTrainingChaosScenario(t *testing.T, d *dataset.Dataset, useTCP bool, victim int, sc chaosScenario) {
	const epochs = 3
	dir := t.TempDir()
	ccfg := dist.ChaosConfig{Seed: 11}
	if !sc.watch {
		if sc.stall {
			ccfg.StallAtCall = sc.at
		} else {
			ccfg.DropAtCall = sc.at
		}
	}
	ch := dist.NewChaos(ccfg)
	cfg := elasticConfig(useTCP, dir)
	cfg.WrapComm = wrapVictim(ch, victim, sc.gradOnly)
	if sc.watch {
		// The fault fires at the victim's first collective after the
		// mid-epoch-1 checkpoint file lands. The check is synchronous: a
		// polling watcher could be scheduled late enough on a loaded machine
		// for the short run to finish first, and no fault would fire.
		target := filepath.Join(dir, ckpt.FileName(ckpt.Step{Epoch: 1, Round: 2}))
		var once sync.Once
		fire := func() {
			if sc.stall {
				ch.Stall()
			} else {
				ch.Kill()
			}
		}
		wrap := cfg.WrapComm
		cfg.WrapComm = func(rank int, f, g dist.Comm) (dist.Comm, dist.Comm) {
			f, g = wrap(rank, f, g)
			if rank != victim {
				return f, g
			}
			return &fileTrigger{Comm: f, path: target, once: &once, fire: fire},
				&fileTrigger{Comm: g, path: target, once: &once, fire: fire}
		}
	}

	cl, rep, err := TrainElastic(d, cfg, epochs)
	if err != nil {
		t.Fatalf("elastic run failed: %v", err)
	}
	defer cl.Close()
	if rep.StallsDetected != 1 || rep.Regroups != 1 {
		t.Fatalf("stalls=%d regroups=%d, want 1/1", rep.StallsDetected, rep.Regroups)
	}
	if rep.FinalK != 2 || len(rep.Survivors) != 2 {
		t.Fatalf("finalK=%d survivors=%v, want 2 survivors", rep.FinalK, rep.Survivors)
	}
	for _, s := range rep.Survivors {
		if s == victim {
			t.Fatalf("victim %d survived: %v", victim, rep.Survivors)
		}
	}
	for e := 0; e < epochs; e++ {
		if len(rep.Epochs[e]) == 0 {
			t.Fatalf("epoch %d missing from the elastic run", e)
		}
	}
	liveW := flatWeights(cl)

	// Cold restart: consume the same shrunk consensus state the live run
	// resumed from, on a clean, unwrapped K-1 cluster.
	ev := rep.RegroupEvents[0]
	ccold := crashConfig(useTCP)
	ccold.K = 2
	ccold.Resume = ev.State
	coldCl, err := NewCluster(d, ccold)
	if err != nil {
		t.Fatal(err)
	}
	defer coldCl.Close()
	cold := map[int]epochResult{}
	if err := runEpochs(t, coldCl, coldCl.FirstEpoch(), epochs, cold); err != nil {
		t.Fatal(err)
	}

	// Bitwise equality from the resume epoch on.
	for e := ev.State.Step.Epoch; e < epochs; e++ {
		want, have := cold[e], rep.Epochs[e]
		if len(have) != len(want.loss) {
			t.Fatalf("epoch %d: live has %d ranks, cold %d", e, len(have), len(want.loss))
		}
		var remote int64
		for r, s := range have {
			if s.Loss != want.loss[r] || s.Accuracy != want.acc[r] {
				t.Errorf("epoch %d rank %d: live loss/acc %.17g/%.17g != cold %.17g/%.17g",
					e, r, s.Loss, s.Accuracy, want.loss[r], want.acc[r])
			}
			remote += int64(s.Gather.RemoteFetch)
		}
		if remote != want.remote {
			t.Errorf("epoch %d: live remote fetches %d != cold %d", e, remote, want.remote)
		}
	}
	coldW := flatWeights(coldCl)
	if len(liveW) != len(coldW) {
		t.Fatalf("weight count %d != cold %d", len(liveW), len(coldW))
	}
	for i := range coldW {
		if liveW[i] != coldW[i] {
			t.Fatalf("final weights diverge from the cold restart at %d: %v != %v", i, liveW[i], coldW[i])
		}
	}
}

// TestElasticAbortedShrink pins the too-few-survivors path: a K=2 run
// losing a rank cannot shrink below two ranks, so TrainElastic returns
// ErrShrinkAborted — with every goroutine unwound, not a hang.
func TestElasticAbortedShrink(t *testing.T) {
	baseline := runtime.NumGoroutine()
	d := crashDataset(t)
	dir := t.TempDir()
	ch := dist.NewChaos(dist.ChaosConfig{DropAtCall: 8})
	cfg := crashConfig(false)
	cfg.Checkpoint = ckpt.Config{Dir: dir, EveryRounds: 2, EveryEpochs: 1, Retain: 4}
	cfg.StallTimeout = time.Second
	cfg.WrapComm = wrapVictim(ch, 1, false)
	_, _, err := TrainElastic(d, cfg, 3)
	if !errors.Is(err, ErrShrinkAborted) {
		t.Fatalf("err = %v, want ErrShrinkAborted", err)
	}
	waitGoroutines(t, baseline)
}

// TestElasticRegroupLeakFree is the leak regression for the shrink path:
// after a mid-epoch kill, regroup, and completed run, the rebuilt cluster
// holds no live pooled tensors and every pipeline/reducer goroutine from
// both the failed and the continued run has unwound.
func TestElasticRegroupLeakFree(t *testing.T) {
	baseline := runtime.NumGoroutine()
	d := crashDataset(t)
	dir := t.TempDir()
	featPE, gradPE := countVictimCalls(t, d, 1)
	ch := dist.NewChaos(dist.ChaosConfig{DropAtCall: featPE + gradPE + 3})
	cfg := elasticConfig(false, dir)
	cfg.WrapComm = wrapVictim(ch, 1, false)
	cl, rep, err := TrainElastic(d, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regroups != 1 {
		t.Fatalf("regroups = %d, want 1", rep.Regroups)
	}
	for r, rk := range cl.Ranks {
		if live := rk.Store().Live(); live != 0 {
			t.Errorf("rank %d holds %d live pooled tensors after the regrouped run", r, live)
		}
	}
	cl.Close()
	waitGoroutines(t, baseline)
}

func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestElasticResumeRejectsTopologyDrift pins that checkpoints written by a
// shrunk run record the new member count: resuming one onto the original
// K-rank configuration must be rejected, not silently re-laid out.
func TestElasticResumeRejectsTopologyDrift(t *testing.T) {
	d := crashDataset(t)
	dir := t.TempDir()
	featPE, gradPE := countVictimCalls(t, d, 1)
	ch := dist.NewChaos(dist.ChaosConfig{DropAtCall: featPE + gradPE + 2})
	cfg := elasticConfig(false, dir)
	cfg.WrapComm = wrapVictim(ch, 1, false)
	cl, rep, err := TrainElastic(d, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if rep.FinalK != 2 {
		t.Fatalf("finalK = %d, want 2", rep.FinalK)
	}
	st, path, err := ckpt.LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Topo.K != 2 {
		t.Fatalf("latest checkpoint %s records K=%d, want the shrunk K=2", path, st.Topo.K)
	}
	stale := elasticConfig(false, dir) // K=3: the pre-failure layout
	stale.Resume = st
	if _, err := NewCluster(d, stale); err == nil {
		t.Fatal("shrunk checkpoint resumed onto the stale 3-rank layout")
	}
}

// TestStallTimeoutAddsNoAllocations guards the healthy-path cost of stall
// detection: arming StallTimeout on every collective must add no
// steady-state allocations to the warm batch loop (the local transport
// re-arms a reused timer).
func TestStallTimeoutAddsNoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates shadow state on the pipeline's goroutine handoffs; the non-race leg enforces the bound")
	}
	d := crashDataset(t)
	build := func(armed bool) *Cluster {
		cfg := crashConfig(false)
		cfg.K = 1
		cfg.Dropout = 0
		if armed {
			cfg.StallTimeout = time.Hour // armed, never fires
		}
		cl, err := NewCluster(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	measure := func(cl *Cluster) float64 {
		epoch := 0
		train := func() {
			if _, err := cl.TrainEpochAll(epoch); err != nil {
				t.Fatal(err)
			}
			epoch++
		}
		for i := 0; i < 3; i++ {
			train()
		}
		return testing.AllocsPerRun(5, train)
	}
	plain := build(false)
	defer plain.Close()
	armed := build(true)
	defer armed.Close()
	base := measure(plain)
	withTimeout := measure(armed)
	if withTimeout > base+2 {
		t.Fatalf("armed stall timeout added allocations to the warm loop: %.1f vs %.1f per epoch", withTimeout, base)
	}
}
