package pipeline

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"salientpp/internal/ckpt"
	"salientpp/internal/dataset"
	"salientpp/internal/dist"
)

// crashDataset is sized so each epoch has several rounds (checkpoints land
// mid-epoch) while the three full training runs per transport stay fast.
func crashDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := dataset.Generate(dataset.SyntheticConfig{
		Name: "crash", NumVertices: 1000, AvgDegree: 8, FeatureDim: 8,
		NumClasses: 3, TrainFrac: 0.3, ValFrac: 0.1, FeatureNoise: 0.4,
		Materialize: true, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// crashConfig uses Dropout > 0 deliberately: the dropout RNG stream
// advances sequentially across batches, so a resume is only bitwise
// correct if the checkpoint captured and restored it.
func crashConfig(useTCP bool) ClusterConfig {
	return ClusterConfig{
		K: 2, Alpha: 0.2, VIPReorder: true,
		Hidden: 12, Layers: 2, Dropout: 0.3, UseTCP: useTCP,
		Train: Config{
			Fanouts: []int{4, 4}, BatchSize: 32,
			PipelineDepth: 3, SamplerWorkers: 2, LR: 0.01, Seed: 7,
		},
		ModelSeed: 9,
	}
}

// killComm fails (and closes) its rank's entire communicator pair once the
// shared collective counter reaches failAt — the in-process equivalent of
// a machine dying mid-epoch at an arbitrary batch: every group member's
// blocked or future collective errors out instead of deadlocking.
type killComm struct {
	dist.Comm
	grad   dist.Comm
	calls  *atomic.Int64
	failAt int64
}

func (k *killComm) AllToAll(send [][]byte) ([][]byte, error) {
	if k.calls.Add(1) >= k.failAt {
		k.Comm.Close()
		k.grad.Close()
		return nil, fmt.Errorf("injected rank death")
	}
	return k.Comm.AllToAll(send)
}

type epochResult struct {
	loss, acc []float64 // per rank
	remote    int64
}

func runEpochs(t *testing.T, cl *Cluster, from, to int, out map[int]epochResult) error {
	t.Helper()
	for e := from; e < to; e++ {
		stats, err := cl.TrainEpochAll(e)
		if err != nil {
			return err
		}
		r := epochResult{}
		for _, s := range stats {
			r.loss = append(r.loss, s.Loss)
			r.acc = append(r.acc, s.Accuracy)
			r.remote += int64(s.Gather.RemoteFetch)
		}
		out[e] = r
	}
	return nil
}

func flatWeights(cl *Cluster) []float32 {
	var out []float32
	for _, p := range cl.Ranks[0].Model().Params() {
		out = append(out, p.W.Data...)
	}
	return out
}

// testCrashRecoveryBitwise is the tentpole guarantee: kill a rank at an
// arbitrary batch mid-epoch, restore from the latest checkpoint into a
// fresh cluster, finish training — and the final weights, every epoch's
// loss/accuracy, and the per-epoch remote-fetch counts are bitwise
// identical to the uninterrupted same-seed run.
func testCrashRecoveryBitwise(t *testing.T, useTCP bool) {
	d := crashDataset(t)
	const epochs = 3

	// Reference: uninterrupted, no checkpointing.
	ref := map[int]epochResult{}
	refCl, err := NewCluster(d, crashConfig(useTCP))
	if err != nil {
		t.Fatal(err)
	}
	if err := runEpochs(t, refCl, 0, epochs, ref); err != nil {
		t.Fatal(err)
	}
	refW := flatWeights(refCl)
	refCl.Close()

	// Crashed run: checkpoint every 2 rounds and every epoch boundary;
	// the shared collective counter kills both ranks' comms partway
	// through epoch 1 (each epoch issues R+1 gather collectives per rank;
	// with ~5 rounds per rank that is ~12 per epoch across both ranks, so
	// 20 lands mid-epoch-1 at an arbitrary in-flight batch).
	dir := t.TempDir()
	cfg := crashConfig(useTCP)
	cfg.Checkpoint = ckpt.Config{Dir: dir, EveryRounds: 2, EveryEpochs: 1, Retain: 4}
	var calls atomic.Int64
	cfg.WrapComm = func(rank int, feat, grad dist.Comm) (dist.Comm, dist.Comm) {
		return &killComm{Comm: feat, grad: grad, calls: &calls, failAt: 20}, grad
	}
	got := map[int]epochResult{}
	crashCl, err := NewCluster(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	crashErr := runEpochs(t, crashCl, 0, epochs, got)
	crashCl.Close()
	if crashErr == nil {
		t.Fatal("injected rank death did not surface")
	}
	if _, ok := got[0]; !ok {
		t.Fatal("crash landed before epoch 0 completed; fix failAt")
	}
	if _, ok := got[1]; ok {
		t.Fatal("crash landed after epoch 1 completed; fix failAt")
	}

	// Restore from the latest checkpoint into a fresh cluster (fresh
	// comms, topology restored from the file — no re-partitioning, no VIP
	// re-analysis) and finish the run.
	state, path, err := ckpt.LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if state.Step.Epoch != 1 {
		t.Fatalf("latest checkpoint %s is at epoch %d, expected mid-run epoch 1", path, state.Step.Epoch)
	}
	rcfg := crashConfig(useTCP)
	rcfg.Checkpoint = ckpt.Config{Dir: dir, EveryRounds: 2, EveryEpochs: 1, Retain: 4}
	rcfg.Resume = state
	resCl, err := NewCluster(d, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer resCl.Close()
	if first := resCl.FirstEpoch(); first != state.Step.Epoch {
		t.Fatalf("FirstEpoch() = %d, checkpoint says %d", first, state.Step.Epoch)
	}
	if err := runEpochs(t, resCl, resCl.FirstEpoch(), epochs, got); err != nil {
		t.Fatal(err)
	}

	// Bitwise equivalence of the combined (crashed + resumed) trajectory.
	for e := 0; e < epochs; e++ {
		want, have := ref[e], got[e]
		if have.loss == nil {
			t.Fatalf("epoch %d missing from the recovered trajectory", e)
		}
		for r := range want.loss {
			if want.loss[r] != have.loss[r] {
				t.Errorf("epoch %d rank %d loss %.17g != reference %.17g", e, r, have.loss[r], want.loss[r])
			}
			if want.acc[r] != have.acc[r] {
				t.Errorf("epoch %d rank %d accuracy %.17g != reference %.17g", e, r, have.acc[r], want.acc[r])
			}
		}
		if want.remote != have.remote {
			t.Errorf("epoch %d remote fetches %d != reference %d", e, have.remote, want.remote)
		}
	}
	gotW := flatWeights(resCl)
	if len(gotW) != len(refW) {
		t.Fatalf("weight count %d != reference %d", len(gotW), len(refW))
	}
	for i := range refW {
		if refW[i] != gotW[i] {
			t.Fatalf("final weights diverge at %d: %v != reference %v (first difference)", i, gotW[i], refW[i])
		}
	}
}

func TestCrashRecoveryBitwiseInProcess(t *testing.T) { testCrashRecoveryBitwise(t, false) }
func TestCrashRecoveryBitwiseTCP(t *testing.T)       { testCrashRecoveryBitwise(t, true) }

// TestMidEpochResumeBitwise deterministically exercises the mid-epoch
// cursor (the crash tests may legitimately restore from an epoch boundary
// when the kill lands before a mid-epoch barrier assembles): it trains an
// uninterrupted checkpointed run, then resumes from a specific *mid-epoch*
// file — round cursor > 0, partially accumulated statistics — and demands
// the re-trained tail match the reference bitwise, including the resumed
// epoch's reported loss, accuracy, and remote-fetch count.
func TestMidEpochResumeBitwise(t *testing.T) {
	d := crashDataset(t)
	const epochs = 2
	dir := t.TempDir()
	cfg := crashConfig(false)
	cfg.Codec = "fp32" // the codec of the committed v5 checkpoint, which the resumes adopt
	cfg.Checkpoint = ckpt.Config{Dir: dir, EveryRounds: 2, EveryEpochs: 1, Retain: 100}
	ref := map[int]epochResult{}
	refCl, err := NewCluster(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := runEpochs(t, refCl, 0, epochs, ref); err != nil {
		t.Fatal(err)
	}
	refW := flatWeights(refCl)
	refCl.Close()

	// Pick a mid-epoch checkpoint of epoch 1 (EveryRounds=2 guarantees one
	// exists for every epoch with > 2 rounds; Retain keeps them all).
	target := ckpt.Step{Epoch: 1, Round: 2}
	state, err := ckpt.Load(filepath.Join(dir, ckpt.FileName(target)))
	if err != nil {
		t.Fatalf("mid-epoch checkpoint %v missing: %v", target, err)
	}
	if state.Step != target {
		t.Fatalf("loaded step %+v, want %+v", state.Step, target)
	}
	if state.Ranks[0].Partial.Batches == 0 {
		t.Fatal("mid-epoch checkpoint carries no partial statistics")
	}
	// The v5 writer's checkpoint of the same step of the same run resumes
	// the same way: decode drops its precision slot and stage timings.
	v5, err := ckpt.Load(filepath.Join("testdata", "v5-mid-epoch.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if v5.Step != target {
		t.Fatalf("v5 checkpoint step %+v, want %+v", v5.Step, target)
	}

	for _, tc := range []struct {
		name  string
		state *ckpt.TrainState
	}{{"current", state}, {"v5", v5}} {
		t.Run(tc.name, func(t *testing.T) {
			rcfg := crashConfig(false)
			rcfg.Resume = tc.state
			resCl, err := NewCluster(d, rcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer resCl.Close()
			got := map[int]epochResult{}
			if err := runEpochs(t, resCl, resCl.FirstEpoch(), epochs, got); err != nil {
				t.Fatal(err)
			}
			for e := 1; e < epochs; e++ {
				want, have := ref[e], got[e]
				for r := range want.loss {
					if want.loss[r] != have.loss[r] || want.acc[r] != have.acc[r] {
						t.Errorf("epoch %d rank %d: loss/acc %.17g/%.17g != reference %.17g/%.17g",
							e, r, have.loss[r], have.acc[r], want.loss[r], want.acc[r])
					}
				}
				if want.remote != have.remote {
					t.Errorf("epoch %d remote fetches %d != reference %d", e, have.remote, want.remote)
				}
			}
			gotW := flatWeights(resCl)
			for i := range refW {
				if refW[i] != gotW[i] {
					t.Fatalf("weights diverge at %d after mid-epoch resume", i)
				}
			}
		})
	}
}

// TestResumeValidation checks the restore path rejects configuration
// drift loudly instead of silently training something else.
func TestResumeValidation(t *testing.T) {
	d := crashDataset(t)
	dir := t.TempDir()
	cfg := crashConfig(false)
	cfg.Checkpoint = ckpt.Config{Dir: dir, EveryEpochs: 1}
	cl, err := NewCluster(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.TrainEpochAll(0); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	state, _, err := ckpt.LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}

	bad := crashConfig(false)
	bad.K = 3
	bad.Resume = state
	if _, err := NewCluster(d, bad); err == nil {
		t.Fatal("resume with mismatched K was accepted")
	}

	bad = crashConfig(false)
	bad.Train.BatchSize = 16 // changes rounds per epoch
	bad.Resume = state
	if _, err := NewCluster(d, bad); err == nil {
		t.Fatal("resume with drifted batch size was accepted")
	}

	bad = crashConfig(false)
	bad.Train.Seed = 8 // different batch permutation, same everything else
	bad.Resume = state
	if _, err := NewCluster(d, bad); err == nil {
		t.Fatal("resume with drifted seed was accepted")
	}

	bad = crashConfig(false)
	bad.Train.Fanouts = []int{5, 4} // same layer count and param shapes
	bad.Resume = state
	if _, err := NewCluster(d, bad); err == nil {
		t.Fatal("resume with drifted fanouts was accepted")
	}

	good := crashConfig(false)
	good.Resume = state
	cl2, err := NewCluster(d, good)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if _, err := cl2.TrainEpochAll(0); err == nil {
		t.Fatal("training an epoch before the resume point was accepted")
	}
	if _, err := cl2.TrainEpochAll(cl2.FirstEpoch()); err != nil {
		t.Fatal(err)
	}
}

// TestNewClusterErrorClosesGroups is the leak regression for cluster
// construction: an error after the communicator groups exist — here
// RestoreState rejecting a checkpoint taken at another hidden width, which
// validateResume does not check — must close both groups. Otherwise every
// failed call leaves them open (2·K·(K−1) sockets over TCP), and a peer
// collective on them blocks instead of failing.
func TestNewClusterErrorClosesGroups(t *testing.T) {
	d := crashDataset(t)
	dir := t.TempDir()
	cfg := crashConfig(false)
	cfg.Checkpoint = ckpt.Config{Dir: dir, EveryEpochs: 1}
	cl, err := NewCluster(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.TrainEpochAll(0); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	state, _, err := ckpt.LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}

	bad := crashConfig(false)
	bad.Hidden++
	bad.Resume = state
	var feat, grad dist.Comm
	bad.WrapComm = func(rank int, f, g dist.Comm) (dist.Comm, dist.Comm) {
		if rank == 0 {
			feat, grad = f, g
		}
		return f, g
	}
	if _, err := NewCluster(d, bad); err == nil {
		t.Fatal("resume at a different hidden width was accepted")
	}
	if feat == nil {
		t.Fatal("NewCluster failed before building its groups: the test no longer reaches the leak")
	}
	for name, c := range map[string]dist.Comm{"feature": feat, "gradient": grad} {
		c.SetTimeout(50 * time.Millisecond)
		if _, err := c.AllToAll(make([][]byte, c.Size())); !errors.Is(err, dist.ErrClosed) {
			t.Fatalf("%s group after a failed NewCluster: AllToAll returned %v, want dist.ErrClosed", name, err)
		}
	}
}

// TestCheckpointWriteFailureAborts pins the failure mode of the saver
// itself: Offer surfaces a write error only on the last-arriving rank, so
// without the group-wide teardown in failCheckpoint its peers — already
// past their own nil Offer — would block forever in the next gradient
// all-reduce and the run would hang instead of reporting (say) a full
// disk.
func TestCheckpointWriteFailureAborts(t *testing.T) {
	d := crashDataset(t)
	dir := filepath.Join(t.TempDir(), "ck")
	cfg := crashConfig(false)
	cfg.Checkpoint = ckpt.Config{Dir: dir, EveryRounds: 2, EveryEpochs: 1}
	cl, err := NewCluster(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Sabotage the directory before training: replace it with a regular
	// file so the next save's temp-file creation fails. (Permission bits
	// cannot be used here — tests may run as root, which ignores them.)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o666); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := cl.TrainEpochAll(0)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("checkpoint write failure was swallowed")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("training hung after a checkpoint write failure: peers were not unwound")
	}
}

// TestCheckpointIdleAddsNoAllocations guards the acceptance criterion that
// checkpoint support adds no steady-state allocations to the warm batch
// loop: an epoch trained with an (armed but never firing) saver must
// allocate no more than one without any saver at all. The per-round cost
// of checkpointing on non-checkpoint rounds is one integer check.
func TestCheckpointIdleAddsNoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates shadow state on the pipeline's goroutine handoffs; the non-race leg enforces the bound")
	}
	d := crashDataset(t)
	build := func(withSaver bool) *Cluster {
		cfg := crashConfig(false)
		cfg.K = 1
		cfg.Dropout = 0 // keep the measured loop arithmetic-only
		if withSaver {
			// Armed saver that never fires during the measured epochs.
			cfg.Checkpoint = ckpt.Config{Dir: t.TempDir(), EveryRounds: 1 << 30}
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
			train() // warm pools, arenas, and high-water scratch
		}
		return testing.AllocsPerRun(5, train)
	}
	plain := build(false)
	defer plain.Close()
	armed := build(true)
	defer armed.Close()
	base := measure(plain)
	withSaver := measure(armed)
	// Each epoch allocates a fixed harness set (channels, goroutines, the
	// batch permutation); the armed saver must add nothing to it. Slack of
	// 2 absorbs scheduler-dependent channel-buffer noise.
	if withSaver > base+2 {
		t.Fatalf("idle checkpointing added allocations to the warm loop: %.1f vs %.1f per epoch", withSaver, base)
	}
}
