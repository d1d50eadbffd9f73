// Crash recovery: kills a distributed training run at an arbitrary
// mid-epoch batch, restores it from the latest coordinated checkpoint,
// and verifies the recovered run is *bitwise identical* — final weights,
// per-epoch loss trajectory, and remote-fetch counts — to a same-seed run
// that was never interrupted.
//
// The walkthrough exercises the full fault-tolerance stack:
//
//  1. train with ClusterConfig.Checkpoint: barrier-consistent saves every
//     2 pipeline rounds plus every epoch boundary, written atomically
//     (temp file + rename) with retain-K rotation;
//  2. kill: a fault-injected communicator (ClusterConfig.WrapComm, the
//     same hook the crash tests use) closes both of a rank's collective
//     groups partway through epoch 1, exactly like a machine dying — the
//     surviving rank's blocked collectives error out instead of hanging;
//  3. restore: LoadLatestCheckpoint picks the newest valid file (torn
//     files are skipped via CRC), and ClusterConfig.Resume rebuilds the
//     cluster from it — partition layout, VIP cache contents, weights,
//     Adam moments, and the dropout RNG stream — skipping partitioning
//     and VIP re-analysis entirely;
//  4. verify: the combined crashed+resumed trajectory matches the
//     uninterrupted reference bit for bit;
//  5. live shrink: the same death under elastic training (TrainElastic)
//     needs no operator at all — the survivors detect the stall, agree on
//     the newest checkpoint they all hold, absorb the dead rank's shard
//     and cache slice, and finish on K-1 machines, bitwise identical to a
//     cold K-1 restart from that same checkpoint.
//
// Run with:
//
//	go run ./examples/crash-recovery
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"salientpp"
	"salientpp/internal/dist"
)

const (
	dataSeed  = 11
	trainSeed = 23
	modelSeed = 5
	epochs    = 3
)

func config() salientpp.ClusterConfig {
	return salientpp.ClusterConfig{
		K: 2, Alpha: 0.25, VIPReorder: true,
		// Dropout > 0 on purpose: its RNG stream advances batch by batch,
		// so recovery is only exact because the checkpoint restores it.
		Hidden: 24, Layers: 2, Dropout: 0.3,
		Train: salientpp.TrainConfig{
			Fanouts: []int{8, 4}, BatchSize: 32,
			PipelineDepth: 4, SamplerWorkers: 2, LR: 0.01, Seed: trainSeed,
		},
		ModelSeed: modelSeed,
	}
}

// killComm injects the crash: once the shared collective counter reaches
// failAt, it closes both of its rank's communicator groups — the
// in-process equivalent of the machine dropping off the network. With
// failAt 0 it only counts, which is how the reference run calibrates
// where "mid-epoch 1" lands.
type killComm struct {
	dist.Comm
	grad   dist.Comm
	calls  *atomic.Int64
	failAt int64
}

func (k *killComm) AllToAll(send [][]byte) ([][]byte, error) {
	if n := k.calls.Add(1); k.failAt > 0 && n >= k.failAt {
		k.Comm.Close()
		k.grad.Close()
		return nil, fmt.Errorf("injected rank death")
	}
	return k.Comm.AllToAll(send)
}

type trajectory struct {
	loss   []float64
	remote []int64
}

func train(cl *salientpp.Cluster, from int, tr *trajectory) error {
	for e := from; e < epochs; e++ {
		stats, err := cl.TrainEpochAll(e)
		if err != nil {
			return err
		}
		var loss float64
		var remote int64
		for _, s := range stats {
			loss += s.Loss / float64(len(stats))
			remote += int64(s.Gather.RemoteFetch)
		}
		for len(tr.loss) <= e {
			tr.loss = append(tr.loss, 0)
			tr.remote = append(tr.remote, 0)
		}
		tr.loss[e], tr.remote[e] = loss, remote
		fmt.Printf("    epoch %d: loss %.6f, remote rows %d\n", e, loss, remote)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	ds, err := salientpp.NewProductsDataset(4000, true, dataSeed)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "salientpp-ckpt-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Reference: the run that never crashes. Its communicators count
	// feature collectives so the kill below can be aimed mid-epoch 1.
	fmt.Println("1. reference run (uninterrupted, same seeds):")
	var ref trajectory
	var refCalls atomic.Int64
	refCfg := config()
	refCfg.WrapComm = func(rank int, feat, grad dist.Comm) (dist.Comm, dist.Comm) {
		return &killComm{Comm: feat, grad: grad, calls: &refCalls}, grad
	}
	refCl, err := salientpp.NewCluster(ds, refCfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := train(refCl, 0, &ref); err != nil {
		log.Fatal(err)
	}
	refW := weights(refCl)
	refCl.Close()

	// Checkpointed run with a fault-injected communicator.
	fmt.Println("\n2. checkpointed run, killed mid-epoch 1:")
	cfg := config()
	cfg.Checkpoint = salientpp.CheckpointConfig{Dir: dir, EveryRounds: 2, EveryEpochs: 1, Retain: 4}
	// Aim the kill 1.5 epochs in: an arbitrary in-flight batch of epoch 1.
	failAt := refCalls.Load() * 3 / (2 * epochs)
	var calls atomic.Int64
	cfg.WrapComm = func(rank int, feat, grad dist.Comm) (dist.Comm, dist.Comm) {
		return &killComm{Comm: feat, grad: grad, calls: &calls, failAt: failAt}, grad
	}
	var got trajectory
	crashCl, err := salientpp.NewCluster(ds, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := train(crashCl, 0, &got); err != nil {
		// The survivor unwinds from whichever collective it was blocked in
		// (send or recv varies with scheduling), so print a stable summary
		// to keep the walkthrough's output byte-identical run to run.
		fmt.Println("    crash: rank died mid-collective; survivors unwound with a group-closed error")
	} else {
		log.Fatal("the injected failure never fired; raise failAt")
	}
	crashCl.Close()

	// Restore from the newest valid checkpoint and finish the run.
	state, path, err := salientpp.LoadLatestCheckpoint(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n3. restored %s (epoch %d, round %d of %d):\n",
		filepath.Base(path), state.Step.Epoch, state.Step.Round, state.Rounds)
	rcfg := config()
	rcfg.Checkpoint = salientpp.CheckpointConfig{Dir: dir, EveryRounds: 2, EveryEpochs: 1, Retain: 4}
	rcfg.Resume = state
	resCl, err := salientpp.NewCluster(ds, rcfg)
	if err != nil {
		log.Fatal(err)
	}
	defer resCl.Close()
	if err := train(resCl, resCl.FirstEpoch(), &got); err != nil {
		log.Fatal(err)
	}

	// Bitwise comparison.
	fmt.Println("\n4. recovered vs reference:")
	ok := true
	for e := 0; e < epochs; e++ {
		match := got.loss[e] == ref.loss[e] && got.remote[e] == ref.remote[e]
		fmt.Printf("    epoch %d: loss %.6f vs %.6f, remote %d vs %d — %s\n",
			e, got.loss[e], ref.loss[e], got.remote[e], ref.remote[e], verdict(match))
		ok = ok && match
	}
	gotW := weights(resCl)
	wMatch := len(gotW) == len(refW)
	for i := 0; wMatch && i < len(refW); i++ {
		wMatch = gotW[i] == refW[i]
	}
	fmt.Printf("    final weights (%d values) — %s\n", len(refW), verdict(wMatch))
	if !ok || !wMatch {
		log.Fatal("recovery was not bitwise identical")
	}
	fmt.Println("\ncrash + restore reproduced the uninterrupted run bit for bit")

	fmt.Println("\n5. live shrink: elastic training survives the same death unattended:")
	demoLiveShrink(ds)
}

// demoLiveShrink runs a 3-rank elastic training job, kills rank 2 midway
// through epoch 1, and lets the survivors shrink the run live: stall
// detection, pairwise probes, membership consensus on the newest common
// checkpoint, shard/cache re-layout, and a 2-rank finish. It then verifies
// the live-shrunk run against a cold 2-rank restart from the very same
// shrunk state — bit for bit.
func demoLiveShrink(ds *salientpp.Dataset) {
	const victim = 2
	dir, err := os.MkdirTemp("", "salientpp-elastic-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	base := func() salientpp.ClusterConfig {
		cfg := config()
		cfg.K = 3
		cfg.Checkpoint = salientpp.CheckpointConfig{Dir: dir, EveryRounds: 2, EveryEpochs: 1, Retain: 8}
		cfg.StallTimeout = time.Second
		return cfg
	}

	// Calibrate: one healthy epoch counts the victim's collectives so the
	// kill below lands mid-epoch 1.
	counter := dist.NewChaos(dist.ChaosConfig{Seed: 1})
	ccfg := base()
	ccfg.Checkpoint = salientpp.CheckpointConfig{}
	ccfg.StallTimeout = 0
	ccfg.WrapComm = func(rank int, feat, grad dist.Comm) (dist.Comm, dist.Comm) {
		if rank == victim {
			return counter.WrapPair(feat, grad)
		}
		return feat, grad
	}
	cal, err := salientpp.NewCluster(ds, ccfg)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := cal.TrainEpochAll(0); err != nil {
		log.Fatal(err)
	}
	perEpoch := counter.Calls()
	cal.Close()

	// Elastic run: the chaos harness kills rank 2 (closes both collective
	// groups, and keeps failing its recovery probes — a dead machine stays
	// dead) halfway through epoch 1.
	ch := dist.NewChaos(dist.ChaosConfig{Seed: 2, DropAtCall: perEpoch + perEpoch/2})
	ecfg := base()
	ecfg.WrapComm = func(rank int, feat, grad dist.Comm) (dist.Comm, dist.Comm) {
		if rank == victim {
			return ch.WrapPair(feat, grad)
		}
		return feat, grad
	}
	live, rep, err := salientpp.TrainElastic(ds, ecfg, epochs)
	if err != nil {
		log.Fatal(err)
	}
	defer live.Close()
	ev := rep.RegroupEvents[0]
	fmt.Printf("    rank %d died; %d stall detected, %d regroup: survivors %v resume at epoch %d (%d rounds replayed)\n",
		victim, rep.StallsDetected, rep.Regroups, ev.Survivors, ev.State.Step.Epoch, rep.RoundsReplayed)

	// Control: a cold K-1 restart from the same shrunk state.
	cold := config()
	cold.K = len(ev.Survivors)
	cold.Resume = ev.State
	coldCl, err := salientpp.NewCluster(ds, cold)
	if err != nil {
		log.Fatal(err)
	}
	defer coldCl.Close()
	ok := true
	for e := ev.State.Step.Epoch; e < epochs; e++ {
		stats, err := coldCl.TrainEpochAll(e)
		if err != nil {
			log.Fatal(err)
		}
		var coldLoss, liveLoss float64
		for _, s := range stats {
			coldLoss += s.Loss / float64(len(stats))
		}
		liveStats := rep.Epochs[e]
		for _, s := range liveStats {
			liveLoss += s.Loss / float64(len(liveStats))
		}
		match := coldLoss == liveLoss
		fmt.Printf("    epoch %d: live loss %.6f vs cold restart %.6f — %s\n",
			e, liveLoss, coldLoss, verdict(match))
		ok = ok && match
	}
	liveW, coldW := weights(live), weights(coldCl)
	wMatch := len(liveW) == len(coldW)
	for i := 0; wMatch && i < len(coldW); i++ {
		wMatch = liveW[i] == coldW[i]
	}
	fmt.Printf("    final weights (%d values) — %s\n", len(coldW), verdict(wMatch))
	if !ok || !wMatch {
		log.Fatal("live shrink did not match the cold restart")
	}
	fmt.Println("\nthe live-shrunk run matches a cold 2-rank restart bit for bit")
}

func weights(cl *salientpp.Cluster) []float32 {
	var out []float32
	for _, p := range cl.Ranks[0].Model().Params() {
		out = append(out, p.W.Data...)
	}
	return out
}

func verdict(ok bool) string {
	if ok {
		return "bitwise identical"
	}
	return "MISMATCH"
}
