package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"salientpp/internal/dataset"
	"salientpp/internal/dist"
	"salientpp/internal/nn"
	"salientpp/internal/rng"
	"salientpp/internal/sample"
	"salientpp/internal/tensor"
)

// epochs holds what measured training returns.
type epochs struct {
	walls     []float64 // measured epochs only (the first epoch warms up)
	trained   int       // epochs trained, warm-up included
	finalLoss float64
	accuracy  float64 // validation accuracy after accEpochs epochs; 0 when not taken
}

// trainMeasured trains one warm-up epoch, then measured epochs until both
// budget has elapsed and minEpochs are in. Accuracy is taken once, right
// after epoch accEpochs, so it does not depend on how many epochs fit.
func trainMeasured(d *deployment, budget time.Duration, minEpochs, accEpochs int) (epochs, error) {
	var e epochs
	start := time.Now()
	for {
		t0 := time.Now()
		stats, err := d.cl.TrainEpochAll(e.trained)
		if err != nil {
			return e, fmt.Errorf("epoch %d: %w", e.trained, err)
		}
		wall := time.Since(t0).Seconds()
		e.trained++
		if e.trained == 1 {
			start = time.Now() // the budget starts after the warm-up epoch
		} else {
			e.walls = append(e.walls, wall)
		}
		e.finalLoss = 0
		for _, s := range stats {
			e.finalLoss += s.Loss / float64(len(stats))
		}
		if e.trained == accEpochs {
			if e.accuracy, err = d.cl.EvaluateAll(dataset.SplitVal, fanouts, batchSize, e.trained); err != nil {
				return e, fmt.Errorf("evaluate: %w", err)
			}
		}
		if len(e.walls) >= minEpochs && e.trained >= accEpochs && time.Since(start) >= budget {
			return e, nil
		}
	}
}

// runTrain is the untraced pass of a training workload.
func runTrain(w *workload, sc scale, seed uint64, seconds float64) (*record, error) {
	rec := newRecord(w, sc, seed, seconds, 0)
	d, setups, err := timedSetups(w, sc, seed)
	if err != nil {
		return nil, err
	}
	defer d.close()
	e, err := trainMeasured(d, time.Duration(seconds*float64(time.Second)), w.minEpochs, w.accEpochs)
	if err != nil {
		return nil, err
	}
	_, rounds := d.trainPerRank()
	seeds := float64(len(d.cl.Data.TrainIDs()))
	slowest := slices.Max(e.walls)
	mid := median(e.walls)

	rec.Attempted = int64(e.trained * rounds * ranks)
	rec.declare(endToEnd, map[string]float64{
		"throughput":     seeds / mid,
		"latency_p50_ms": mid / float64(rounds) * 1e3,
		"accuracy":       e.accuracy,
		"setup_s":        median(setups),
	})
	rec.secondary("train_final_loss", e.finalLoss, "nat")
	rec.secondary("train_epoch_s_max", slowest, "s")
	rec.secondary("train_epochs_measured", float64(len(e.walls)), "count")
	rec.secondary("peak_rss_mb", peakRSSMB(), "MB")
	if math.IsNaN(e.finalLoss) || math.IsInf(e.finalLoss, 0) {
		rec.fail("training loss is not finite: %v", e.finalLoss)
	}
	if sc.floors && e.accuracy < w.accFloor {
		rec.fail("validation accuracy %.4f after %d epochs is under the floor %.2f", e.accuracy, w.accEpochs, w.accFloor)
	}
	return rec, nil
}

// traceTrain is the traced pass of a training workload: the set-up split,
// a short untraced measurement for the pipeline metrics, then one epoch's
// rounds replayed un-pipelined — once with recording off, once on.
func traceTrain(w *workload, sc scale, seed uint64, seconds float64, tracePath string) (*record, error) {
	rec := newRecord(w, sc, seed, seconds, 1)
	tr := newRecorder()
	vals := map[string]float64{}
	ds, err := setupSplit(w, sc, seed, tr, vals)
	if err != nil {
		return nil, err
	}
	d, err := deploy(w, ds, seed)
	if err != nil {
		return nil, err
	}
	defer d.close()
	e, err := trainMeasured(d, time.Duration(seconds/2*float64(time.Second)), 1, 0)
	if err != nil {
		return nil, err
	}
	untraced, _, err := replayTrain(d, nil)
	if err != nil {
		return nil, err
	}
	traced, c, err := replayTrain(d, tr)
	if err != nil {
		return nil, err
	}
	self, err := tr.finish(tracePath)
	if err != nil {
		return nil, err
	}

	perRound := func(name string) float64 { return float64(self[name]) / 1e9 / float64(c.rounds*ranks) }
	vals["sample.s_per_round"] = perRound("sample")
	vals["dist.gather_s_per_round"] = perRound("dist.gather")
	vals["nn.forward_s_per_round"] = perRound("nn.forward")
	vals["nn.loss_s_per_round"] = perRound("nn.loss")
	vals["nn.backward_s_per_round"] = perRound("nn.backward")
	vals["dist.grad_reduce_s_per_round"] = perRound("dist.grad_reduce")
	vals["nn.opt_s_per_round"] = perRound("nn.opt")
	vals["dist.peer_wait_s_per_round"] = perRound("dist.peer_wait")
	c.fill(vals)
	vals["dist.grad_bytes_per_round"] = float64(c.gradBytes) / float64(c.rounds)

	// The pipeline's stages as the replay ran them one after another, per
	// rank and epoch: how much of that serial time the real, pipelined
	// epoch hides, and how close it runs to its busiest stage.
	glue := perRound("round")
	compute := vals["nn.forward_s_per_round"] + vals["nn.loss_s_per_round"] + vals["nn.backward_s_per_round"] + vals["nn.opt_s_per_round"] + glue
	stages := []float64{vals["sample.s_per_round"], vals["dist.gather_s_per_round"], compute, vals["dist.grad_reduce_s_per_round"], vals["dist.peer_wait_s_per_round"]}
	var serial, busiest float64
	for _, s := range stages {
		serial += s * float64(c.rounds)
		busiest = max(busiest, s*float64(c.rounds))
	}
	wall := median(e.walls)
	vals["pipeline.efficiency"] = busiest / wall
	vals["pipeline.hidden_s_per_epoch"] = serial - wall
	vals["trace.overhead_share"] = (traced - untraced).Seconds() / untraced.Seconds()
	vals["trace.self_sum_share"] = sumSelf(self, "round", "sample", "dist.gather", "nn.forward", "nn.loss", "nn.backward", "dist.grad_reduce", "nn.opt", "dist.peer_wait") / (traced.Seconds() * ranks)
	vals["proc.peak_rss_mb"] = peakRSSMB()

	rec.Attempted = int64(c.rounds * ranks)
	rec.declare(perLayer, vals)
	step := serial / float64(c.rounds)
	rec.secondary("share_nn_of_step", (compute-glue)/step, "share")
	rec.secondary("share_gather_of_step", vals["dist.gather_s_per_round"]/step, "share")
	rec.secondary("untraced_epoch_s", wall, "s")
	rec.secondary("replay_epoch_s", traced.Seconds(), "s")
	if math.IsNaN(c.loss) || math.IsInf(c.loss, 0) {
		rec.fail("replay loss is not finite: %v", c.loss)
	}
	return rec, nil
}

// sumSelf adds the self time, in seconds, of the named spans.
func sumSelf(self map[string]int64, names ...string) float64 {
	var ns int64
	for _, n := range names {
		ns += self[n]
	}
	return float64(ns) / 1e9
}

// barrier holds the ranks of a replay together before a collective, so the
// collective's own span times the transfer and the wait for a slower peer
// gets a span of its own. It is a one-float all-reduce on an in-process
// comm group: closing the group releases every waiter with an error.
type barrier []dist.Comm

func newBarrier() (barrier, error) { return dist.NewLocalGroup(ranks) }

func (b barrier) wait(tr *recorder, parent int32, rank, round int) error {
	s := tr.begin("dist.peer_wait", parent, rank, round)
	defer tr.end(s)
	var one [1]float32
	return b[rank].AllReduceSum(one[:])
}

func (b barrier) close() {
	for _, c := range b {
		c.Close()
	}
}

// replayCounts are the counts one replay takes from values the layers'
// calls return: MFG sizes, dist.GatherStats and the comms' byte counters.
type replayCounts struct {
	rounds               int
	inputs, edges        int64
	remoteRows, hits     int64
	featBytes, gradBytes int64
	gflop                float64 // computed from MFG shapes × layer dims, not measured
	loss                 float64
}

func (c *replayCounts) add(o replayCounts) {
	c.inputs += o.inputs
	c.edges += o.edges
	c.remoteRows += o.remoteRows
	c.hits += o.hits
	c.featBytes += o.featBytes
	c.gradBytes += o.gradBytes
	c.gflop += o.gflop
	c.loss += o.loss
}

// fill writes the per-round counts both kinds of replay share. A round is
// one lockstep step of all ranks, so counts are summed over ranks.
func (c *replayCounts) fill(vals map[string]float64) {
	n := float64(c.rounds)
	vals["sample.inputs_per_round"] = float64(c.inputs) / n
	vals["sample.edges_per_round"] = float64(c.edges) / n
	vals["nn.gflop_per_round"] = c.gflop / n
	vals["dist.feat_bytes_per_round"] = float64(c.featBytes) / n
	vals["dist.remote_rows_per_round"] = float64(c.remoteRows) / n
	if c.remoteRows > 0 {
		vals["dist.bytes_per_remote_row"] = float64(c.featBytes) / float64(c.remoteRows)
	}
	if c.hits+c.remoteRows > 0 {
		vals["cache.hit_rate"] = float64(c.hits) / float64(c.hits+c.remoteRows)
	}
}

// mfgGFLOP computes a batch's arithmetic from its MFG: per layer two dense
// products of NumDst×in by in×out (self and neighbour weights) and one add
// per sampled edge and input feature. Training adds the backward pass: two
// more products per forward product and one scatter per aggregation.
func mfgGFLOP(m *sample.MFG, hidden int, training bool) float64 {
	var gemm, agg float64
	for li, b := range m.Blocks {
		in, out := hidden, hidden
		if li == 0 {
			in = featureDim
		}
		if li == len(m.Blocks)-1 {
			out = numClasses
		}
		gemm += 2 * 2 * float64(b.NumDst) * float64(in) * float64(out)
		agg += float64(b.NumEdges()) * float64(in)
	}
	if training {
		return (3*gemm + 2*agg) / 1e9
	}
	return (gemm + agg) / 1e9
}

// replayTrain drives one epoch's rounds through the layers directly, all
// ranks in lockstep (the collectives keep them matched) and nothing
// pipelined: Sample → Gather → Forward → SoftmaxCrossEntropy → Backward →
// GradReducer.Reduce → Adam.Step, on seeded batches, with a span around
// each call when tr is not nil. It returns the slowest rank's wall.
func replayTrain(d *deployment, tr *recorder) (time.Duration, replayCounts, error) {
	trainPer, rounds := d.trainPerRank()
	return replayRanks(rounds, d.cl.Close, func(r int, bar barrier) (replayCounts, error) {
		return replayTrainRank(d, tr, bar, r, trainPer[r], rounds)
	})
}

// replayRanks runs one goroutine per rank, sums their counts and returns
// the slowest rank's wall. When a rank fails, unblock and the barrier's
// close release the peers waiting for it in a matched collective.
func replayRanks(rounds int, unblock func(), rank func(r int, bar barrier) (replayCounts, error)) (time.Duration, replayCounts, error) {
	total := replayCounts{rounds: rounds}
	bar, err := newBarrier()
	if err != nil {
		return 0, total, err
	}
	defer bar.close()
	counts := make([]replayCounts, ranks)
	walls := make([]time.Duration, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			counts[r], errs[r] = rank(r, bar)
			walls[r] = time.Since(t0)
			if errs[r] != nil {
				unblock()
				bar.close()
			}
		}()
	}
	wg.Wait()
	var wall time.Duration
	for r := range counts {
		if errs[r] != nil {
			return 0, total, fmt.Errorf("replay rank %d: %w", r, errs[r])
		}
		total.add(counts[r])
		wall = max(wall, walls[r])
	}
	total.loss /= float64(ranks)
	return wall, total, nil
}

func replayTrainRank(d *deployment, tr *recorder, bar barrier, r int, trainIDs []int32, rounds int) (replayCounts, error) {
	var c replayCounts
	rk := d.cl.Ranks[r]
	store, model := rk.Store(), rk.Model()
	base := rng.New(d.seed ^ 0x7e91a7).Split(uint64(r))
	batches := sample.EpochBatches(trainIDs, batchSize, base.Split(0))
	worker := rk.Sampler().NewWorker(rng.New(0))
	reducer := dist.NewGradReducer(d.grad[r], dist.CodecFP32)
	opt := nn.NewAdam(learnRate)
	labels := d.cl.Data.Labels
	pool := tensor.NewPool()
	featBefore, gradBefore := d.feat[r].BytesSent(), d.grad[r].BytesSent()
	var batchLabels []int32

	for round := 0; round < rounds; round++ {
		var seeds []int32 // a rank with fewer batches pads with empty rounds
		if round < len(batches) {
			seeds = batches[round]
		}
		root := tr.begin("round", -1, r, round)

		s := tr.begin("sample", root, r, round)
		worker.SetRNG(base.Split(uint64(1 + round)))
		mfg := worker.Sample(seeds)
		tr.end(s)
		c.inputs += int64(len(mfg.InputIDs()))
		c.edges += mfg.TotalEdges()
		c.gflop += mfgGFLOP(mfg, d.w.hidden, true)

		if err := bar.wait(tr, root, r, round); err != nil {
			return c, err
		}
		s = tr.begin("dist.gather", root, r, round)
		feats, gs, err := store.Gather(mfg.InputIDs())
		tr.end(s)
		if err != nil {
			return c, err
		}
		c.remoteRows += int64(gs.RemoteFetch)
		c.hits += int64(gs.CacheHits)

		s = tr.begin("nn.forward", root, r, round)
		logits, err := model.Forward(mfg, feats, true)
		tr.end(s)
		if err != nil {
			return c, err
		}

		batchLabels = batchLabels[:0]
		for _, v := range mfg.Seeds {
			batchLabels = append(batchLabels, labels[v])
		}
		dL := pool.Get(logits.Rows, logits.Cols)
		s = tr.begin("nn.loss", root, r, round)
		loss := tensor.SoftmaxCrossEntropy(logits, batchLabels, dL)
		tr.end(s)
		if len(seeds) > 0 {
			c.loss += loss / float64(len(batches))
		}

		model.ZeroGrad()
		s = tr.begin("nn.backward", root, r, round)
		model.Backward(dL)
		tr.end(s)
		pool.Put(dL)

		if err := bar.wait(tr, root, r, round); err != nil {
			return c, err
		}
		s = tr.begin("dist.grad_reduce", root, r, round)
		for li := len(model.Layers) - 1; li >= 0 && err == nil; li-- {
			var mats []*tensor.Matrix
			for _, p := range model.LayerParams(li) {
				mats = append(mats, p.G)
			}
			err = reducer.Reduce(mats, nil)
		}
		tr.end(s)
		if err != nil {
			return c, err
		}
		for _, p := range model.Params() {
			p.G.Scale(1 / float32(ranks))
		}

		s = tr.begin("nn.opt", root, r, round)
		opt.Step(model.Params())
		tr.end(s)

		store.Release(feats)
		mfg.Release()
		tr.end(root)
	}
	model.ReleaseBatch()
	c.featBytes = d.feat[r].BytesSent() - featBefore
	c.gradBytes = d.grad[r].BytesSent() - gradBefore
	return c, nil
}
