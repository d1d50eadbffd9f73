package main

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"salientpp/internal/dist"
	"salientpp/internal/rng"
	"salientpp/internal/sample"
	"salientpp/internal/serve"
	"salientpp/internal/tensor"
)

// Phases of a serving run; each draws its own request stream.
const (
	phaseWarm = iota
	phaseClosed
	phaseOpen
	phaseReplay
)

// slot is one caller's private state, so checking a reply needs no lock.
type slot struct {
	out     []float32
	queueMS []float64 // admission-queue wait of each good reply
}

// Whether the latest good reply for a vertex named its label.
const (
	unseen int32 = iota
	wrongLabel
	rightLabel
)

// client turns Server.Predict into a call the load generator can drive,
// and checks every reply: no error, not shed, not degraded, logits finite.
type client struct {
	srv     *serve.Server
	labels  []int32
	slots   []slot
	verdict []atomic.Int32 // per vertex; callers may ask for one vertex at once
}

func newClient(d *deployment) *client {
	c := &client{
		srv: d.srv, labels: d.cl.Data.Labels, slots: make([]slot, max(callers, maxInFlight)),
		verdict: make([]atomic.Int32, d.cl.Data.NumVertices()),
	}
	for i := range c.slots {
		c.slots[i].out = make([]float32, d.srv.Classes())
	}
	return c
}

func (c *client) do(slotID int, v int32) bool {
	s := &c.slots[slotID]
	st, err := c.srv.Predict(v, s.out)
	if err != nil || st.Degraded {
		return false
	}
	for _, x := range s.out {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return false
		}
	}
	if int32(tensor.ArgmaxRow(s.out)) == c.labels[v] {
		c.verdict[v].Store(rightLabel)
	} else {
		c.verdict[v].Store(wrongLabel)
	}
	s.queueMS = append(s.queueMS, float64(st.Queue)/float64(time.Millisecond))
	return true
}

// labelAccuracy returns the share of distinct vertices with a good reply
// whose reply named the vertex's label, and every good reply's queue wait.
// Counting vertices, not replies, keeps the handful of hot vertices that
// draw most requests from deciding the number.
func (c *client) labelAccuracy() (acc float64, queueMS []float64) {
	var seen, right float64
	for i := range c.verdict {
		switch c.verdict[i].Load() {
		case rightLabel:
			right++
			seen++
		case wrongLabel:
			seen++
		}
	}
	for i := range c.slots {
		queueMS = append(queueMS, c.slots[i].queueMS...)
	}
	if seen > 0 {
		acc = right / seen
	}
	return acc, queueMS
}

// prepare trains the workload's preparatory epochs and replaces the server
// built over untrained weights with one over the trained snapshot.
func prepare(d *deployment, rec *record) error {
	d.stopServer()
	t0 := time.Now()
	for e := 0; e < d.w.prepEpochs; e++ {
		if _, err := d.cl.TrainEpochAll(e); err != nil {
			return fmt.Errorf("preparatory epoch %d: %w", e, err)
		}
	}
	rec.secondary("prep_train_s", time.Since(t0).Seconds(), "s")
	return d.startServer()
}

// checkServing applies the output checks both serving passes share.
func checkServing(w *workload, sc scale, rec *record, acc float64, snap serve.Snapshot) {
	if sc.floors && acc < w.accFloor {
		rec.fail("label accuracy %.4f over the vertices served is under the floor %.2f", acc, w.accFloor)
	}
	if w.online && snap.CacheInstalls == 0 {
		rec.fail("online cache installed no epoch")
	}
	if !w.online && snap.CacheInstalls != 0 {
		rec.fail("static cache installed %d epochs", snap.CacheInstalls)
	}
}

// runServe is the untraced pass of a serving workload: a closed loop of
// callers, each waiting for its reply, for the whole measured time.
func runServe(w *workload, sc scale, seed uint64, seconds float64) (*record, error) {
	rec := newRecord(w, sc, seed, seconds, 0)
	d, setups, err := timedSetups(w, sc, seed)
	if err != nil {
		return nil, err
	}
	defer d.close()
	if err := prepare(d, rec); err != nil {
		return nil, err
	}
	dur := time.Duration(seconds * float64(time.Second))
	warm := newClient(d)
	closedLoop(callers, dur/10, d.requestStream(phaseWarm), warm.do)

	c := newClient(d)
	st := summarize(closedLoop(callers, dur, d.requestStream(phaseClosed), c.do), dur, segments, failLatency)
	acc, _ := c.labelAccuracy()
	snap := d.srv.Snapshot()

	rec.Attempted, rec.Failed = st.attempted, st.failed
	rec.declare(endToEnd, map[string]float64{
		"throughput":     st.rps,
		"latency_p50_ms": st.p50ms,
		"accuracy":       acc,
		"setup_s":        median(setups),
	})
	rec.secondary("closed_p99_ms", st.p99ms, "ms")
	rec.secondary("fail_share", float64(st.failed)/float64(st.attempted), "share")
	rec.secondary("serve_batch_mean", snap.MeanBatch, "count")
	rec.secondary("cache_hit_rate", snap.CacheHitRate, "share")
	rec.secondary("peak_rss_mb", peakRSSMB(), "MB")
	checkServing(w, sc, rec, acc, snap)
	return rec, nil
}

// traceServe is the traced pass of a serving workload: the set-up split,
// a live closed phase and a live open phase for the serve layer's own
// numbers, then coalesced batches at the observed mean size replayed
// through the layers — once with recording off, once on.
func traceServe(w *workload, sc scale, seed uint64, seconds float64, tracePath string) (*record, error) {
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
	if err := prepare(d, rec); err != nil {
		return nil, err
	}
	dur := time.Duration(seconds / 2 * float64(time.Second))

	c := newClient(d)
	closed := summarize(closedLoop(callers, dur, d.requestStream(phaseClosed), c.do), dur, segments, failLatency)
	acc, queueMS := c.labelAccuracy()
	snap := d.srv.Snapshot()

	// Open loop: seeded Poisson arrivals at a fixed rate well under the
	// closed-loop capacity, each timed from the instant it was due.
	due := poissonSchedule(rng.New(seed^0x09e7).Split(1), w.openRPS, dur)
	oc := newClient(d)
	samples, late := openLoop(due, dur, maxInFlight, d.requestStream(phaseOpen), oc.do)
	open := summarize(samples, dur, segments, failLatency)
	lateMS := make([]float64, len(late))
	for i, l := range late {
		lateMS[i] = float64(l) / float64(time.Millisecond)
	}
	final := d.srv.Snapshot()
	d.stopServer()

	rounds := float64(max(snap.Rounds, 1))
	vals["serve.queue_ms_p50"] = quantile(queueMS, 0.50)
	vals["serve.queue_ms_p99"] = quantile(queueMS, 0.99)
	vals["serve.batch_mean"] = snap.MeanBatch
	vals["serve.rounds"] = float64(snap.Rounds)
	vals["serve.shed"] = float64(snap.Shed)
	vals["serve.degraded"] = float64(snap.Degraded)
	vals["cache.installs"] = float64(final.CacheInstalls)
	vals["cache.churn_rows"] = float64(final.CacheChurnRows)
	vals["serve.closed_p99_ms"] = closed.p99ms
	vals["serve.open_p50_ms"] = open.p50ms
	vals["serve.open_p99_ms"] = open.p99ms
	vals["serve.open_fail_share"] = float64(open.failed) / float64(max(open.attempted, 1))
	vals["serve.open_slo_miss_share"] = open.sloMissShare
	vals["loadgen.late_p99_ms"] = quantile(lateMS, 0.99)

	// A short replay first, so the untraced one does not pay for cold pools.
	if _, _, err := replayServe(d, nil, snap.MeanBatch, sc.replayBatches/4); err != nil {
		return nil, err
	}
	untraced, _, err := replayServe(d, nil, snap.MeanBatch, sc.replayBatches)
	if err != nil {
		return nil, err
	}
	traced, rc, err := replayServe(d, tr, snap.MeanBatch, sc.replayBatches)
	if err != nil {
		return nil, err
	}
	self, err := tr.finish(tracePath)
	if err != nil {
		return nil, err
	}
	perRound := func(name string) float64 { return float64(self[name]) / 1e9 / float64(rc.rounds*ranks) }
	vals["sample.s_per_round"] = perRound("sample")
	vals["dist.gather_s_per_round"] = perRound("dist.gather")
	vals["nn.infer_s_per_round"] = perRound("nn.infer")
	vals["dist.peer_wait_s_per_round"] = perRound("dist.peer_wait")
	rc.fill(vals)
	// The live server's own counts replace the replay's where it has them:
	// the replay reads the cache epoch the cluster handed over, the live
	// server (online mode) the epochs it installed.
	vals["cache.hit_rate"] = snap.CacheHitRate
	vals["dist.remote_rows_per_round"] = float64(snap.RemoteFetches) / rounds
	vals["dist.feat_bytes_per_round"] = float64(snap.BytesSent) / rounds
	if snap.RemoteFetches > 0 {
		vals["dist.bytes_per_remote_row"] = float64(snap.BytesSent) / float64(snap.RemoteFetches)
	}
	vals["trace.overhead_share"] = (traced - untraced).Seconds() / untraced.Seconds()
	vals["trace.self_sum_share"] = sumSelf(self, "round", "sample", "dist.gather", "nn.infer", "dist.peer_wait") / (traced.Seconds() * ranks)
	vals["proc.peak_rss_mb"] = peakRSSMB()

	rec.Attempted = closed.attempted + open.attempted
	rec.Failed = closed.failed + open.failed
	rec.declare(perLayer, vals)
	rec.secondary("closed_rps", closed.rps, "1/s")
	rec.secondary("closed_p50_ms", closed.p50ms, "ms")
	rec.secondary("open_offered", float64(open.attempted), "count")
	rec.secondary("serve_label_acc", acc, "share")
	rec.secondary("replay_batch_s", traced.Seconds()/float64(rc.rounds), "s")
	checkServing(w, sc, rec, acc, final)
	return rec, nil
}

// replayServe drives batches coalesced batches through the layers a
// serving round calls — Sample → Gather → Frozen.Forward — all ranks in
// lockstep over a fresh comm group built the way serve.New builds its own.
// Each round draws batchMean requests per rank from the workload's stream
// and routes them to their owners, which sort and deduplicate them as the
// server does.
func replayServe(d *deployment, tr *recorder, batchMean float64, batches int) (time.Duration, replayCounts, error) {
	pick := d.requestStream(phaseReplay)
	perRound := max(1, int(math.Round(batchMean*ranks)))
	seeds := make([][][]int32, ranks) // [rank][round]
	for r := range seeds {
		seeds[r] = make([][]int32, batches)
	}
	for round, i := 0, 0; round < batches; round++ {
		for j := 0; j < perRound; j, i = j+1, i+1 {
			v := pick(i, float64(round)/float64(batches))
			r := d.cl.Layout.Owner(v)
			seeds[r][round] = append(seeds[r][round], v)
		}
		for r := range seeds {
			slices.Sort(seeds[r][round])
			seeds[r][round] = slices.Compact(seeds[r][round])
		}
	}

	var comms []dist.Comm
	var err error
	if d.w.link != nil {
		comms, err = dist.NewTCPGroup(ranks)
	} else {
		comms, err = dist.NewLocalGroup(ranks)
	}
	if err != nil {
		return 0, replayCounts{}, err
	}
	closeComms := func() {
		for _, c := range comms {
			c.Close()
		}
	}
	defer closeComms()
	if d.w.link != nil {
		chaos := d.w.link.chaos()
		for r := range comms {
			comms[r] = chaos.Wrap(comms[r])
		}
	}

	return replayRanks(batches, closeComms, func(r int, bar barrier) (replayCounts, error) {
		return replayServeRank(d, tr, bar, r, comms[r], seeds[r])
	})
}

func replayServeRank(d *deployment, tr *recorder, bar barrier, r int, comm dist.Comm, seeds [][]int32) (replayCounts, error) {
	var c replayCounts
	rk := d.cl.Ranks[r]
	store, err := rk.Store().Sibling(comm)
	if err != nil {
		return c, err
	}
	model := rk.Model().Freeze()
	smp, err := sample.NewSampler(d.cl.Data.Graph, fanouts)
	if err != nil {
		return c, err
	}
	base := rng.New(d.seed).Split(uint64(r))
	worker := smp.NewWorker(rng.New(0))
	for round, s := range seeds {
		root := tr.begin("round", -1, r, round)

		sp := tr.begin("sample", root, r, round)
		worker.SetRNG(base.Split(uint64(round)))
		mfg := worker.Sample(s)
		tr.end(sp)
		c.inputs += int64(len(mfg.InputIDs()))
		c.edges += mfg.TotalEdges()
		c.gflop += mfgGFLOP(mfg, d.w.hidden, false)

		if err := bar.wait(tr, root, r, round); err != nil {
			return c, err
		}
		sp = tr.begin("dist.gather", root, r, round)
		feats, gs, err := store.Gather(mfg.InputIDs())
		tr.end(sp)
		if err != nil {
			return c, err
		}
		c.remoteRows += int64(gs.RemoteFetch)
		c.hits += int64(gs.CacheHits)

		if len(s) > 0 { // the server skips the forward of an empty batch too
			sp = tr.begin("nn.infer", root, r, round)
			logits, err := model.Forward(mfg, feats)
			tr.end(sp)
			if err != nil {
				return c, err
			}
			for _, x := range logits.Data {
				if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
					return c, fmt.Errorf("round %d: logits are not finite", round)
				}
			}
		}
		store.Release(feats)
		mfg.Release()
		model.ReleaseBatch()
		tr.end(root)
	}
	c.featBytes = comm.BytesSent()
	return c, nil
}
