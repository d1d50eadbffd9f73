// Package pipeline implements SALIENT++'s distributed minibatch training
// loop with the deep minibatch-preparation pipeline of §4.3 / Appendix D:
// neighborhood sampling, the feature gather, model computation, and
// gradient synchronization — with up to PipelineDepth minibatches in
// flight so communication overlaps computation. The gather is a stream: because sampling runs ahead, each
// round's request ids travel in the same collective as the previous
// round's feature rows, one feature collective per round plus a final
// flush.
//
// Each "machine" is one goroutine group driving its own communicators.
// Collectives are matched across ranks by construction: every rank
// processes the same number of rounds per epoch (padding with empty
// batches when training-vertex counts are ragged) and issues feature
// gathers on one communicator and gradient all-reduces on another, the
// same separation NCCL streams give the original system.
package pipeline

import (
	"fmt"
	"sync"
	"time"

	"salientpp/internal/ckpt"
	"salientpp/internal/dist"
	"salientpp/internal/nn"
	"salientpp/internal/rng"
	"salientpp/internal/sample"
	"salientpp/internal/tensor"
)

// Config controls one rank's training loop.
type Config struct {
	// Fanouts are the sampling fanouts (training).
	Fanouts []int
	// BatchSize is the per-machine minibatch size.
	BatchSize int
	// PipelineDepth bounds in-flight minibatches; SALIENT++ uses 10.
	// Depth 1 degenerates to fully sequential batch preparation.
	PipelineDepth int
	// SamplerWorkers is the shared-memory sampling parallelism per machine.
	SamplerWorkers int
	// Parallelism bounds setup-time analysis parallelism — the sharded VIP
	// propagation and cache-policy construction. 0 uses GOMAXPROCS; results
	// are identical for every setting.
	Parallelism int
	// LR is the Adam learning rate.
	LR float64
	// Seed drives sampling and dropout; combined with rank and epoch.
	Seed uint64
	// GradCodec selects the wire encoding of the per-round gradient
	// all-reduce: "fp32" (raw, the default — bitwise the historical
	// reduce), "fp16", or "int8" with error-feedback residual
	// accumulation (dist.GradReducer). Independent of the feature-gather
	// codec; all ranks must agree. The empty string means fp32, so
	// zero-valued configs keep the historical behavior.
	GradCodec string
}

func (c Config) withDefaults() Config {
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = 10
	}
	if c.SamplerWorkers <= 0 {
		c.SamplerWorkers = 1
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	return c
}

// Rank is one machine's training state.
type Rank struct {
	cfg      Config
	commFeat dist.Comm
	commGrad dist.Comm
	store    *dist.Store
	sampler  *sample.Sampler
	model    *nn.Model
	opt      *nn.Adam
	trainIDs []int32
	labels   []int32 // global labels (label < 0 means unlabeled)
	rounds   int     // collective rounds per epoch (global max batches)

	// Gradient synchronization: the codec-aware reducer plus per-layer
	// views of the model's gradient tensors and error-feedback residuals,
	// grouped so layer L can all-reduce while layer L-1 is still in
	// backward.
	reducer   *dist.GradReducer
	layerMats [][]*tensor.Matrix
	layerRes  [][][]float32

	// Per-batch scratch reused across the epoch so the steady-state loop
	// allocates nothing: pooled loss-gradient matrices and the label
	// staging buffer.
	pool     *tensor.Pool
	labelBuf []int32

	// saver, when set, receives barrier-consistent checkpoint offers at
	// round boundaries. Rounds that do not checkpoint cost one integer
	// check (guarded by TestCheckpointIdleAddsNoAllocations).
	saver *ckpt.Saver

	// sched moves the store's cache along each epoch's planned schedule;
	// nil when the store caches nothing.
	sched *cacheSchedule
}

// EpochStats aggregates one training epoch on one rank.
type EpochStats struct {
	Loss          float64          // mean training loss over real batches
	Accuracy      float64          // mean training accuracy over real batches
	Batches       int              // real (non-padding) batches
	Gather        dist.GatherStats // summed over real batches; rows on the wire = RemoteFetch − Reused
	BytesSent     int64            // feature-communication bytes this epoch
	GradBytesSent int64            // gradient all-reduce bytes this epoch
	Duration      time.Duration
}

// NewRank wires one machine. labels must cover all global vertices
// (unlabeled entries < 0); trainIDs are the machine's local training
// vertices (global ids); globalMaxBatches is max over ranks of
// ceil(|T_k|/B) so that collective counts match.
func NewRank(cfg Config, commFeat, commGrad dist.Comm, store *dist.Store, s *sample.Sampler, m *nn.Model, trainIDs, labels []int32, globalMaxBatches int) (*Rank, error) {
	cfg = cfg.withDefaults()
	if commFeat.Rank() != commGrad.Rank() || commFeat.Size() != commGrad.Size() {
		return nil, fmt.Errorf("pipeline: feature and gradient communicators disagree")
	}
	if globalMaxBatches <= 0 {
		return nil, fmt.Errorf("pipeline: non-positive round count %d", globalMaxBatches)
	}
	gradCodec, err := dist.ParseCodec(cfg.GradCodec)
	if err != nil {
		return nil, fmt.Errorf("pipeline: gradient codec: %w", err)
	}
	// Group gradients and error-feedback residuals by layer: the unit of
	// the overlapped all-reduce. Lossy codecs need the residual buffers;
	// fp32 never allocates them.
	layerMats := make([][]*tensor.Matrix, len(m.Layers))
	layerRes := make([][][]float32, len(m.Layers))
	for li := range m.Layers {
		for _, p := range m.LayerParams(li) {
			if gradCodec != dist.CodecFP32 {
				p.EnsureResidual()
			}
			layerMats[li] = append(layerMats[li], p.G)
			layerRes[li] = append(layerRes[li], p.EF)
		}
	}
	return &Rank{
		sched:     newCacheSchedule(commFeat.Rank(), store, s, cfg.PipelineDepth >= 2),
		cfg:       cfg,
		commFeat:  commFeat,
		commGrad:  commGrad,
		store:     store,
		sampler:   s,
		model:     m,
		opt:       nn.NewAdam(cfg.LR),
		trainIDs:  trainIDs,
		labels:    labels,
		rounds:    globalMaxBatches,
		reducer:   dist.NewGradReducer(commGrad, gradCodec),
		layerMats: layerMats,
		layerRes:  layerRes,
		pool:      tensor.NewPool(),
	}, nil
}

// Model exposes the rank's model (e.g. for evaluation or weight checks).
func (r *Rank) Model() *nn.Model { return r.model }

// Store exposes the rank's partitioned feature store. Serving attaches
// here: Store().Sibling gives an independently-communicating store over
// the same read-only shard and setup cache epoch (training moves the
// store's own epoch along its schedule while an epoch runs).
func (r *Rank) Store() *dist.Store { return r.store }

// Sampler exposes the rank's training sampler (immutable; safe to share).
func (r *Rank) Sampler() *sample.Sampler { return r.sampler }

// SetCheckpointer attaches the run's coordinated checkpoint saver. All
// ranks of a run must share one saver (it is the barrier that makes saves
// consistent). Install before training starts.
func (r *Rank) SetCheckpointer(s *ckpt.Saver) { r.saver = s }

// RestoreState loads a checkpointed rank state: parameter values, Adam
// moments, the Adam step counter, and the dropout RNG stream. Shapes must
// match the rank's model.
func (r *Rank) RestoreState(st *ckpt.RankState) error {
	ps := r.model.Params()
	if len(st.Params) != len(ps) {
		return fmt.Errorf("pipeline: checkpoint has %d params, model has %d", len(st.Params), len(ps))
	}
	for i, p := range ps {
		sp := &st.Params[i]
		if int(sp.Rows) != p.W.Rows || int(sp.Cols) != p.W.Cols {
			return fmt.Errorf("pipeline: checkpoint param %d is %dx%d, model wants %dx%d",
				i, sp.Rows, sp.Cols, p.W.Rows, p.W.Cols)
		}
		copy(p.W.Data, sp.W)
		copy(p.M.Data, sp.M)
		copy(p.V.Data, sp.V)
		// Error-feedback residuals (empty in fp32-gradient runs). Copy in
		// place — the reducer holds aliases of p.EF.
		if len(sp.EF) > 0 {
			if len(sp.EF) != len(p.W.Data) {
				return fmt.Errorf("pipeline: checkpoint param %d residual has %d values, want %d", i, len(sp.EF), len(p.W.Data))
			}
			p.EnsureResidual()
			copy(p.EF, sp.EF)
		} else if p.EF != nil {
			for j := range p.EF {
				p.EF[j] = 0
			}
		}
		p.ZeroGrad()
	}
	r.opt.SetStepCount(int(st.AdamStep))
	r.model.SetRNGState(st.ModelRNG)
	return nil
}

// offerCheckpoint contributes this rank's state to a barrier-consistent
// checkpoint at step. The fill callback appends into the saver's reusable
// per-rank slot, so steady-state checkpointing reallocates nothing once
// the slot has reached its high-water size.
func (r *Rank) offerCheckpoint(step ckpt.Step, partial ckpt.PartialEpoch) error {
	return r.saver.Offer(r.commFeat.Rank(), step, func(st *ckpt.RankState) {
		ps := r.model.Params()
		if len(st.Params) != len(ps) {
			st.Params = make([]ckpt.ParamState, len(ps))
		}
		for i, p := range ps {
			sp := &st.Params[i]
			sp.Rows, sp.Cols = int32(p.W.Rows), int32(p.W.Cols)
			sp.W = append(sp.W[:0], p.W.Data...)
			sp.M = append(sp.M[:0], p.M.Data...)
			sp.V = append(sp.V[:0], p.V.Data...)
			sp.EF = append(sp.EF[:0], p.EF...)
		}
		st.AdamStep = int64(r.opt.StepCount())
		st.ModelRNG = r.model.RNGState()
		st.Partial = partial
	})
}

// failCheckpoint turns a checkpoint-save failure into a loud, group-wide
// abort. The saver's Offer only surfaces the write error on the
// last-arriving rank; its peers already got nil and will block in the next
// gradient all-reduce waiting for this rank. Closing both communicator
// groups — exactly what a dying rank does — makes every peer's blocked or
// future collective error out, so the whole run fails with an error
// instead of hanging on (say) a full disk.
func (r *Rank) failCheckpoint(err error) error {
	r.commFeat.Close()
	r.commGrad.Close()
	return fmt.Errorf("pipeline: checkpoint save failed, aborting the run: %w", err)
}

// partialFrom snapshots the accumulated epoch statistics at a round
// boundary into checkpoint form.
func partialFrom(stats *EpochStats, doneReal int, liveBytes, liveGradBytes int64) ckpt.PartialEpoch {
	return ckpt.PartialEpoch{
		Loss:     stats.Loss,
		Accuracy: stats.Accuracy,
		Batches:  int64(doneReal),
		Local:    int64(stats.Gather.Local),
		CacheHit: int64(stats.Gather.CacheHits),
		Remote:   int64(stats.Gather.RemoteFetch),

		BytesSent:     liveBytes,
		GradBytesSent: liveGradBytes,
	}
}

// preparedBatch flows between pipeline stages.
type preparedBatch struct {
	mfg   *sample.MFG
	feats *tensor.Matrix
	stats dist.GatherStats
	empty bool
}

// trainEpochFrom runs epoch from the given round cursor: the first
// startRound rounds are skipped (they were retired before the checkpoint
// this resume came from) and partial, when non-nil, seeds the epoch
// statistics with the bitwise state accumulated before the restart. Batch
// permutation and per-batch sampling streams are derived from absolute
// round indices, so a resumed epoch processes exactly the batches — with
// exactly the random numbers — the uninterrupted run would have.
func (r *Rank) trainEpochFrom(epoch, startRound int, partial *ckpt.PartialEpoch) (EpochStats, error) {
	start := time.Now()
	base := rng.New(r.cfg.Seed ^ (uint64(epoch+1) * 0x9e3779b97f4a7c15)).Split(uint64(r.commFeat.Rank()))
	batches := sample.EpochBatches(r.trainIDs, r.cfg.BatchSize, base.Split(0))
	sampleBase := base.Split(1)
	// Pad to the global round count with empty batches.
	real := len(batches)
	for len(batches) < r.rounds {
		batches = append(batches, nil)
	}
	if len(batches) > r.rounds {
		return EpochStats{}, fmt.Errorf("pipeline: rank %d has %d batches for %d rounds", r.commFeat.Rank(), len(batches), r.rounds)
	}
	if startRound < 0 || startRound >= r.rounds {
		return EpochStats{}, fmt.Errorf("pipeline: resume round %d outside [0,%d)", startRound, r.rounds)
	}
	allBatches := batches
	batches = batches[startRound:]

	bytesBefore := r.commFeat.BytesSent()
	gradBytesBefore := r.commGrad.BytesSent()
	var stats EpochStats
	stats.Batches = real
	// doneReal counts real batches retired so far (across the restart);
	// resumedBytes carries the byte counter over it. Bytes and
	// Gather.Reused are reporting-only: the resumed run re-pays the
	// communication of rounds between the checkpoint and the crash, so
	// BytesSent is approximate after a restore, and Reused counts only the
	// rounds since it (the checkpoint does not carry it; the first resumed
	// round has no pending round to reuse), while the loss/accuracy/access
	// counts are exact.
	doneReal := 0
	var resumedBytes, resumedGradBytes int64
	if partial != nil {
		stats.Loss = partial.Loss
		stats.Accuracy = partial.Accuracy
		stats.Gather.Local = int(partial.Local)
		stats.Gather.CacheHits = int(partial.CacheHit)
		stats.Gather.RemoteFetch = int(partial.Remote)
		doneReal = int(partial.Batches)
		resumedBytes = partial.BytesSent
		resumedGradBytes = partial.GradBytesSent
	}

	// abort wakes every pipeline stage when the epoch exits early (gather
	// or compute failure): sampling workers blocked on a pipeline slot, the
	// slot forwarder, and the feature-collection stage all select on it, so
	// no goroutine (or pipeline slot) leaks on the error path.
	abort := make(chan struct{})
	var abortOnce sync.Once
	closeAbort := func() { abortOnce.Do(func() { close(abort) }) }
	defer closeAbort()

	// Stage A: parallel sampling, streamed in batch order. The semaphore
	// enforces the paper's bound of PipelineDepth in-flight minibatches:
	// workers acquire before sampling, the training loop releases after
	// the batch finishes its model update.
	inflight := make(chan struct{}, r.cfg.PipelineDepth)
	sampled := r.streamSampled(batches, sampleBase, startRound, inflight, abort)

	// Stage B: feature collection, one collective per round plus a flush,
	// moving the cache along the epoch's schedule.
	ready := make(chan preparedBatch, r.cfg.PipelineDepth)
	errCh := make(chan error, 1)
	go func() {
		defer close(ready)
		if err := r.gatherStage(sampled, ready, abort, r.sched, allBatches, sampleBase, startRound); err != nil {
			errCh <- err
			closeAbort()
		}
	}()

	// failBatch unwinds the epoch on a stage-C error: wake every stage via
	// abort, then hand the failing batch's pooled buffers — and those of
	// every batch still queued in ready — back to their pools, so an
	// aborted epoch leaks neither goroutines nor pooled tensors.
	failBatch := func(pb preparedBatch, err error) (EpochStats, error) {
		closeAbort()
		r.store.Release(pb.feats)
		if pb.mfg != nil {
			pb.mfg.Release()
		}
		for more := range ready {
			r.store.Release(more.feats)
			more.mfg.Release()
		}
		r.model.ReleaseBatch()
		return stats, err
	}

	// Stage D: overlapped gradient synchronization. A dedicated reducer
	// goroutine consumes per-layer jobs that the model's backward hook
	// emits the moment a layer's gradients are final, so layer L's
	// all-reduce runs concurrently with layer L-1's backward kernels.
	// Layers retire in the fixed order Backward finishes them, so the
	// reduce arithmetic is that of reducing each layer after the full
	// backward pass. One result per round reports the round's first reduce
	// error. Job capacity is one round's layer count and the loop always
	// harvests a round's result before the next Backward, so the hook
	// never blocks. The cleanup below drains deterministically: Reduce
	// always returns once every rank has matched the collective or the
	// group is closed.
	numLayers := len(r.model.Layers)
	jobs := make(chan int, numLayers)
	reduced := make(chan error, 1)
	go func() {
		var err error
		count := 0
		for li := range jobs {
			if err == nil {
				err = r.reducer.Reduce(r.layerMats[li], r.layerRes[li])
			}
			count++
			if count == numLayers {
				reduced <- err
				err, count = nil, 0
			}
		}
		close(reduced)
	}()
	r.model.SetBackwardLayerHook(func(li int) { jobs <- li })
	defer func() {
		r.model.SetBackwardLayerHook(nil)
		close(jobs)
		for range reduced {
			// Drain any round completed between the last harvest and the
			// close so the reducer goroutine never leaks.
		}
	}()

	// Stage C: model computation and gradient synchronization.
	grads := r.model.Params()
	roundsDone := startRound
	for pb := range ready {
		logits, err := r.model.Forward(pb.mfg, pb.feats, true)
		if err != nil {
			return failBatch(pb, err)
		}
		if cap(r.labelBuf) < len(pb.mfg.Seeds) {
			r.labelBuf = make([]int32, len(pb.mfg.Seeds))
		}
		labels := r.labelBuf[:len(pb.mfg.Seeds)]
		for i, v := range pb.mfg.Seeds {
			labels[i] = r.labels[v]
		}
		dL := r.pool.Get(logits.Rows, logits.Cols)
		loss := tensor.SoftmaxCrossEntropy(logits, labels, dL)
		if !pb.empty {
			stats.Loss += loss
			stats.Accuracy += tensor.Accuracy(logits, labels)
			stats.Gather.Local += pb.stats.Local
			stats.Gather.CacheHits += pb.stats.CacheHits
			stats.Gather.RemoteFetch += pb.stats.RemoteFetch
			stats.Gather.Reused += pb.stats.Reused
			doneReal++
		}
		r.model.ZeroGrad()
		r.model.Backward(dL)
		r.pool.Put(dL)

		// Harvest the round's gradient all-reduce (sum across ranks) from
		// the overlapped reducer.
		if err := <-reduced; err != nil {
			return failBatch(pb, err)
		}
		inv := float32(1) / float32(r.commGrad.Size())
		for _, p := range grads {
			for i := range p.G.Data {
				p.G.Data[i] *= inv
			}
		}
		r.opt.Step(grads)
		r.store.Release(pb.feats) // recycle the batch's feature matrix
		pb.mfg.Release()          // recycle the batch's sampling buffers
		<-inflight                // retire the batch: frees one pipeline slot
		roundsDone++

		// Barrier-consistent mid-epoch checkpoint: every rank evaluates the
		// same trigger on the same shared round cursor, so all K offers
		// carry the same Step. The boundary case roundsDone == r.rounds is
		// normalized to the epoch-boundary checkpoint below.
		if r.saver != nil && roundsDone < r.rounds && r.saver.DueRound(roundsDone) {
			live := resumedBytes + r.commFeat.BytesSent() - bytesBefore
			liveGrad := resumedGradBytes + r.commGrad.BytesSent() - gradBytesBefore
			step := ckpt.Step{Epoch: epoch, Round: roundsDone}
			if err := r.offerCheckpoint(step, partialFrom(&stats, doneReal, live, liveGrad)); err != nil {
				return failBatch(preparedBatch{}, r.failCheckpoint(err))
			}
		}
	}
	select {
	case err := <-errCh:
		return stats, err
	default:
	}
	// The last batch's intermediates would otherwise stay pinned in the
	// model arena until the next epoch's first Forward.
	r.model.ReleaseBatch()
	// Epoch-boundary checkpoint (also where a round trigger landing exactly
	// on the last round is normalized to): saved as (epoch+1, round 0), so
	// a restore starts the next epoch afresh with no partial statistics.
	if r.saver != nil && (r.saver.DueEpoch(epoch+1) || r.saver.DueRound(r.rounds)) {
		if err := r.offerCheckpoint(ckpt.Step{Epoch: epoch + 1, Round: 0}, ckpt.PartialEpoch{}); err != nil {
			return stats, r.failCheckpoint(err)
		}
	}
	if real > 0 {
		stats.Loss /= float64(real)
		stats.Accuracy /= float64(real)
	}
	stats.BytesSent = resumedBytes + r.commFeat.BytesSent() - bytesBefore
	stats.GradBytesSent = resumedGradBytes + r.commGrad.BytesSent() - gradBytesBefore
	stats.Duration = time.Since(start)
	return stats, nil
}

// gatherStage is stage B: it streams the sampled batches' input ids
// through Store.GatherNext, so the collective that sends batch i's request
// ids also carries the rows answering batch i-1's — R+1 feature
// collectives for an R-round epoch instead of two per Gather. Each batch
// therefore completes one push late (the last by GatherFlush) and is
// delivered to ready in order, and a batch's remote rows that the batch
// before it also fetched are copied from that batch instead of fetched
// again. PipelineDepth 1 flushes after every push, so it never reuses: the
// look-ahead needs a second in-flight slot, and at depth 1 the next batch
// cannot be sampled until this one retires. Every rank derives the
// same schedule from the shared round count and depth, so the collectives
// stay matched.
//
// With a cache schedule sc (nil runs the epoch on the setup epoch), the
// stage also moves the store's cache along it: a completed round's matrix
// stages the rows the schedule admits from it before the round is
// delivered, and the working epoch is rewritten to the membership round
// g+1 reads right after round g's push (see cacheSchedule). all, base and start are the epoch's
// rounds, sampling base and first round, from which sc plans.
//
// A gather error is returned with every held batch's pooled buffers back in
// their pools. On abort the stage stops without issuing another collective
// and releases what it holds — including the store's pending round — and
// returns nil; the caller's abort path owns the epoch's error.
func (r *Rank) gatherStage(sampled <-chan sampledBatch, ready chan<- preparedBatch, abort <-chan struct{},
	sc *cacheSchedule, all [][]int32, base *rng.RNG, start int) error {
	if sc != nil {
		defer sc.end()
		if err := sc.begin(all, base, start); err != nil {
			return r.failSchedule(err)
		}
	}
	var held sampledBatch // pushed batch whose rows are on the wire; nil mfg when none
	// deliver hands held, completed with feats, to the compute stage, once
	// the schedule has staged what it admits from it; false means the epoch
	// aborted first or staging failed.
	deliver := func(feats *tensor.Matrix, gstats dist.GatherStats) (bool, error) {
		if sc != nil {
			if err := sc.completed(held.round, feats); err != nil {
				r.store.Release(feats)
				held.mfg.Release()
				held = sampledBatch{}
				return false, r.failSchedule(err)
			}
		}
		pb := preparedBatch{mfg: held.mfg, feats: feats, stats: gstats, empty: held.empty}
		held = sampledBatch{}
		select {
		case ready <- pb:
			return true, nil
		case <-abort:
			// The undeliverable batch's pooled buffers go back now; the
			// abort drain in stage C can only see batches that reached ready.
			r.store.Release(feats)
			pb.mfg.Release()
			return false, nil
		}
	}
	// flush completes held; false with a nil error means aborted.
	flush := func() (bool, error) {
		feats, gstats, err := r.store.GatherFlush()
		if err != nil {
			held.mfg.Release()
			return false, err
		}
		return deliver(feats, gstats)
	}
	for sb := range sampled {
		feats, gstats, err := r.store.GatherNext(sb.mfg.InputIDs())
		if err != nil {
			sb.mfg.Release()
			if held.mfg != nil {
				held.mfg.Release()
			}
			return err
		}
		if held.mfg != nil {
			if ok, err := deliver(feats, gstats); !ok {
				sb.mfg.Release()
				r.store.GatherDiscard()
				return err
			}
		}
		held = sb
		if sc != nil {
			if err := sc.pushed(sb.round); err != nil {
				held.mfg.Release()
				r.store.GatherDiscard()
				return r.failSchedule(err)
			}
		}
		if r.cfg.PipelineDepth == 1 {
			if ok, err := flush(); !ok {
				return err
			}
		}
	}
	if held.mfg == nil {
		return nil
	}
	// sampled also closes when the epoch aborts; flushing then would issue
	// a collective peers may never match.
	select {
	case <-abort:
		held.mfg.Release()
		r.store.GatherDiscard()
		return nil
	default:
	}
	_, err := flush()
	return err
}

// failSchedule turns a cache-schedule failure into a group-wide abort, as
// failCheckpoint does: the schedule is local to this rank, so its peers
// would otherwise block in their next collective waiting for it.
func (r *Rank) failSchedule(err error) error {
	r.commFeat.Close()
	r.commGrad.Close()
	return fmt.Errorf("pipeline: cache schedule failed, aborting the run: %w", err)
}

// streamSampled runs the sampling stage: SamplerWorkers goroutines sample
// batches which are forwarded in order. Workers acquire a slot from
// inflight before sampling; the training loop releases slots as batches
// retire, bounding in-flight minibatches by PipelineDepth. Closing abort
// unwinds every goroutine here even when no slot will ever be released
// again (the error path). offset is the absolute round index of
// batches[0]: batch i always samples with the stream base.Split(offset+i),
// so a resumed epoch draws exactly the numbers the uninterrupted one did.
func (r *Rank) streamSampled(batches [][]int32, base *rng.RNG, offset int, inflight chan struct{}, abort <-chan struct{}) <-chan sampledBatch {
	slots := make([]chan sampledBatch, len(batches))
	for i := range slots {
		slots[i] = make(chan sampledBatch, 1)
	}
	var next int
	var mu sync.Mutex
	workers := r.cfg.SamplerWorkers
	if workers > len(batches) {
		workers = len(batches)
	}
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		go func() {
			worker := r.sampler.AcquireWorker(rng.New(0))
			defer r.sampler.ReleaseWorker(worker)
			for {
				select {
				case inflight <- struct{}{}: // claim a pipeline slot
				case <-abort:
					return
				}
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(batches) {
					<-inflight // nothing left; return the slot
					return
				}
				worker.SetRNG(base.Split(uint64(offset + i)))
				m := worker.Sample(batches[i])
				// Capacity-1 channel with this goroutine as sole producer:
				// the send never blocks.
				slots[i] <- sampledBatch{mfg: m, empty: len(batches[i]) == 0, round: offset + i}
			}
		}()
	}
	out := make(chan sampledBatch, r.cfg.PipelineDepth)
	go func() {
		defer close(out)
		for i := range slots {
			var sb sampledBatch
			select {
			case sb = <-slots[i]:
			case <-abort:
				return
			}
			select {
			case out <- sb:
			case <-abort:
				sb.mfg.Release()
				return
			}
		}
	}()
	return out
}

type sampledBatch struct {
	mfg   *sample.MFG
	empty bool
	round int // absolute round index in the epoch
}

// Evaluate runs sampled inference over ids (this rank's local evaluation
// vertices) and returns (correct, total). Fanouts may differ from training
// (the paper evaluates with (20,20,20)). All ranks must call Evaluate
// together with the same rounds; rounds must be >= ceil(len(ids)/batch)
// for every rank (use the global max).
func (r *Rank) Evaluate(ids []int32, fanouts []int, batch, rounds, epoch int) (int, int, error) {
	s, err := sample.NewSampler(r.sampler.Graph(), fanouts)
	if err != nil {
		return 0, 0, err
	}
	base := rng.New(r.cfg.Seed ^ 0xe7a1 ^ uint64(epoch)<<20).Split(uint64(r.commFeat.Rank()))
	w := s.NewWorker(base.Split(7))
	correct, total := 0, 0
	for round := 0; round < rounds; round++ {
		lo := round * batch
		var seeds []int32
		if lo < len(ids) {
			hi := lo + batch
			if hi > len(ids) {
				hi = len(ids)
			}
			seeds = ids[lo:hi]
		}
		mfg := w.Sample(seeds)
		feats, _, err := r.store.Gather(mfg.InputIDs())
		if err != nil {
			return correct, total, err
		}
		logits, err := r.model.Forward(mfg, feats, false)
		// Inference never runs Backward, so the input features are dead as
		// soon as Forward returns (logits live in the model's own arena).
		r.store.Release(feats)
		if err != nil {
			return correct, total, err
		}
		for i, v := range mfg.Seeds {
			if r.labels[v] < 0 {
				continue
			}
			total++
			if int32(tensor.ArgmaxRow(logits.Row(i))) == r.labels[v] {
				correct++
			}
		}
		mfg.Release()
	}
	r.model.ReleaseBatch()
	return correct, total, nil
}
