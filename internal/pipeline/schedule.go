package pipeline

import (
	"fmt"
	"slices"

	"salientpp/internal/cache"
	"salientpp/internal/dist"
	"salientpp/internal/rng"
	"salientpp/internal/sample"
	"salientpp/internal/tensor"
)

// cacheSchedule runs one rank's scheduled training cache on the
// feature-collection stage. Every round's samples are a pure function of
// (seed, rank, epoch, round), so at epoch start the rank re-derives the
// whole epoch's remote input ids with the pipeline's own RNG streams
// (keeping ids only) and cache.Plan turns them into a Belady schedule
// C_0 … C_{R−1} that starts from the setup epoch and places every row in a
// slot. The rank trains on a private working epoch, copied from the setup
// epoch when the epoch begins and installed once: after round g's push
// the gather stage rewrites it from C_g to C_{g+1} in place, emptying the
// slots C_{g+1} frees and copying its admissions — staged from round
// g−1's completed feature matrix when that round completed — into their
// slots. Kept rows are not touched. Feature values are the same whichever
// path a row takes (cached rows are hydrated through the wire codec), so
// training is bitwise that of the static setup cache; only which rows
// cross the wire changes. The store returns to the setup epoch when the
// epoch ends, on every path, so evaluation, serving siblings and
// checkpoints only ever see the setup epoch.
//
// The plan depends on (seed, rank, epoch, layout, setup epoch) and on
// whether the stream inherits (depth ≥ 2; depth 1 never does) alone — not
// on transport or GOMAXPROCS — so a resumed epoch recomputes it and
// replays rounds 2…start onto the working epoch, rehydrating from the
// dataset the rows this process never gathered.
type cacheSchedule struct {
	rank      int
	inherit   bool // each round inherits the previous round's ids (depth ≥ 2)
	store     *dist.Store
	sampler   *sample.Sampler
	setup     *cache.Epoch
	work      cache.Epoch             // the working epoch, installed while an epoch runs
	rehydrate func(v int32) []float32 // dataset rows for a resumed epoch; nil when unknown

	// One epoch's state. remote[g] lists round g's remote input ids (the
	// plan's input) and rowIn[g] the row each occupies in round g's
	// feature matrix; both are reused across epochs.
	planned chan error // the ahead sampler's result; nil once received
	planErr error
	plan    *cache.Schedule
	remote  [][]int32
	rowIn   [][]int32

	stage []float32 // rows the next install admits, dim-wide in admission order
}

// newCacheSchedule returns the schedule of a rank whose store caches
// something, and nil otherwise.
func newCacheSchedule(rank int, store *dist.Store, s *sample.Sampler, inherit bool) *cacheSchedule {
	setup := store.SetupEpoch()
	if setup.Len() == 0 {
		return nil
	}
	return &cacheSchedule{rank: rank, inherit: inherit, store: store, sampler: s, setup: setup}
}

// begin starts deriving the epoch's plan in the background, installs the
// working epoch as a copy of the setup epoch and prepares round start: a
// resumed epoch replays C_2 … C_start onto it and stages C_{start+1}'s
// admissions, all rehydrated from the dataset. batches are all of the
// epoch's rounds and base the sampling streams' parent, as the sampling
// stage uses them.
func (sc *cacheSchedule) begin(batches [][]int32, base *rng.RNG, start int) error {
	sc.planErr = nil
	sc.planned = make(chan error, 1)
	go func() { sc.planned <- sc.derive(batches, base) }()
	sc.work.CopyFrom(sc.setup)
	if _, err := sc.store.InstallEpoch(&sc.work); err != nil {
		return err
	}
	if start == 0 {
		return nil
	}
	if sc.rehydrate == nil {
		return fmt.Errorf("pipeline: resuming the scheduled cache at round %d needs the dataset's feature rows", start)
	}
	for g := 2; g <= start; g++ {
		if err := sc.completed(g-2, nil); err != nil {
			return err
		}
		sc.install(g)
	}
	return sc.completed(start-1, nil)
}

// derive samples every round of the epoch ahead, keeping each round's
// remote input ids and their rows, and plans the epoch.
func (sc *cacheSchedule) derive(batches [][]int32, base *rng.RNG) error {
	w := sc.sampler.AcquireWorker(rng.New(0))
	defer sc.sampler.ReleaseWorker(w)
	layout := sc.store.Layout()
	lo, hi := layout.Starts[sc.rank], layout.Starts[sc.rank+1]
	for len(sc.remote) < len(batches) {
		sc.remote, sc.rowIn = append(sc.remote, nil), append(sc.rowIn, nil)
	}
	sc.remote, sc.rowIn = sc.remote[:len(batches)], sc.rowIn[:len(batches)]
	for i, b := range batches {
		w.SetRNG(base.Split(uint64(i)))
		m := w.Sample(b)
		ids, rows := sc.remote[i][:0], sc.rowIn[i][:0]
		for j, v := range m.InputIDs() {
			if int64(v) < lo || int64(v) >= hi {
				ids, rows = append(ids, v), append(rows, int32(j))
			}
		}
		sc.remote[i], sc.rowIn[i] = ids, rows
		m.Release()
	}
	plan, err := cache.Plan(layout.NumVertices(), sc.remote, sc.setup.IDs(), sc.setup.Len(), sc.inherit)
	sc.plan = plan
	return err
}

// await blocks until the epoch's plan is in. Deriving it costs a few
// sampling passes, which overlap rounds 0 and 1: both run on the setup
// epoch, and the first install follows round 1's push.
func (sc *cacheSchedule) await() error {
	if sc.planned != nil {
		sc.planErr = <-sc.planned
		sc.planned = nil
	}
	return sc.planErr
}

// pushed installs C_{g+1} once round g has been classified against C_g:
// classify copies every cache hit into the round's matrix before
// GatherNext returns, so no read of C_g's slots outlives the push.
func (sc *cacheSchedule) pushed(g int) error {
	if g+1 < 2 {
		return nil
	}
	if err := sc.await(); err != nil {
		return err
	}
	if g+1 < len(sc.plan.Admit) {
		sc.install(g + 1)
	}
	return nil
}

// completed stages, from round h's finished feature matrix, the rows
// C_{h+2} admits. A nil matrix rehydrates them from the dataset instead.
func (sc *cacheSchedule) completed(h int, feats *tensor.Matrix) error {
	if err := sc.await(); err != nil {
		return err
	}
	if h+2 >= len(sc.plan.Admit) {
		return nil
	}
	admit := sc.plan.Admit[h+2]
	dim := sc.store.Dim()
	sc.stage = slices.Grow(sc.stage[:0], len(admit)*dim)[:len(admit)*dim]
	for k, a := range admit {
		row := sc.stage[k*dim : (k+1)*dim]
		if feats != nil {
			copy(row, feats.Row(int(sc.rowIn[h][a.Pos])))
		} else {
			copy(row, sc.rehydrate(sc.remote[h][a.Pos]))
		}
	}
	return nil
}

// install rewrites the working epoch from C_{g−1} to C_g: the slots C_g
// frees are emptied and its admissions, staged from round g−2, written
// into theirs. It runs on the goroutine that gathers, between its
// gathers, so no gather reads the epoch while it changes.
func (sc *cacheSchedule) install(g int) {
	idx, dim := sc.work.Index, sc.store.Dim()
	for _, s := range sc.plan.Free[g] {
		idx.Evict(s)
	}
	for k, a := range sc.plan.Admit[g] {
		idx.Put(sc.remote[g-2][a.Pos], a.Slot)
		copy(sc.work.Rows.Row(int(a.Slot)), sc.stage[k*dim:(k+1)*dim])
	}
}

// end returns the store to the setup epoch on every exit path of the
// gather stage. It also waits for the ahead sampler, so nothing of the
// epoch outlives it.
func (sc *cacheSchedule) end() {
	// Only joins the ahead sampler: a hook that needed the plan has
	// already awaited it and reported its error.
	_ = sc.await()
	// The setup epoch was valid when the store was built, so this cannot
	// fail.
	_, _ = sc.store.InstallEpoch(sc.setup)
}
