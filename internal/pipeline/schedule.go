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
// C_0 … C_{R−1} that starts from the setup epoch. The gather stage then
// installs C_{g+1} after pushing round g: its kept rows are copied from
// C_g, its admissions from round g−1's completed feature matrix, staged
// when that round completed. Feature values are the same whichever path a
// row takes (cached rows are hydrated through the wire codec), so training
// is bitwise that of the static setup cache; only which rows cross the
// wire changes. The store returns to the setup epoch when the epoch ends,
// on every path, so evaluation, serving siblings and checkpoints only ever
// see the setup epoch.
//
// The plan depends on (seed, rank, epoch, layout, setup epoch) alone — not
// on depth, transport or GOMAXPROCS — so a resumed epoch recomputes it
// and rebuilds the membership its first rounds need, rehydrating from the
// dataset the rows this process never gathered.
type cacheSchedule struct {
	rank      int
	store     *dist.Store
	sampler   *sample.Sampler
	setup     *cache.Epoch
	builder   *cache.EpochBuilder
	rehydrate func(v int32) []float32 // dataset rows for a resumed epoch; nil when unknown

	// One epoch's state. remote[g] lists round g's remote input ids (the
	// plan's input) and rowIn[g] the row each occupies in round g's
	// feature matrix; both are reused across epochs.
	planned chan error // the ahead sampler's result; nil once received
	planErr error
	plan    *cache.Schedule
	remote  [][]int32
	rowIn   [][]int32

	cur      *cache.Epoch    // installed epoch: setup or builder-owned
	stage    []float32       // rows the next install admits, staged dim-wide
	staged   map[int32]int32 // staged id → its row in stage
	fromData bool            // the next build may rehydrate rows from the dataset
}

// newCacheSchedule returns the schedule of a rank whose store caches
// something, and nil otherwise.
func newCacheSchedule(rank int, store *dist.Store, s *sample.Sampler) (*cacheSchedule, error) {
	setup := store.SetupEpoch()
	if setup.Len() == 0 {
		return nil, nil
	}
	sc := &cacheSchedule{rank: rank, store: store, sampler: s, setup: setup, staged: map[int32]int32{}}
	b, err := cache.NewEpochBuilder(store.Layout().NumVertices(), store.Dim(), sc.row)
	if err != nil {
		return nil, err
	}
	sc.builder = b
	return sc, nil
}

// begin starts deriving the epoch's plan in the background and prepares
// round start: a resumed epoch installs C_start and stages C_{start+1}'s
// admissions, both rehydrated from the dataset where this process never
// gathered the rows. batches are all of the epoch's rounds and base the
// sampling streams' parent, as the sampling stage uses them.
func (sc *cacheSchedule) begin(batches [][]int32, base *rng.RNG, start int) error {
	sc.cur, sc.planErr = sc.setup, nil
	sc.planned = make(chan error, 1)
	go func() { sc.planned <- sc.derive(batches, base) }()
	if start == 0 {
		return nil
	}
	if sc.rehydrate == nil {
		return fmt.Errorf("pipeline: resuming the scheduled cache at round %d needs the dataset's feature rows", start)
	}
	if err := sc.await(); err != nil {
		return err
	}
	sc.fromData = true
	defer func() { sc.fromData = false }()
	if start >= 2 {
		if err := sc.install(start); err != nil {
			return err
		}
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
	plan, err := cache.Plan(layout.NumVertices(), sc.remote, sc.setup.IDs(), sc.setup.Len())
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

// pushed installs C_{g+1} once round g has been classified against C_g.
func (sc *cacheSchedule) pushed(g int) error {
	if g+1 < 2 {
		return nil
	}
	if err := sc.await(); err != nil {
		return err
	}
	if g+1 >= len(sc.plan.Members) {
		return nil
	}
	return sc.install(g + 1)
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
	for k, p := range admit {
		v := sc.remote[h][p]
		row := sc.stage[k*dim : (k+1)*dim]
		if feats != nil {
			copy(row, feats.Row(int(sc.rowIn[h][p])))
		} else {
			copy(row, sc.rehydrate(v))
		}
		sc.staged[v] = int32(k)
	}
	return nil
}

// install builds C_g — kept rows from the installed epoch, admitted ones
// from the stage — installs it and recycles the epoch it displaced.
func (sc *cacheSchedule) install(g int) error {
	ep, err := sc.builder.Build(sc.plan.Members[g])
	if err != nil {
		return err
	}
	prev, err := sc.store.InstallEpoch(ep)
	if err != nil {
		sc.builder.Release(ep)
		return err
	}
	sc.builder.Release(prev)
	sc.cur = ep
	clear(sc.staged)
	return nil
}

// row is the builder's row source for C_g: a staged admission, else the
// installed epoch's row, else (resume only) the dataset's.
func (sc *cacheSchedule) row(v int32) []float32 {
	dim := sc.store.Dim()
	if k, ok := sc.staged[v]; ok {
		return sc.stage[int(k)*dim : int(k+1)*dim]
	}
	if slot, ok := sc.cur.Index.Slot(v); ok {
		return sc.cur.Rows.Row(int(slot))
	}
	if sc.fromData {
		return sc.rehydrate(v)
	}
	panic(fmt.Sprintf("pipeline: scheduled cache row %d was neither staged nor cached", v))
}

// end returns the store to the setup epoch and recycles the last
// scheduled one, on every exit path of the gather stage. It also waits
// for the ahead sampler, so nothing of the epoch outlives it.
func (sc *cacheSchedule) end() {
	// Only joins the ahead sampler: a hook that needed the plan has
	// already awaited it and reported its error.
	_ = sc.await()
	if prev, err := sc.store.InstallEpoch(sc.setup); err == nil {
		sc.builder.Release(prev)
	}
	sc.cur = sc.setup
	clear(sc.staged)
}
