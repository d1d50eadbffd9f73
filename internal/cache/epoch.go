package cache

import (
	"fmt"
	"sync"

	"salientpp/internal/tensor"
)

// Epoch is one version of a rank's remote-feature cache: the membership
// index and the fp32 feature rows (Rows.Row(s) holds the features of
// Index.IDs()[s]). Serving epochs are hydrated off the gather path
// (EpochBuilder) and installed into a store by swapping a single atomic
// pointer; once installed such an epoch is not written again until it is
// released back to its builder, so any number of concurrent gathers may
// read it while the next version is being built in the background. The
// one epoch written while installed is training's private working epoch
// (CopyFrom, then Index.Evict/Put and row copies between its gathers).
type Epoch struct {
	// Gen is the install generation: 0 for the setup-time epoch (the
	// truncated static ranking), incremented by the builder for every
	// epoch built after it. A working epoch copies its source's.
	Gen uint64
	// Index is the membership index; Slot(v) gives the row of a cached id.
	Index *Cache
	// Rows holds the fp32 feature rows in slot order.
	Rows *tensor.Matrix

	owner    *EpochBuilder // pool owner; nil for setup epochs (never released)
	released bool          // on owner's free list, awaiting a rebuild
}

// NewEpoch assembles the setup-time epoch (generation 0) from a built
// index and its hydrated rows. index and rows may both be nil to disable
// caching; otherwise rows must be parallel to index.IDs().
func NewEpoch(index *Cache, rows *tensor.Matrix) (*Epoch, error) {
	if (index == nil) != (rows == nil) {
		return nil, fmt.Errorf("cache: epoch index and rows must be supplied together")
	}
	if index != nil && rows.Rows != len(index.ids) {
		return nil, fmt.Errorf("cache: epoch has %d rows for %d cache slots", rows.Rows, len(index.ids))
	}
	return &Epoch{Index: index, Rows: rows}, nil
}

// Len returns the number of cached ids (0 for a nil epoch or empty index).
func (e *Epoch) Len() int {
	if e == nil || e.Index == nil {
		return 0
	}
	return e.Index.Len()
}

// IDs returns the cached ids in slot order, −1 for an empty slot (nil for
// a cacheless epoch; do not modify).
func (e *Epoch) IDs() []int32 {
	if e == nil || e.Index == nil {
		return nil
	}
	return e.Index.IDs()
}

// CopyFrom makes e a private, writable copy of src, which must cache
// something: the same ids in the same slots and the same rows. e may be
// the zero Epoch; once it has src's shape, its storage is reused.
func (e *Epoch) CopyFrom(src *Epoch) {
	if e.Index == nil || len(e.Index.slot) != len(src.Index.slot) {
		e.Index = &Cache{slot: make([]int32, len(src.Index.slot))}
	}
	e.Index.copyFrom(src.Index)
	if e.Rows == nil || e.Rows.Rows != src.Rows.Rows || e.Rows.Cols != src.Rows.Cols {
		e.Rows = tensor.New(src.Rows.Rows, src.Rows.Cols)
	}
	copy(e.Rows.Data, src.Rows.Data)
	e.Gen = src.Gen
}

// EpochBuilder hydrates successive cache epochs for one rank: membership
// ids in, a fully materialized Epoch out (index and feature rows pulled
// from the row source). Serving's online cache builds its epochs here. A
// released epoch is rebuilt in place by a later Build — its id→slot index
// and ids slice are cleared and refilled, and its rows come back from a
// builder-internal tensor.Pool — so a warm install cycle allocates nothing,
// and the pool's Live gauge proves that shutdown — even mid-install —
// leaks nothing.
//
// A builder serves one install stream (one store). Build/BuildFor and
// Release may run on different goroutines; only one goroutine may build.
type EpochBuilder struct {
	n    int
	dim  int
	row  func(v int32) []float32
	pool *tensor.Pool
	gen  uint64

	mu   sync.Mutex
	free []*Epoch // released epochs, rebuilt by the next Build
}

// NewEpochBuilder returns a builder over a graph with n vertices and
// dim-wide features; row must return the fp32 feature row of any vertex
// it is asked for (it is read, never retained).
func NewEpochBuilder(n, dim int, row func(v int32) []float32) (*EpochBuilder, error) {
	if n <= 0 || dim <= 0 {
		return nil, fmt.Errorf("cache: epoch builder needs positive n (%d) and dim (%d)", n, dim)
	}
	if row == nil {
		return nil, fmt.Errorf("cache: epoch builder needs a feature row source")
	}
	return &EpochBuilder{n: n, dim: dim, row: row, pool: tensor.NewPool()}, nil
}

// Build materializes the next epoch holding exactly ids (slot order
// preserved), rebuilding a released epoch when one is free. The rows
// matrix is pooled; hand retired epochs back with Release.
func (b *EpochBuilder) Build(ids []int32) (*Epoch, error) {
	b.mu.Lock()
	var e *Epoch
	if k := len(b.free); k > 0 {
		e = b.free[k-1]
		b.free[k-1] = nil
		b.free = b.free[:k-1]
	}
	b.mu.Unlock()
	if e == nil {
		e = &Epoch{Index: &Cache{slot: make([]int32, b.n)}, owner: b}
	}
	if err := e.Index.fill(ids); err != nil {
		b.mu.Lock()
		b.free = append(b.free, e)
		b.mu.Unlock()
		return nil, err
	}
	rows := b.pool.Get(len(ids), b.dim)
	for i, v := range ids {
		copy(rows.Row(i), b.row(v))
	}
	b.gen++
	e.Gen, e.Rows, e.released = b.gen, rows, false
	return e, nil
}

// BuildFor materializes an epoch holding exactly ids, counting churn (the
// newly admitted ids) against cur. Returns (nil, 0, nil) when the
// membership is unchanged from cur's. Serving calls it from a background
// builder goroutine; cur must stay the store's current epoch until the
// result is installed (one outstanding build per builder guarantees this).
func (b *EpochBuilder) BuildFor(ids []int32, cur *Epoch) (next *Epoch, churn int, err error) {
	for _, v := range ids {
		if cur == nil || cur.Index == nil || !cur.Index.Has(v) {
			churn++
		}
	}
	if churn == 0 && len(ids) == cur.Len() {
		return nil, 0, nil
	}
	next, err = b.Build(ids)
	if err != nil {
		return nil, 0, err
	}
	return next, churn, nil
}

// Release returns a retired epoch to the builder: its rows go back to the
// pool and the epoch itself is rebuilt by a later Build, so the caller
// must drop every reference to it. Only epochs this builder built are
// released (the setup epoch and foreign epochs are ignored), and releasing
// an epoch twice before it is rebuilt is a no-op, so callers can
// unconditionally release whatever an install displaced. The caller must
// guarantee no gather still reads the epoch — installs at round barriers
// do.
func (b *EpochBuilder) Release(e *Epoch) {
	if e == nil || e.owner != b {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if e.released {
		return
	}
	e.released = true
	b.pool.Put(e.Rows)
	e.Rows = nil
	e.Index.reset()
	b.free = append(b.free, e)
}

// Live returns the number of built-and-unreleased epochs — the leak gauge
// the shutdown regression tests assert returns to zero.
func (b *EpochBuilder) Live() int64 { return b.pool.Live() }
