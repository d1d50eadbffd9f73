package cache

import (
	"fmt"
	"slices"

	"salientpp/internal/tensor"
)

// Epoch is one version of a rank's remote-feature cache: the membership
// index and the fp32 feature rows (Rows.Row(s) holds the features of
// Index.IDs()[s]). A store reads its installed epoch through one atomic
// pointer. An installed epoch is immutable, except a working epoch: a
// private copy of the setup epoch (CopyFrom) that its one owner rewrites
// in place, on the goroutine that gathers and only between its gathers —
// training along its Belady plan (Index.Evict/Put), serving's online
// cache along the scorer's proposals (Retarget). Either way an install
// writes only the rows it admits.
type Epoch struct {
	// Gen is the install generation: 0 for the setup-time epoch (the
	// truncated static ranking), incremented by every Retarget that
	// changes the membership. A working epoch starts at its source's.
	Gen uint64
	// Index is the membership index; Slot(v) gives the row of a cached id.
	Index *Cache
	// Rows holds the fp32 feature rows in slot order.
	Rows *tensor.Matrix

	// Retarget scratch, reused across calls.
	keep         []bool
	fresh, slots []int32
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

// Retarget rewrites the working epoch e in place to hold exactly ids
// (distinct, in [0, n), any order, no more than e has slots): the cached
// ids missing from ids are evicted, the newcomers take the freed slots by
// the slot rule (Cache.Admit), and only their rows are written, from row.
// Kept ids keep their slots and rows. Gen advances when the membership
// changed. It returns the newcomers' count (the install's churn) and
// whether the membership changed. A warm Retarget allocates nothing
// beyond what row does.
func (e *Epoch) Retarget(ids []int32, row func(v int32) []float32) (churn int, changed bool) {
	c := e.Index
	e.keep = slices.Grow(e.keep[:0], len(c.ids))[:len(c.ids)]
	clear(e.keep)
	e.fresh = e.fresh[:0]
	for _, v := range ids {
		if s, ok := c.Slot(v); ok {
			e.keep[s] = true
		} else {
			e.fresh = append(e.fresh, v)
		}
	}
	evicted := 0
	for s, v := range c.ids {
		if v >= 0 && !e.keep[s] {
			c.Evict(int32(s))
			evicted++
		}
	}
	if evicted == 0 && len(e.fresh) == 0 {
		return 0, false
	}
	e.slots = c.Admit(e.fresh, e.slots[:0])
	for i, v := range e.fresh {
		copy(e.Rows.Row(int(e.slots[i])), row(v))
	}
	e.Gen++
	return len(e.fresh), true
}

// EpochBuilder hydrates setup-time cache epochs for one rank: membership
// ids in, a fully materialized generation-0 Epoch out, its rows pulled
// from the row source.
type EpochBuilder struct {
	n   int
	dim int
	row func(v int32) []float32
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
	return &EpochBuilder{n: n, dim: dim, row: row}, nil
}

// Build materializes a generation-0 epoch holding exactly ids, the slot
// of ids[i] being i, in freshly allocated storage.
func (b *EpochBuilder) Build(ids []int32) (*Epoch, error) {
	index, err := Build(ids, b.n)
	if err != nil {
		return nil, err
	}
	rows := tensor.New(len(ids), b.dim)
	for i, v := range ids {
		copy(rows.Row(i), b.row(v))
	}
	return &Epoch{Index: index, Rows: rows}, nil
}
