package tensor

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Pool recycles Matrix backing storage across minibatches. Buffers are
// bucketed by capacity class (powers of two), so batches whose shapes vary
// within a class reuse the same storage: after a warm-up epoch the
// steady-state training path performs zero heap allocations per batch.
//
// A Pool never frees memory on its own; it holds the high-water working
// set of whatever pipeline feeds it. That is the intended ownership model
// — one Pool per long-lived component (feature store, model, training
// rank), released wholesale when the component is dropped.
//
// Get/Put are safe for concurrent use.
type Pool struct {
	mu      sync.Mutex
	buckets [poolBuckets][]*Matrix
	live    atomic.Int64 // Gets minus Puts: matrices currently checked out
}

// poolBuckets covers capacity classes up to 2^33 floats (32 GiB), far
// beyond any reproduction-scale matrix.
const poolBuckets = 34

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// bucketFor returns the smallest class b with 1<<b >= n.
func bucketFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Get returns a rows×cols matrix whose contents are unspecified (callers
// overwrite or Zero it). The matrix comes from the free list when a buffer
// of the right capacity class is available and is freshly allocated
// otherwise.
func (p *Pool) Get(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	need := rows * cols
	b := bucketFor(need)
	p.live.Add(1)
	p.mu.Lock()
	if l := p.buckets[b]; len(l) > 0 {
		m := l[len(l)-1]
		l[len(l)-1] = nil
		p.buckets[b] = l[:len(l)-1]
		p.mu.Unlock()
		m.Rows, m.Cols = rows, cols
		m.Data = m.Data[:need]
		return m
	}
	p.mu.Unlock()
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, need, 1<<b)}
}

// Live returns Gets minus Puts: the number of pooled matrices currently
// checked out. Leak-regression tests assert it returns to zero after
// shutdown/abort paths; the count is only meaningful when every matrix put
// back came from this pool's Get.
func (p *Pool) Live() int64 { return p.live.Load() }

// Put returns m's storage to the pool. The caller must not use m (or any
// slice obtained from it) afterwards; putting the same matrix twice
// corrupts the free list. nil is ignored.
func (p *Pool) Put(m *Matrix) {
	if m == nil || cap(m.Data) == 0 {
		return
	}
	p.live.Add(-1)
	// Class from capacity: Get allocates exact power-of-two capacities, and
	// foreign matrices land in the class their capacity fully covers.
	b := bits.Len(uint(cap(m.Data))) - 1
	p.mu.Lock()
	p.buckets[b] = append(p.buckets[b], m)
	p.mu.Unlock()
}

// Arena hands out pooled matrices and remembers them so one Release call
// returns the whole working set — the per-batch counterpart of
// sample.MFG.Release. An Arena is single-goroutine (per batch / per model);
// the underlying Pool may be shared.
type Arena struct {
	pool *Pool
	held []*Matrix
}

// NewArena returns an arena drawing from p.
func NewArena(p *Pool) *Arena { return &Arena{pool: p} }

// Get returns a rows×cols matrix (contents unspecified) owned by the arena
// until Release.
func (a *Arena) Get(rows, cols int) *Matrix {
	m := a.pool.Get(rows, cols)
	a.held = append(a.held, m)
	return m
}

// Release returns every matrix obtained since the previous Release to the
// pool. All of them are invalid afterwards.
func (a *Arena) Release() {
	for i, m := range a.held {
		a.pool.Put(m)
		a.held[i] = nil
	}
	a.held = a.held[:0]
}

// Held reports how many matrices the arena currently owns (for tests).
func (a *Arena) Held() int { return len(a.held) }
