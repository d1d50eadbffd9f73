package metrics

import (
	"sort"
	"sync"
)

// Counter names the training-resilience layer increments. Keeping the
// names here (rather than as ad-hoc strings at the call sites) makes the
// elastic driver, the callers reading its counters, and the tests agree on
// one spelling.
const (
	// CounterStallsDetected counts training collectives that failed with a
	// recoverable error (timeout or closed group) and triggered a probe.
	CounterStallsDetected = "train_stalls_detected"
	// CounterRegroups counts successful membership changes: survivor
	// consensus reached, state re-laid out, training continued.
	CounterRegroups = "train_regroups"
	// CounterRoundsReplayed counts rounds of training work discarded by
	// regroups (the consensus checkpoint's normalized-away round cursor):
	// the interrupted epoch re-runs from its boundary under the new layout.
	CounterRoundsReplayed = "train_rounds_replayed"
)

// Counters is a small concurrency-safe named-counter registry. The elastic
// training driver increments recovery counters through it (see
// pipeline.ElasticConfig.Counters); callers and tests read them out. A nil
// *Counters is a valid no-op sink, so callers never have to guard their Add
// calls.
type Counters struct {
	mu sync.Mutex
	m  map[string]int64
}

// NewCounters returns an empty registry.
func NewCounters() *Counters {
	return &Counters{m: make(map[string]int64)}
}

// Add increments the named counter by delta. No-op on a nil receiver.
func (c *Counters) Add(name string, delta int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m[name] += delta
	c.mu.Unlock()
}

// Get returns the named counter's value (0 if never incremented or the
// receiver is nil).
func (c *Counters) Get(name string) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Snapshot returns a copy of all counters with their names sorted, for
// deterministic reporting. Nil receiver returns nil.
func (c *Counters) Snapshot() map[string]int64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// Names returns the sorted counter names present in the registry.
func (c *Counters) Names() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.m))
	for k := range c.m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
