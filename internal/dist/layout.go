// Package dist provides the distributed substrate of the SALIENT++
// reproduction: the contiguous partition layout, communicator groups with
// the two collectives the training loop needs (all-to-all and all-reduce),
// and the partitioned feature store implementing the paper's
// feature-communication protocol (§4.2): each gather frame carries the rows
// answering a peer's previous request list followed by the next request
// list, so a one-shot Gather costs two all-to-alls and the training stream
// (GatherNext/GatherFlush) one per round plus a final flush.
//
// Two transports implement the Comm interface: an in-process channel
// transport (the default for experiments and tests) and a loopback TCP
// transport that moves real bytes through the kernel, exercising the same
// code paths a multi-host deployment would.
package dist

import (
	"fmt"
	"sort"
)

// Layout is a contiguous K-way partition of the vertex id space: partition
// p owns ids [Starts[p], Starts[p+1]). Vertex reordering (graph.
// PartitionOrder) guarantees contiguity, which makes ownership a binary
// search and local rows a subtraction — no per-vertex map.
type Layout struct {
	// Starts has length K+1 with Starts[0] == 0; partition p owns
	// [Starts[p], Starts[p+1]).
	Starts []int64
}

// NewLayout validates starts (monotone, beginning at 0) and returns the
// layout.
func NewLayout(starts []int64) (*Layout, error) {
	if len(starts) < 2 {
		return nil, fmt.Errorf("dist: layout needs at least 2 boundaries, got %d", len(starts))
	}
	if starts[0] != 0 {
		return nil, fmt.Errorf("dist: layout must start at 0, got %d", starts[0])
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] < starts[i-1] {
			return nil, fmt.Errorf("dist: layout boundaries decrease at %d", i)
		}
	}
	s := make([]int64, len(starts))
	copy(s, starts)
	return &Layout{Starts: s}, nil
}

// K returns the number of partitions.
func (l *Layout) K() int { return len(l.Starts) - 1 }

// NumVertices returns the size of the id space.
func (l *Layout) NumVertices() int { return int(l.Starts[len(l.Starts)-1]) }

// Owner returns the partition owning vertex v.
func (l *Layout) Owner(v int32) int {
	// sort.Search finds the first boundary strictly greater than v; the
	// owner is the preceding interval.
	return sort.Search(len(l.Starts)-1, func(p int) bool { return l.Starts[p+1] > int64(v) })
}

// PartSize returns the number of vertices partition p owns.
func (l *Layout) PartSize(p int) int {
	return int(l.Starts[p+1] - l.Starts[p])
}
