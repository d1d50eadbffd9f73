package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (nothing inside the program is instrumented). Start and End are
// nanoseconds since the recorder was created; Parent is the id of the span
// that caused this one, -1 for a root. Spans of one replay round share
// Round.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Rank   int32  `json:"rank"`
	Round  int32  `json:"round"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the benchmark ends. A nil recorder
// records nothing, so the same replay code runs with tracing off to
// measure the tracing overhead.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (-1 when recording is off).
func (r *recorder) begin(name string, parent int32, rank, round int) int32 {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Rank: int32(rank), Round: int32(round), Start: now, End: -1})
	r.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// finish stores the spans as JSON at path and returns their self times.
func (r *recorder) finish(path string) (map[string]int64, error) {
	self, err := selfTimes(r.spans)
	if err != nil {
		return nil, err
	}
	buf, err := json.Marshal(r.spans)
	if err != nil {
		return nil, err
	}
	return self, os.WriteFile(path, buf, 0o644)
}

// selfTimes returns, per span name, the total self time in nanoseconds: a
// span's duration minus the part of it that its child spans cover, with
// overlapping children counted once. A span that was never closed, ends
// before it starts, or names a parent that does not exist is an error.
func selfTimes(spans []span) (map[string]int64, error) {
	byID := make(map[int32]*span, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.End < s.Start {
			return nil, fmt.Errorf("trace: span %d (%s) has end %d before start %d", s.ID, s.Name, s.End, s.Start)
		}
		byID[s.ID] = s
	}
	children := make(map[int32][]*span)
	for i := range spans {
		s := &spans[i]
		if s.Parent < 0 {
			continue
		}
		if byID[s.Parent] == nil {
			return nil, fmt.Errorf("trace: span %d (%s) is an orphan: parent %d was not recorded", s.ID, s.Name, s.Parent)
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[string]int64)
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += (s.End - s.Start) - covered
	}
	return self, nil
}
