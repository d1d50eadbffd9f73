package main

import (
	"sync"
	"testing"
	"time"

	"salientpp/internal/rng"
)

// fakeServer serves one request at a time with a fixed service time;
// request stallAt takes stall instead.
type fakeServer struct {
	mu      sync.Mutex
	service time.Duration
	stallAt int32
	stall   time.Duration
}

func (f *fakeServer) do(_ int, v int32) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if v == f.stallAt {
		time.Sleep(f.stall)
	} else {
		time.Sleep(f.service)
	}
	return true
}

func identity(i int, _ float64) int32 { return int32(i) }

// An open loop must charge a stall to every request that was due while it
// lasted, not only to the request that stalled: with coordinated omission
// exactly one latency would exceed the stall.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const rate, stall = 400.0, 100 * time.Millisecond
	dur := time.Second
	due := poissonSchedule(rng.New(1), rate, dur)
	f := &fakeServer{service: 200 * time.Microsecond, stallAt: int32(len(due) / 2), stall: stall}
	replies, late := openLoop(due, dur, 256, identity, f.do)

	if len(replies) != len(due) || len(late) != len(due) {
		t.Fatalf("offered %d, got %d replies and %d lateness samples", len(due), len(replies), len(late))
	}
	st := summarize(replies, dur, 5, failLatency)
	good := st.attempted - st.failed
	if st.attempted != int64(len(due)) || good+st.failed != int64(len(due)) {
		t.Fatalf("offered %d != ok %d + failed %d", len(due), good, st.failed)
	}
	if st.failed != 0 {
		t.Errorf("%d requests failed with 256 slots free", st.failed)
	}
	behind := 0
	for _, r := range replies {
		if r.lat > stall/4 {
			behind++
		}
	}
	// About rate × stall × ¾ = 30 requests were due in the first three
	// quarters of the stall; each waited at least a quarter of it.
	if behind < 10 {
		t.Errorf("only %d requests were charged for the stall, want at least 10", behind)
	}
}

// With one in-flight slot, requests due during the stall find no slot and
// count as failed; none is silently dropped.
func TestOpenLoopOverflowCountsAsFailed(t *testing.T) {
	dur := 500 * time.Millisecond
	due := poissonSchedule(rng.New(2), 400, dur)
	f := &fakeServer{service: 100 * time.Microsecond, stallAt: 20, stall: 100 * time.Millisecond}
	replies, _ := openLoop(due, dur, 1, identity, f.do)
	st := summarize(replies, dur, 5, failLatency)
	if st.attempted != int64(len(due)) {
		t.Fatalf("offered %d, accounted %d", len(due), st.attempted)
	}
	if st.failed < 10 {
		t.Errorf("%d failed, want the requests due during the stall (about 40)", st.failed)
	}
	if st.sloMissShare < float64(st.failed)/float64(st.attempted) {
		t.Errorf("a failed request did not count as missing the latency limit")
	}
}

func TestClosedLoopSendsOnlyAfterReply(t *testing.T) {
	f := &fakeServer{service: time.Millisecond, stallAt: -1}
	dur := 200 * time.Millisecond
	replies := closedLoop(4, dur, identity, f.do)
	// Four callers over a server that takes 1 ms per request cannot finish
	// more than dur/1ms requests plus the four in flight at the end.
	if n := len(replies); n < 50 || n > 204 {
		t.Errorf("closed loop finished %d requests in %v at 1 ms each", n, dur)
	}
	for _, r := range replies {
		if !r.ok || r.lat < time.Millisecond {
			t.Fatalf("reply %+v: every request waits at least its service time", r)
		}
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(rng.New(5), 300, time.Second)
	b := poissonSchedule(rng.New(5), 300, time.Second)
	if len(a) != len(b) || len(a) < 200 || len(a) > 400 {
		t.Fatalf("schedules of %d and %d arrivals at 300/s for 1 s", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
}
