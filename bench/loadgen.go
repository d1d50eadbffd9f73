package main

import (
	"math"
	"sync"
	"time"

	"salientpp/internal/rng"
)

// call issues one request for vertex v and reports whether the reply was
// good. slot identifies the caller (closed loop) or the in-flight slot
// (open loop), so the callee can keep per-slot buffers without locking.
type call func(slot int, v int32) bool

// picker returns the vertex of the i-th request of a stream; frac is the
// elapsed share of the phase, for streams whose popularity moves in time.
type picker func(i int, frac float64) int32

// reply is one finished request: when it completed (offset from the start
// of its phase), how long its sender waited, and whether the reply was good.
type reply struct {
	done time.Duration
	lat  time.Duration
	ok   bool
}

// closedLoop runs callers goroutines for dur; each sends its next request
// only after the previous reply, so a slow server receives less load.
// Caller c issues requests c, c+callers, c+2·callers, … of the stream.
func closedLoop(callers int, dur time.Duration, pick picker, do call) []reply {
	per := make([][]reply, callers)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; ; i += callers {
				sent := time.Since(start)
				if sent >= dur {
					return
				}
				ok := do(c, pick(i, float64(sent)/float64(dur)))
				fin := time.Since(start)
				per[c] = append(per[c], reply{done: fin, lat: fin - sent, ok: ok})
			}
		}()
	}
	wg.Wait()
	var all []reply
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}

// poissonSchedule returns the due offsets of seeded Poisson arrivals at
// rate requests per second within dur.
func poissonSchedule(r *rng.RNG, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	var t float64
	for {
		t += -math.Log(1-r.Float64()) / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// openLoop sends request i at due[i] whether or not earlier replies have
// arrived, as independent users do. Each latency runs from the instant the
// request was due, not from when the dispatcher got to it, so a stall is
// charged to every request behind it. At most maxInFlight requests wait at
// once; one that finds no free slot is a failed request. late[i] is how
// far behind its schedule the generator itself dispatched request i.
func openLoop(due []time.Duration, dur time.Duration, maxInFlight int, pick picker, do call) (samples []reply, late []time.Duration) {
	samples = make([]reply, len(due))
	late = make([]time.Duration, len(due))
	slots := make(chan int, maxInFlight) // free in-flight slots, one token each
	for s := 0; s < maxInFlight; s++ {
		slots <- s
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Since(start)
		late[i] = now - d
		v := pick(i, float64(d)/float64(dur))
		select {
		case s := <-slots:
			wg.Add(1)
			go func() {
				defer wg.Done()
				ok := do(s, v)
				fin := time.Since(start)
				samples[i] = reply{done: fin, lat: fin - d, ok: ok}
				slots <- s
			}()
		default:
			samples[i] = reply{done: now, lat: now - d, ok: false}
		}
	}
	wg.Wait()
	return samples, late
}

// phaseStats summarizes one load phase. The rate and the latency
// percentiles are medians over equal consecutive segments of the phase, so
// one noisy-neighbour burst cannot move them; the counts cover the phase.
type phaseStats struct {
	attempted, failed int64
	rps               float64 // good replies per second
	p50ms, p99ms      float64
	sloMissShare      float64 // failed, or later than the latency limit
}

// summarize cuts samples into segments by completion time. A failed
// request enters the latency sample at failLat, twice the latency limit,
// so failing cannot improve a percentile.
func summarize(samples []reply, dur time.Duration, segments int, failLat time.Duration) phaseStats {
	var st phaseStats
	lats := make([][]float64, segments)
	good := make([]float64, segments)
	var missed int64
	for _, s := range samples {
		seg := min(int(int64(s.done)*int64(segments)/int64(dur)), segments-1)
		lat := s.lat
		st.attempted++
		if s.ok {
			good[seg]++
		} else {
			st.failed++
			lat = failLat
		}
		if lat > failLat/2 {
			missed++
		}
		lats[seg] = append(lats[seg], float64(lat)/float64(time.Millisecond))
	}
	segSec := dur.Seconds() / float64(segments)
	rps, p50, p99 := make([]float64, segments), make([]float64, segments), make([]float64, segments)
	for i := range lats {
		rps[i] = good[i] / segSec
		p50[i] = quantile(lats[i], 0.50)
		p99[i] = quantile(lats[i], 0.99)
	}
	st.rps, st.p50ms, st.p99ms = median(rps), median(p50), median(p99)
	if st.attempted > 0 {
		st.sloMissShare = float64(missed) / float64(st.attempted)
	}
	return st
}
