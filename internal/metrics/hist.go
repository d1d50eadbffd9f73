package metrics

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket log-spaced histogram safe for concurrent
// Observe calls, built for the serving hot path: recording a sample is a
// branch-free bucket search plus three atomic adds — no locks, no
// allocations — so the zero-allocation guarantee of the serving loop
// extends through its own instrumentation. Quantiles are estimated by
// linear interpolation inside the containing bucket, which for the default
// latency layout (16 buckets per decade) bounds the relative error at
// about 7.5%.
type Histogram struct {
	bounds []float64 // ascending bucket upper bounds
	counts []atomic.Int64
	over   atomic.Int64 // samples above the last bound
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram with geometric bucket bounds from lo to
// at least hi, with perDecade buckets per factor of ten. lo and hi must be
// positive with lo < hi.
func NewHistogram(lo, hi float64, perDecade int) (*Histogram, error) {
	if !(lo > 0) || !(hi > lo) || perDecade <= 0 {
		return nil, fmt.Errorf("metrics: bad histogram layout lo=%v hi=%v perDecade=%d", lo, hi, perDecade)
	}
	ratio := math.Pow(10, 1/float64(perDecade))
	var bounds []float64
	for b := lo; ; b *= ratio {
		bounds = append(bounds, b)
		if b >= hi {
			break
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds))}, nil
}

// NewLatencyHistogram returns the serving-latency layout: 1µs to 100s,
// 16 buckets per decade (129 buckets, ~15% bucket width).
func NewLatencyHistogram() *Histogram {
	h, err := NewHistogram(1e-6, 100, 16)
	if err != nil {
		panic(err) // static layout; cannot fail
	}
	return h
}

// NewCountHistogram returns a layout for small positive counts (batch
// sizes): 1 to max, 8 buckets per decade.
func NewCountHistogram(max float64) *Histogram {
	h, err := NewHistogram(1, max, 8)
	if err != nil {
		panic(err)
	}
	return h
}

// Observe records one sample. Safe for concurrent use; never allocates.
func (h *Histogram) Observe(v float64) {
	// Manual binary search (sort.Search would pass a closure through an
	// interface); finds the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(h.bounds) {
		h.over.Add(1)
	} else {
		h.counts[lo].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of observed samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// HistMean returns the mean of observed samples (0 when empty).
func (h *Histogram) HistMean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the containing bucket. The estimate is clamped to the histogram's
// layout at both ends: samples at or below the first bound report the
// first bound (interpolating the first bucket down toward 0 would invent
// values up to 100% below any real sample — the old bug the differential
// test in hist_test.go pins), and samples beyond the last bound report the
// last bound rather than extrapolating. Within the layout the relative
// error is bounded by one bucket's width (ratio−1, ~15% for 16 buckets per
// decade). A zero-count histogram returns 0 — the defined empty value.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(n)
	var cum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= target {
			if i == 0 {
				// Every sample here is ≤ bounds[0], the layout floor;
				// report the floor instead of interpolating toward 0.
				return h.bounds[0]
			}
			lower := h.bounds[i-1]
			frac := (target - cum) / c
			if frac < 0 {
				frac = 0
			}
			return lower + frac*(h.bounds[i]-lower)
		}
		cum += c
	}
	// The target falls among the overflow samples: clamp to the last
	// bound, the overflow bucket's (only) defined edge.
	return h.bounds[len(h.bounds)-1]
}
