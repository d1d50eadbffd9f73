package metrics

import (
	"math"
	"sort"
	"sync"
	"testing"
)

// TestQuantileDifferentialAgainstExactSamples is the differential guard
// for the quantile edge cases: for a spread of sample distributions —
// including point masses at the layout floor, samples below the floor, and
// overflow-heavy tails — every estimated quantile must agree with the
// exact sorted-sample quantile (clamped to the histogram's [first bound,
// last bound] layout, which is the histogram's documented resolution) to
// within one bucket's relative width.
//
// The pre-fix code interpolated the first bucket down from 0 instead of
// clamping at the layout floor `lo`, so a point mass at lo reported
// quantiles up to 100% below every real sample; this test fails on that
// code.
func TestQuantileDifferentialAgainstExactSamples(t *testing.T) {
	const lo, hi, perDecade = 1e-6, 100.0, 16
	ratio := math.Pow(10, 1.0/perDecade)
	tol := ratio - 1 + 1e-12 // one bucket of relative error

	// A deterministic xorshift so the "random" distributions are stable.
	seed := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return float64(seed>>11) / float64(1<<53)
	}

	distributions := map[string][]float64{
		"point-mass-at-floor": repeatSample(lo, 1000),
		"below-floor":         repeatSample(lo/50, 257),
		"single-sample":       {0.003},
		"two-spread":          {2e-6, 50},
	}
	logUniform := make([]float64, 5000)
	for i := range logUniform {
		// Spans below lo through beyond the last bound.
		logUniform[i] = math.Pow(10, -7+10*next())
	}
	distributions["log-uniform-with-tails"] = logUniform
	overflow := make([]float64, 400)
	for i := range overflow {
		overflow[i] = 500 + 1000*next() // all beyond the last bound
	}
	distributions["overflow-heavy"] = overflow

	qs := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}
	for name, samples := range distributions {
		h, err := NewHistogram(lo, hi, perDecade)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range samples {
			h.Observe(v)
		}
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		floor := h.bounds[0]
		ceil := h.bounds[len(h.bounds)-1]
		for _, q := range qs {
			got := h.Quantile(q)
			k := int(math.Ceil(q * float64(len(sorted))))
			if k < 1 {
				k = 1
			}
			if k > len(sorted) {
				k = len(sorted)
			}
			exact := math.Min(math.Max(sorted[k-1], floor), ceil)
			if rel := math.Abs(got-exact) / exact; rel > tol {
				t.Errorf("%s: q=%.2f estimated %.6g, exact (clamped) %.6g: relative error %.3f > %.3f",
					name, q, got, exact, rel, tol)
			}
		}
	}

	// Zero-count histogram: the defined empty value is 0 for every q.
	empty, err := NewHistogram(lo, hi, perDecade)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty histogram Quantile(%v) = %v, want the defined 0", q, got)
		}
	}
}

func repeatSample(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestHistogramQuantiles(t *testing.T) {
	h, err := NewHistogram(1e-6, 10, 16)
	if err != nil {
		t.Fatal(err)
	}
	// 10k samples uniform in [1ms, 2ms): quantiles must land inside the
	// range with bucket-width accuracy.
	for i := 0; i < 10000; i++ {
		h.Observe(0.001 + float64(i)*1e-7)
	}
	if got := h.count.Load(); got != 10000 {
		t.Fatalf("count %d", got)
	}
	if m := h.HistMean(); math.Abs(m-0.0015) > 1e-4 {
		t.Fatalf("mean %v, want ~0.0015", m)
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.5, 0.0015, 0.00025},
		{0.95, 0.00195, 0.0003},
		{0.99, 0.00199, 0.0003},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("q%.2f = %v, want %v ± %v", tc.q, got, tc.want, tc.tol)
		}
	}
}

func TestHistogramOrderedQuantiles(t *testing.T) {
	h := NewLatencyHistogram()
	for _, v := range []float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1} {
		for i := 0; i < 100; i++ {
			h.Observe(v)
		}
	}
	last := 0.0
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < last {
			t.Fatalf("quantiles not monotone: q%.2f=%v after %v", q, v, last)
		}
		last = v
	}
}

func TestHistogramOverflowAndEmpty(t *testing.T) {
	h, err := NewHistogram(1, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	h.Observe(1e9) // beyond the last bound
	if over := h.over.Load(); over != 1 {
		t.Fatalf("overflow count %d", over)
	}
	if got := h.Quantile(0.99); got != h.bounds[len(h.bounds)-1] {
		t.Fatalf("overflow quantile %v, want last bound %v", got, h.bounds[len(h.bounds)-1])
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewLatencyHistogram()
	var wg sync.WaitGroup
	const workers, per = 8, 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(1e-4 * float64(1+w))
			}
		}(w)
	}
	wg.Wait()
	if got := h.count.Load(); got != workers*per {
		t.Fatalf("count %d, want %d", got, workers*per)
	}
	want := 0.0
	for w := 1; w <= workers; w++ {
		want += 1e-4 * float64(w) * per
	}
	if math.Abs(h.Sum()-want) > 1e-9 {
		t.Fatalf("sum %v, want %v", h.Sum(), want)
	}
}

func TestHistogramObserveAllocationFree(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(0.001)
	allocs := testing.AllocsPerRun(1000, func() { h.Observe(0.0015) })
	if allocs != 0 {
		t.Fatalf("Observe allocated %.1f times per call, want 0", allocs)
	}
}

func TestHistogramBadLayout(t *testing.T) {
	if _, err := NewHistogram(0, 1, 4); err == nil {
		t.Fatal("lo=0 accepted")
	}
	if _, err := NewHistogram(2, 1, 4); err == nil {
		t.Fatal("hi<lo accepted")
	}
	if _, err := NewHistogram(1, 2, 0); err == nil {
		t.Fatal("perDecade=0 accepted")
	}
}
