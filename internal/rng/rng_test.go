package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams from different seeds coincide too often: %d/100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(0)
	c2 := parent.Split(1)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("children with different stream ids should differ")
	}
	// Same stream id from the same parent state must agree.
	p2 := New(7)
	d1 := p2.Split(0)
	e1 := New(7).Split(0)
	for i := 0; i < 100; i++ {
		if d1.Uint64() != e1.Uint64() {
			t.Fatalf("split determinism violated at step %d", i)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d too far from %f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	var sum float64
	const trials = 100000
	for i := 0; i < trials; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v far from 0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(9)
	const trials = 200000
	var sum, sumsq float64
	for i := 0; i < trials; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / trials
	variance := sumsq/trials - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	for _, n := range []int{0, 1, 2, 10, 1000} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) wrong length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || int(v) >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleKDistinct(t *testing.T) {
	r := New(17)
	buf := make([]int32, 0, 64)
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(200)
		k := r.Intn(n + 1)
		out := r.SampleK(buf, k, n)
		if len(out) != k {
			t.Fatalf("SampleK returned %d values, want %d", len(out), k)
		}
		seen := map[int32]bool{}
		for _, v := range out {
			if v < 0 || int(v) >= n {
				t.Fatalf("SampleK value %d out of [0,%d)", v, n)
			}
			if seen[v] {
				t.Fatalf("SampleK produced duplicate %d (k=%d n=%d)", v, k, n)
			}
			seen[v] = true
		}
	}
}

func TestSampleKFullRange(t *testing.T) {
	r := New(19)
	out := r.SampleK(nil, 10, 10)
	seen := make([]bool, 10)
	for _, v := range out {
		seen[v] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("SampleK(10,10) missing %d", i)
		}
	}
}

func TestSampleKPanicsWhenKExceedsN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).SampleK(nil, 5, 4)
}

func TestSampleKCoverageProperty(t *testing.T) {
	// Property: over many draws every element of [0,n) appears.
	f := func(seed uint64) bool {
		r := New(seed)
		const n, k = 20, 5
		seen := make([]bool, n)
		for i := 0; i < 400; i++ {
			for _, v := range r.SampleK(nil, k, n) {
				seen[v] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkSampleK15of1000(b *testing.B) {
	r := New(1)
	buf := make([]int32, 0, 15)
	for i := 0; i < b.N; i++ {
		buf = r.SampleK(buf, 15, 1000)
	}
}

// TestStateRoundTrip pins the checkpointing contract: capturing State
// mid-sequence and restoring it — into the same generator or a fresh one —
// must reproduce the exact remaining sequence, which is what makes resumed
// training draw the same dropout masks the uninterrupted run would have.
func TestStateRoundTrip(t *testing.T) {
	r := New(42)
	for i := 0; i < 100; i++ {
		r.Uint64() // advance mid-sequence
	}
	snap := r.State()
	var want [32]uint64
	for i := range want {
		want[i] = r.Uint64()
	}

	fresh := new(RNG)
	fresh.SetState(snap)
	for i, w := range want {
		if got := fresh.Uint64(); got != w {
			t.Fatalf("fresh SetState diverged at draw %d: %d != %d", i, got, w)
		}
	}
	r.SetState(snap)
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("SetState diverged at draw %d: %d != %d", i, got, w)
		}
	}
}
