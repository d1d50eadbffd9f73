package tensor

import (
	"runtime"
	"sync"
	"testing"

	"salientpp/internal/rng"
)

// backendShapes exercises every remainder lane of the tiled dispatch: odd
// rows/cols/depth (incl. the micro-kernel's 2-row and 4-column remainders
// and the k%4 SIMD tail), sub-threshold serial paths, the exact
// MinParallelRows boundary, run-boundary column counts (panelCols(k)
// multiples ±1), and i-chunk boundaries (tileIChunk=128 multiples ±1).
var backendShapes = [][3]int{
	{1, 1, 1}, {2, 3, 4}, {3, 5, 7}, {4, 4, 4}, {5, 9, 6}, {7, 13, 11},
	{63, 17, 10}, {64, 16, 9}, {65, 19, 33},
	{96, 128, 31}, {96, 128, 32}, {96, 128, 33},
	{127, 64, 65}, {128, 64, 64}, {129, 96, 40},
	{130, 21, 12}, {160, 100, 129}, {257, 128, 256},
	{64, 256, 16}, {64, 256, 17}, {67, 64, 65},
}

// TestTiledMatchesNaiveReference is the differential sweep for the package
// kernels: every product, every shape in backendShapes (odd shapes, tail
// rows, tile- and panel-boundary sizes), checked against the
// float64-accumulating naive reference within fp32 tolerance. The dot
// kernel's strided-lane association differs from any single-chain sum by
// rounding noise, so this reference, not bitwise equality with another fp32
// kernel, is the correctness oracle.
func TestTiledMatchesNaiveReference(t *testing.T) {
	r := rng.New(55)
	for _, s := range backendShapes {
		m, k, n := s[0], s[1], s[2]
		a := randMat(m, k, r)
		b := randMat(k, n, r)
		want := New(m, n)
		refMatMul(want, a, b)

		got := New(m, n)
		MatMul(got, a, b)
		if d := MaxAbsDiff(want, got); d > 1e-3 {
			t.Fatalf("tiled MatMul %v: max diff vs naive reference %v", s, d)
		}

		at := New(k, m)
		for i := 0; i < m; i++ {
			for j := 0; j < k; j++ {
				at.Set(j, i, a.At(i, j))
			}
		}
		MatMulATB(got, at, b)
		if d := MaxAbsDiff(want, got); d > 1e-3 {
			t.Fatalf("tiled MatMulATB %v: max diff vs naive reference %v", s, d)
		}

		bt := New(n, k)
		for i := 0; i < k; i++ {
			for j := 0; j < n; j++ {
				bt.Set(j, i, b.At(i, j))
			}
		}
		MatMulABT(got, a, bt)
		if d := MaxAbsDiff(want, got); d > 1e-3 {
			t.Fatalf("tiled MatMulABT %v: max diff vs naive reference %v", s, d)
		}
	}
}

// TestMatMulAddMatchesMatMulPlusAdd pins the accumulate contract: C += A·B
// must be bitwise identical to MatMul into scratch followed by Add, so
// streaming the neighbor transform into the output matrix cannot change
// training numerics, and MatMulAddPacked against a PackB operand must
// equal MatMulAdd; likewise each half of MatMulATBAddPair against
// MatMulATB followed by Add, so the weight gradients can accumulate in
// place.
func TestMatMulAddMatchesMatMulPlusAdd(t *testing.T) {
	r := rng.New(77)
	for _, s := range backendShapes {
		m, k, n := s[0], s[1], s[2]
		a := randMat(m, k, r)
		b := randMat(k, n, r)
		base := randMat(m, n, r)

		want := base.Clone()
		tmp := New(m, n)
		MatMul(tmp, a, b)
		want.Add(tmp)

		got := base.Clone()
		MatMulAdd(got, a, b)
		if MaxAbsDiff(want, got) != 0 {
			t.Fatalf("MatMulAdd %v: differs from MatMul+Add", s)
		}
		got = base.Clone()
		bp := PackB(b)
		MatMulAddPacked(got, a, &bp)
		bp.Release()
		if MaxAbsDiff(want, got) != 0 {
			t.Fatalf("MatMulAddPacked %v: differs from MatMul+Add", s)
		}

		// The shared-B weight-gradient pair: each of its two accumulations
		// must equal MatMulATB into scratch followed by Add.
		at1, at2, g := randMat(k, m, r), randMat(k, m, r), randMat(k, n, r)
		base2 := randMat(m, n, r)
		want1, want2 := base.Clone(), base2.Clone()
		MatMulATB(tmp, at1, g)
		want1.Add(tmp)
		MatMulATB(tmp, at2, g)
		want2.Add(tmp)
		got1, got2 := base.Clone(), base2.Clone()
		MatMulATBAddPair(got1, at1, got2, at2, g)
		if MaxAbsDiff(want1, got1) != 0 || MaxAbsDiff(want2, got2) != 0 {
			t.Fatalf("MatMulATBAddPair %v: differs from MatMulATB+Add", s)
		}
	}
}

// TestTiledDeterministicAcrossWorkers extends the bitwise-reproducibility
// pin to the tiled dispatch at shapes large enough to spawn workers and
// cross chunk/panel boundaries.
func TestTiledDeterministicAcrossWorkers(t *testing.T) {
	r := rng.New(19)
	const m, k, n = 300, 128, 250
	a := randMat(m, k, r)
	b := randMat(k, n, r)
	at := randMat(k, m, r)
	bt := randMat(n, k, r)
	base := randMat(m, n, r)

	run := func() []*Matrix {
		c1, c2, c3 := New(m, n), New(m, n), New(m, n)
		c4 := base.Clone()
		MatMul(c1, a, b)
		MatMulATB(c2, at, b)
		MatMulABT(c3, a, bt)
		MatMulAdd(c4, a, b)
		return []*Matrix{c1, c2, c3, c4}
	}
	prev := runtime.GOMAXPROCS(1)
	serial := run()
	runtime.GOMAXPROCS(8)
	parallel := run()
	runtime.GOMAXPROCS(prev)
	for i := range serial {
		if MaxAbsDiff(serial[i], parallel[i]) != 0 {
			t.Fatalf("tiled kernel %d output depends on GOMAXPROCS", i)
		}
	}
}

// TestMinParallelRowsThreshold pins the exact dispatch behavior at the
// threshold: MinParallelRows-1 rows run inline (one call, on the calling
// goroutine), exactly MinParallelRows rows take the spawning path and split
// into one contiguous chunk per worker. With GOMAXPROCS=1 the spawning path
// also degenerates to one inline call.
func TestMinParallelRowsThreshold(t *testing.T) {
	type span struct{ lo, hi int }
	collect := func(n int) []span {
		var mu sync.Mutex
		var got []span
		ParallelRows(n, func(lo, hi int) {
			mu.Lock()
			got = append(got, span{lo, hi})
			mu.Unlock()
		})
		return got
	}

	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	if got := collect(MinParallelRows - 1); len(got) != 1 || got[0] != (span{0, MinParallelRows - 1}) {
		t.Fatalf("n=%d: want one inline span [0,%d), got %v", MinParallelRows-1, MinParallelRows-1, got)
	}
	got := collect(MinParallelRows)
	if len(got) != 4 {
		t.Fatalf("n=%d at GOMAXPROCS=4: want 4 worker spans, got %v", MinParallelRows, got)
	}
	covered := make([]bool, MinParallelRows)
	for _, s := range got {
		for i := s.lo; i < s.hi; i++ {
			if covered[i] {
				t.Fatalf("n=%d: row %d covered twice (%v)", MinParallelRows, i, got)
			}
			covered[i] = true
		}
	}
	for i, ok := range covered {
		if !ok {
			t.Fatalf("n=%d: row %d uncovered (%v)", MinParallelRows, i, got)
		}
	}

	runtime.GOMAXPROCS(1)
	if got := collect(MinParallelRows); len(got) != 1 || got[0] != (span{0, MinParallelRows}) {
		t.Fatalf("n=%d at GOMAXPROCS=1: want one inline span, got %v", MinParallelRows, got)
	}
}

// TestTiledWarmPathAllocationFree pins the pack-scratch reuse: once the
// shared free list is warm, the tiled kernels (including the packing
// MatMul/MatMulAdd) perform zero heap allocations on the serial path.
func TestTiledWarmPathAllocationFree(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	r := rng.New(31)
	const m, k, n = 96, 64, 48
	a := randMat(m, k, r)
	b := randMat(k, n, r)
	bt := randMat(n, k, r)
	at := randMat(k, m, r)
	c := New(m, n)
	step := func() {
		MatMul(c, a, b)
		MatMulAdd(c, a, b)
		MatMulABT(c, a, bt)
		MatMulATB(c, at, b)
	}
	step() // warm the pack free list
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Fatalf("warm tiled kernels allocated %.1f times per run, want 0", allocs)
	}
}

// benchGEMM are the layer-0/layer-1 shapes of the papers-sim training runs
// (FeatureDim 128 → Hidden 256), at a realistic MFG destination count.
func benchGEMM(b *testing.B, f func(c, a, bm *Matrix), m, k, n int) {
	b.Helper()
	r := rng.New(12)
	a := randMat(m, k, r)
	bm := randMat(k, n, r)
	c := New(m, n)
	f(c, a, bm) // warm scratch so allocs/op reflects steady state
	b.SetBytes(int64(2 * m * k * n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(c, a, bm)
	}
}

// BenchmarkMatMulTiled, BenchmarkMatMulATBTiled and BenchmarkMatMulABTTiled
// are the kernel microbenchmarks CI runs with -benchmem: the tiled path
// must show zero steady-state allocations at epoch-bench shapes.
func BenchmarkMatMulTiled(b *testing.B) {
	benchGEMM(b, MatMul, 4096, 128, 256)
}

func BenchmarkMatMulATBTiled(b *testing.B) {
	r := rng.New(13)
	a := randMat(4096, 128, r)
	bm := randMat(4096, 256, r)
	c := New(128, 256)
	MatMulATB(c, a, bm)
	b.SetBytes(int64(2 * 4096 * 128 * 256 * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulATB(c, a, bm)
	}
}

func BenchmarkMatMulABTTiled(b *testing.B) {
	r := rng.New(14)
	a := randMat(4096, 256, r)
	bt := randMat(128, 256, r)
	c := New(4096, 128)
	MatMulABT(c, a, bt)
	b.SetBytes(int64(2 * 4096 * 256 * 128 * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulABT(c, a, bt)
	}
}
