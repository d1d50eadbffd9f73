package tensor

import "testing"

func TestPoolReusesBuffers(t *testing.T) {
	p := NewPool()
	m := p.Get(10, 10)
	if m.Rows != 10 || m.Cols != 10 || len(m.Data) != 100 {
		t.Fatalf("shape: %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	first := &m.Data[:1][0]
	p.Put(m)
	// Same capacity class (128): must hand back the same buffer.
	n := p.Get(11, 11)
	if len(n.Data) != 121 || &n.Data[:1][0] != first {
		t.Fatal("pool did not reuse the buffer for the same capacity class")
	}
	p.Put(n)
	// A larger class allocates fresh storage.
	big := p.Get(64, 64)
	if &big.Data[:1][0] == first {
		t.Fatal("pool returned an undersized buffer")
	}
}

func TestPoolZeroSized(t *testing.T) {
	p := NewPool()
	m := p.Get(0, 5)
	if m.Rows != 0 || len(m.Data) != 0 {
		t.Fatalf("zero-row matrix: %+v", m)
	}
	p.Put(m)
}

func TestBucketFor(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := bucketFor(n); got != want {
			t.Fatalf("bucketFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestArenaReleasesEverything(t *testing.T) {
	p := NewPool()
	a := NewArena(p)
	m1 := a.Get(4, 4)
	m2 := a.Get(8, 8)
	if a.Held() != 2 {
		t.Fatalf("held %d", a.Held())
	}
	ptr1, ptr2 := &m1.Data[:1][0], &m2.Data[:1][0]
	a.Release()
	if a.Held() != 0 {
		t.Fatal("arena retained matrices after Release")
	}
	// Both buffers are back in the pool.
	r1, r2 := p.Get(4, 4), p.Get(8, 8)
	if &r1.Data[:1][0] != ptr1 || &r2.Data[:1][0] != ptr2 {
		t.Fatal("released buffers were not pooled")
	}
}

// TestPoolAllocationFree is the allocation-regression guard for the arena
// itself: warm Get/Put cycles must not touch the heap.
func TestPoolAllocationFree(t *testing.T) {
	p := NewPool()
	a := NewArena(p)
	// Warm the capacity classes and the arena's held list.
	for i := 0; i < 3; i++ {
		a.Get(32, 32)
		a.Get(7, 5)
		a.Release()
	}
	allocs := testing.AllocsPerRun(100, func() {
		a.Get(32, 32)
		a.Get(7, 5)
		a.Release()
	})
	if allocs != 0 {
		t.Fatalf("warm arena cycle allocated %.1f times per run, want 0", allocs)
	}
}

// TestMatMulSerialAllocationFree guards the inline kernel paths used by
// small operands (below MinParallelRows): no escaping closures, no
// goroutines, no heap traffic.
func TestMatMulSerialAllocationFree(t *testing.T) {
	a := New(32, 16)
	b := New(16, 24)
	bt := New(24, 16)
	c := New(32, 24)
	g, g2 := New(16, 24), New(16, 24)
	for i := range a.Data {
		a.Data[i] = float32(i%7) - 3
	}
	for i := range b.Data {
		b.Data[i] = float32(i%5) - 2
	}
	copy(bt.Data, b.Data[:len(bt.Data)])
	allocs := testing.AllocsPerRun(50, func() {
		MatMul(c, a, b)
		MatMulATB(g, a, c)
		MatMulATBAddPair(g, a, g2, a, c)
		MatMulABT(c, a, bt)
	})
	if allocs != 0 {
		t.Fatalf("serial matmul kernels allocated %.1f times per run, want 0", allocs)
	}
}
