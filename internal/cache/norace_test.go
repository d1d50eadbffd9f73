//go:build !race

package cache

import "testing"

// TestOnlineRefreshAllocationFree: a warm online refresh — Observe a
// round, Propose the next membership, Retarget the working epoch to it in
// place — allocates nothing, so serving pays no garbage for moving its
// cache. It lives in a !race file because the race runtime makes
// AllocsPerRun unreliable.
func TestOnlineRefreshAllocationFree(t *testing.T) {
	const n, dim, capacity = 4096, 16, 256
	seed := make([]int32, 2*capacity)
	for i := range seed {
		seed[i] = int32(i * 7 % n)
	}
	b, err := NewEpochBuilder(n, dim, testRowSource(dim))
	if err != nil {
		t.Fatal(err)
	}
	setup, err := b.Build(seed[:capacity])
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOnline(n, 0, 0, seed, nil, OnlineConfig{HalfLife: 4})
	if err != nil {
		t.Fatal(err)
	}
	var work Epoch
	work.CopyFrom(setup)
	row := testRowSource(dim)
	// Eight hot windows, each held for three rounds in turn, keep the
	// membership churning.
	hot := make([]int32, 64)
	round, installs := 0, 0
	refresh := func() {
		for i := range hot {
			hot[i] = int32((round/3%8*97 + i*31) % n)
		}
		round++
		o.Observe(hot)
		if _, changed := work.Retarget(o.Propose(capacity), row); changed {
			installs++
		}
	}
	// Warm up: every vertex the windows visit joins the candidate set.
	for i := 0; i < 24; i++ {
		refresh()
	}
	round, installs = 0, 0
	if allocs := testing.AllocsPerRun(100, refresh); allocs != 0 {
		t.Fatalf("a warm online refresh allocated %.1f times, want 0", allocs)
	}
	if installs == 0 {
		t.Fatal("the drifting stream installed nothing: the guard measured no retarget")
	}
}
