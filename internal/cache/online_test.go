package cache

import (
	"slices"
	"testing"
)

// testRowSource returns a row function over n synthetic dim-wide rows
// (vertex v's row is [v*10, v*10+1, ...]), for builder tests.
func testRowSource(dim int) func(v int32) []float32 {
	buf := make([]float32, dim)
	return func(v int32) []float32 {
		for j := range buf {
			buf[j] = float32(int(v)*10 + j)
		}
		return buf
	}
}

// TestOnlinePolicyDeterminism feeds two independently constructed scorers
// the identical observation stream and requires identical proposals after
// every round — the Online determinism contract serving's cross-transport
// reproducibility rests on.
func TestOnlinePolicyDeterminism(t *testing.T) {
	const n = 64
	seed := []int32{3, 1, 4, 1, 5, 9, 2, 6}
	degrees := make([]int32, n)
	for v := range degrees {
		degrees[v] = int32(v%7 + 1)
	}
	mk := func() *Online {
		o, err := NewOnline(n, 0, 0, seed, degrees, OnlineConfig{HalfLife: 8})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	a, b := mk(), mk()
	for round := 0; round < 200; round++ {
		ids := []int32{int32(round % n), int32((round * 7) % n), int32((round * 3) % n), int32((round*5 + 1) % n)}
		a.Observe(ids)
		b.Observe(ids)
		pa := a.Propose(10)
		pb := b.Propose(10)
		if len(pa) != len(pb) {
			t.Fatalf("round %d: proposal lengths differ: %d vs %d", round, len(pa), len(pb))
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("round %d: proposals diverge at %d: %v vs %v", round, i, pa, pb)
			}
		}
	}
}

// TestOnlineAdmissionAndEviction checks the scorer's drift response: a
// newly hot vertex must out-score the seeded prefix once its decayed
// frequency clears the prior, and must decay back out when the traffic
// moves on.
func TestOnlineAdmissionAndEviction(t *testing.T) {
	const n = 32
	o, err := NewOnline(n, 0, 0, []int32{0, 1, 2, 3}, nil, OnlineConfig{HalfLife: 4})
	if err != nil {
		t.Fatal(err)
	}
	has := func(ids []int32, v int32) bool {
		for _, x := range ids {
			if x == v {
				return true
			}
		}
		return false
	}
	// Vertex 20 gets hot: after a handful of rounds its frequency (~1 per
	// round) beats every prior (<= priorWeight*(1+degreeWeight)).
	for round := 0; round < 12; round++ {
		o.Observe([]int32{20})
	}
	if got := o.Propose(2); !has(got, 20) {
		t.Fatalf("hot vertex not admitted: proposal %v", got)
	}
	// Traffic moves to vertex 21; vertex 20's heat halves every 4 rounds
	// and the prior-backed seeds plus the new hot vertex crowd it out.
	for round := 0; round < 64; round++ {
		o.Observe([]int32{21})
	}
	got := o.Propose(2)
	if has(got, 20) {
		t.Fatalf("cold vertex still proposed after 64 idle rounds: %v", got)
	}
	if !has(got, 21) {
		t.Fatalf("new hot vertex not admitted: %v", got)
	}
}

// TestOnlineTieBreakAscendingID pins the full ordering: equal scores must
// order by ascending vertex id, never map/iteration order.
func TestOnlineTieBreakAscendingID(t *testing.T) {
	o, err := NewOnline(16, 0, 0, nil, nil, OnlineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// One access each, same round: identical decayed frequency, zero prior.
	o.Observe([]int32{9, 3, 12, 5})
	got := o.Propose(4)
	want := []int32{3, 5, 9, 12}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tied proposal order %v, want %v", got, want)
		}
	}
}

// TestOnlineObserveIgnoresLocalIDsAndOrder pins what Observe reads from a
// round: only the ids outside the rank's own interval, as a set of
// accesses. A scorer fed every input id in gather order and one fed only the
// non-local ids, reversed, propose the same membership after every round,
// and no owned id is ever proposed however hot it runs.
func TestOnlineObserveIgnoresLocalIDsAndOrder(t *testing.T) {
	const n, lo, hi = 32, 8, 16
	seed := []int32{0, 20, 3, 31}
	mk := func() *Online {
		o, err := NewOnline(n, lo, hi, seed, nil, OnlineConfig{HalfLife: 4})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	all, remote := mk(), mk()
	for round := 0; round < 64; round++ {
		ids := []int32{int32(lo + round%(hi-lo)), int32((round * 5) % n), int32((round*11 + 3) % n), lo, int32((round * 5) % n)}
		all.Observe(ids)
		var rest []int32
		for i := len(ids) - 1; i >= 0; i-- {
			if ids[i] < lo || ids[i] >= hi {
				rest = append(rest, ids[i])
			}
		}
		remote.Observe(rest)
		pa, pb := all.Propose(n), remote.Propose(n)
		if !slices.Equal(pa, pb) {
			t.Fatalf("round %d: proposals differ: %v vs %v", round, pa, pb)
		}
		for _, v := range pa {
			if v >= lo && v < hi {
				t.Fatalf("round %d: owned id %d proposed: %v", round, v, pa)
			}
		}
	}
	if _, err := NewOnline(n, 4, 40, nil, nil, OnlineConfig{}); err == nil {
		t.Fatal("interval past n accepted")
	}
}

// TestStaticPolicyBitwiseUnchanged pins the static cache to the frozen
// setup-time behavior: re-proposing the pinned setup prefix round after
// round builds no epoch and counts no churn, so the store-side swap never
// happens and the cache stays bitwise the setup-time truncated ranking —
// rows hydrated from the row source in slot order — for the life of the run.
func TestStaticPolicyBitwiseUnchanged(t *testing.T) {
	const dim = 3
	prefix := []int32{7, 2, 9, 4}
	builder, err := NewEpochBuilder(16, dim, testRowSource(dim))
	if err != nil {
		t.Fatal(err)
	}
	setup, err := builder.Build(prefix)
	if err != nil {
		t.Fatal(err)
	}
	ids := setup.IDs()
	if len(ids) != len(prefix) {
		t.Fatalf("setup epoch holds %d ids, want %d", len(ids), len(prefix))
	}
	for i, v := range ids {
		if v != prefix[i] {
			t.Fatalf("slot %d holds %d, want pinned %d", i, v, prefix[i])
		}
		for j := 0; j < dim; j++ {
			if got, want := setup.Rows.At(i, j), float32(int(v)*10+j); got != want {
				t.Fatalf("row %d col %d = %v, want %v", i, j, got, want)
			}
		}
	}

	for round := 0; round < 100; round++ {
		next, churn, err := builder.BuildFor(prefix, setup)
		if err != nil {
			t.Fatal(err)
		}
		if next != nil || churn != 0 {
			t.Fatalf("round %d: static prefix produced an epoch (churn %d)", round, churn)
		}
	}
	if live := builder.Live(); live != 1 {
		t.Fatalf("static proposals left %d epochs live, want the 1 built", live)
	}
	builder.Release(setup)
	if live := builder.Live(); live != 0 {
		t.Fatalf("%d epochs live after release", live)
	}
}

// TestInstallerChurnAndRelease exercises the build/install/release cycle of
// EpochBuilder.BuildFor: churn counts only newly admitted ids, an unchanged
// membership builds nothing, and releasing every retired epoch drains the
// builder's pool.
func TestInstallerChurnAndRelease(t *testing.T) {
	const n, dim = 16, 3
	builder, err := NewEpochBuilder(n, dim, testRowSource(dim))
	if err != nil {
		t.Fatal(err)
	}
	pol, err := NewOnline(n, 0, 0, []int32{1, 2}, nil, OnlineConfig{HalfLife: 2})
	if err != nil {
		t.Fatal(err)
	}

	cur, err := builder.Build([]int32{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if cur.Gen != 1 {
		t.Fatalf("first build gen %d", cur.Gen)
	}
	// Rows must be hydrated from the row source in slot order.
	for i, v := range cur.IDs() {
		if cur.Rows.At(i, 0) != float32(v*10) {
			t.Fatalf("row %d not hydrated for vertex %d", i, v)
		}
	}

	// Same membership proposed -> no build, no churn.
	if next, churn, err := builder.BuildFor([]int32{1, 2}, cur); err != nil || next != nil || churn != 0 {
		t.Fatalf("unchanged membership built an epoch: %v %d %v", next, churn, err)
	}

	// Heat vertex 9 until it displaces a seed: churn 1 (only 9 is new).
	for round := 0; round < 16; round++ {
		pol.Observe([]int32{9, 1})
	}
	next, churn, err := builder.BuildFor(pol.Propose(2), cur)
	if err != nil {
		t.Fatal(err)
	}
	if next == nil || churn != 1 {
		t.Fatalf("expected a 1-churn install, got %v churn %d", next, churn)
	}
	if next.Gen != cur.Gen+1 {
		t.Fatalf("generation did not advance: %d after %d", next.Gen, cur.Gen)
	}
	builder.Release(cur)
	builder.Release(next)
	if live := builder.Live(); live != 0 {
		t.Fatalf("%d epochs live after releasing everything", live)
	}
	// Double release and foreign/nil release are no-ops.
	builder.Release(next)
	builder.Release(nil)
	setup, err := NewEpoch(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	builder.Release(setup)
	if live := builder.Live(); live != 0 {
		t.Fatalf("release no-ops disturbed the gauge: %d", live)
	}
}

// TestEpochBuilderRebuildAllocationFree: once a builder has released an
// epoch, the next Build rebuilds it in place — index bitset, slot map, ids
// and pooled rows — so a warm build/release cycle allocates nothing.
func TestEpochBuilderRebuildAllocationFree(t *testing.T) {
	const n, dim = 4096, 16
	b, err := NewEpochBuilder(n, dim, testRowSource(dim))
	if err != nil {
		t.Fatal(err)
	}
	a, c := make([]int32, 300), make([]int32, 280)
	for i := range a {
		a[i] = int32(i * 13 % n)
	}
	for i := range c {
		c[i] = int32((i*29 + 7) % n)
	}
	round := 0
	cycle := func() {
		ids := a
		if round%2 == 1 {
			ids = c
		}
		round++
		ep, err := b.Build(ids)
		if err != nil {
			t.Fatal(err)
		}
		b.Release(ep)
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warm build/release allocated %.1f times per cycle, want 0", allocs)
	}
	// A rebuilt epoch is the membership asked for, not a mix with the
	// one it was rebuilt from.
	ep, err := b.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ep.IDs(), c) {
		t.Fatal("rebuilt epoch ids differ from the build request")
	}
	for v := int32(0); v < n; v++ {
		slot, ok := ep.Index.Slot(v)
		if ok != slices.Contains(c, v) || ok != ep.Index.Has(v) {
			t.Fatalf("vertex %d: membership %v, bitset %v, requested %v", v, ok, ep.Index.Has(v), slices.Contains(c, v))
		}
		if ok && ep.Rows.At(int(slot), 0) != float32(v*10) {
			t.Fatalf("vertex %d: row not hydrated", v)
		}
	}
	// A failed rebuild leaves nothing half-built behind.
	b.Release(ep)
	if _, err := b.Build([]int32{1, 2, 1}); err == nil {
		t.Fatal("duplicate ids accepted")
	}
	ep, err = b.Build([]int32{2})
	if err != nil {
		t.Fatal(err)
	}
	if ep.Len() != 1 || ep.Index.Has(1) || !ep.Index.Has(2) {
		t.Fatalf("rebuild after a failed build holds %v", ep.IDs())
	}
	b.Release(ep)
	if live := b.Live(); live != 0 {
		t.Fatalf("%d epochs live after releasing everything", live)
	}
}
