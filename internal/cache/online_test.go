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
// setup-time behavior: retargeting a working epoch to the pinned setup
// prefix round after round changes nothing — no churn, no new generation,
// not one row rewritten — so the cache stays bitwise the setup-time
// truncated ranking, rows hydrated from the row source in slot order, for
// the life of the run.
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
	if setup.Gen != 0 {
		t.Fatalf("setup epoch gen %d, want 0", setup.Gen)
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

	var work Epoch
	work.CopyFrom(setup)
	reversed := slices.Clone(prefix)
	slices.Reverse(reversed)
	for round := 0; round < 100; round++ {
		p := prefix
		if round%2 == 1 {
			p = reversed // membership, not order, is what a retarget reads
		}
		churn, changed := work.Retarget(p, func(v int32) []float32 {
			t.Fatalf("round %d: static prefix hydrated vertex %d", round, v)
			return nil
		})
		if changed || churn != 0 {
			t.Fatalf("round %d: static prefix changed the epoch (churn %d)", round, churn)
		}
	}
	if work.Gen != 0 || !slices.Equal(work.IDs(), prefix) || !slices.Equal(work.Rows.Data, setup.Rows.Data) {
		t.Fatalf("static retargets moved the epoch: gen %d ids %v", work.Gen, work.IDs())
	}
}

// TestRetargetChurnAndGeneration exercises the online install cycle on a
// working epoch: churn counts only newly admitted ids, an unchanged
// membership is no install, and an install advances the generation.
func TestRetargetChurnAndGeneration(t *testing.T) {
	const n, dim = 16, 3
	builder, err := NewEpochBuilder(n, dim, testRowSource(dim))
	if err != nil {
		t.Fatal(err)
	}
	pol, err := NewOnline(n, 0, 0, []int32{1, 2}, nil, OnlineConfig{HalfLife: 2})
	if err != nil {
		t.Fatal(err)
	}
	setup, err := builder.Build([]int32{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	var cur Epoch
	cur.CopyFrom(setup)
	row := testRowSource(dim)

	// Same membership proposed -> no install, no churn.
	if churn, changed := cur.Retarget([]int32{2, 1}, row); changed || churn != 0 || cur.Gen != 0 {
		t.Fatalf("unchanged membership installed: churn %d changed %v gen %d", churn, changed, cur.Gen)
	}

	// Heat vertex 9 until it displaces a seed: churn 1 (only 9 is new).
	for round := 0; round < 16; round++ {
		pol.Observe([]int32{9, 1})
	}
	churn, changed := cur.Retarget(pol.Propose(2), row)
	if !changed || churn != 1 {
		t.Fatalf("expected a 1-churn install, got changed %v churn %d", changed, churn)
	}
	if cur.Gen != 1 {
		t.Fatalf("generation did not advance: %d", cur.Gen)
	}
	if cur.Len() != 2 || !cur.Index.Has(9) || !cur.Index.Has(1) || cur.Index.Has(2) {
		t.Fatalf("installed membership %v, want {1, 9}", cur.IDs())
	}
	// 9 took the slot 2 freed; 1 kept its own.
	if s, _ := cur.Index.Slot(9); s != 1 || cur.Rows.At(1, 0) != 90 {
		t.Fatalf("vertex 9 in slot %d with row %v", s, cur.Rows.Row(1))
	}
	if setup.Gen != 0 || !slices.Equal(setup.IDs(), []int32{1, 2}) {
		t.Fatalf("retargeting the working copy moved the setup epoch: %v", setup.IDs())
	}
}

// TestRetargetSlotRule pins where a retarget puts what it admits and what
// it writes: the evicted ids free their slots, the newcomers, in ascending
// id order, take the lowest free slots, and only those slots' rows are
// written — a kept slot's row is not touched.
func TestRetargetSlotRule(t *testing.T) {
	const n, dim = 16, 2
	builder, err := NewEpochBuilder(n, dim, testRowSource(dim))
	if err != nil {
		t.Fatal(err)
	}
	setup, err := builder.Build([]int32{7, 2, 9, 4})
	if err != nil {
		t.Fatal(err)
	}
	var work Epoch
	work.CopyFrom(setup)
	// Mark the kept slots' rows: a retarget that rewrote them would
	// restore the row source's values.
	work.Rows.Set(1, 0, -1)
	work.Rows.Set(2, 0, -2)
	churn, changed := work.Retarget([]int32{11, 9, 5, 2}, testRowSource(dim))
	if !changed || churn != 2 || work.Gen != 1 {
		t.Fatalf("churn %d changed %v gen %d", churn, changed, work.Gen)
	}
	if want := []int32{5, 2, 9, 11}; !slices.Equal(work.IDs(), want) {
		t.Fatalf("slots hold %v, want %v", work.IDs(), want)
	}
	if want := []float32{50, 51, -1, 21, -2, 91, 110, 111}; !slices.Equal(work.Rows.Data, want) {
		t.Fatalf("rows %v, want %v", work.Rows.Data, want)
	}
	// A shrinking proposal leaves the freed slots empty.
	if churn, changed := work.Retarget([]int32{9}, testRowSource(dim)); !changed || churn != 0 {
		t.Fatalf("shrink: churn %d changed %v", churn, changed)
	}
	if want := []int32{-1, -1, 9, -1}; !slices.Equal(work.IDs(), want) || work.Len() != 1 {
		t.Fatalf("after shrink slots hold %v (len %d), want %v", work.IDs(), work.Len(), want)
	}
}

// TestEpochBuilderBuild: a build holds exactly the ids asked for, slot i
// holding ids[i] with its hydrated row, at generation 0, in storage of its
// own; a failed build returns no epoch.
func TestEpochBuilderBuild(t *testing.T) {
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
	first, err := b.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := b.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	if ep.Gen != 0 || !slices.Equal(ep.IDs(), c) || !slices.Equal(first.IDs(), a) {
		t.Fatal("a build's ids differ from the build request")
	}
	for v := int32(0); v < n; v++ {
		slot, ok := ep.Index.Slot(v)
		if ok != slices.Contains(c, v) || ok != ep.Index.Has(v) {
			t.Fatalf("vertex %d: membership %v, index %v, requested %v", v, ok, ep.Index.Has(v), slices.Contains(c, v))
		}
		if ok && ep.Rows.At(int(slot), 0) != float32(v*10) {
			t.Fatalf("vertex %d: row not hydrated", v)
		}
	}
	if ep, err := b.Build([]int32{1, 2, 1}); err == nil || ep != nil {
		t.Fatal("duplicate ids accepted")
	}
	if _, err := NewEpochBuilder(n, dim, nil); err == nil {
		t.Fatal("builder without a row source accepted")
	}
}
