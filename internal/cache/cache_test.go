package cache

import (
	"testing"

	"salientpp/internal/graph"
	"salientpp/internal/partition"
	"salientpp/internal/rng"
)

func TestCacheBuildAndLookup(t *testing.T) {
	c, err := Build([]int32{5, 9, 2}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("Len=%d", c.Len())
	}
	for i, v := range []int32{5, 9, 2} {
		if !c.Has(v) {
			t.Fatalf("missing %d", v)
		}
		slot, ok := c.Slot(v)
		if !ok || slot != int32(i) {
			t.Fatalf("slot of %d = %d,%v", v, slot, ok)
		}
	}
	if c.Has(3) {
		t.Fatal("false positive")
	}
	if _, ok := c.Slot(3); ok {
		t.Fatal("slot for uncached vertex")
	}
}

func TestCacheBuildErrors(t *testing.T) {
	if _, err := Build([]int32{1, 1}, 4); err == nil {
		t.Fatal("expected duplicate error")
	}
	if _, err := Build([]int32{4}, 4); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := Build([]int32{-1}, 4); err == nil {
		t.Fatal("expected range error")
	}
}

func TestCapacityForAlpha(t *testing.T) {
	if c := CapacityForAlpha(0.32, 1000, 8); c != 40 {
		t.Fatalf("capacity=%d want 40", c)
	}
	if c := CapacityForAlpha(0, 1000, 8); c != 0 {
		t.Fatalf("capacity=%d want 0", c)
	}
	if c := CapacityForAlpha(-1, 1000, 8); c != 0 {
		t.Fatalf("negative alpha capacity=%d", c)
	}
}

func TestFromRankingTruncation(t *testing.T) {
	c, err := FromRanking([]int32{3, 1, 2}, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 || !c.Has(3) || !c.Has(1) || c.Has(2) {
		t.Fatal("truncation wrong")
	}
	// Capacity beyond ranking length is fine.
	c2, err := FromRanking([]int32{3}, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 1 {
		t.Fatal("over-capacity wrong")
	}
}

// policyContext builds a realistic partitioned workload shared by the
// policy tests.
func policyContext(t *testing.T) *Context {
	t.Helper()
	g, err := graph.RMAT(graph.DefaultRMAT(2000, 16000, 51))
	if err != nil {
		t.Fatal(err)
	}
	res, err := partition.Partition(g, partition.Config{K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	train := rng.New(17).SampleK(nil, 400, g.NumVertices())
	return &Context{
		G: g, Parts: res.Parts, K: 4, Part: 1,
		TrainIDs: train, Fanouts: []int{5, 3}, BatchSize: 32,
		Seed: 7, Workers: 2,
	}
}

func TestPoliciesRankOnlyRemoteDistinct(t *testing.T) {
	ctx := policyContext(t)
	for _, p := range Registry(2, 8, 99) {
		ids, err := p.Rank(ctx)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		seen := map[int32]bool{}
		for _, v := range ids {
			if ctx.Parts[v] == ctx.Part {
				t.Fatalf("%s ranked local vertex %d", p.Name(), v)
			}
			if seen[v] {
				t.Fatalf("%s ranked %d twice", p.Name(), v)
			}
			seen[v] = true
		}
	}
}

func TestPoliciesDeterministic(t *testing.T) {
	ctx := policyContext(t)
	for _, p := range Registry(2, 8, 99) {
		a, err := p.Rank(ctx)
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.Rank(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s nondeterministic length", p.Name())
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s nondeterministic at %d", p.Name(), i)
			}
		}
	}
}

func TestNonePolicy(t *testing.T) {
	ids, err := None{}.Rank(policyContext(t))
	if err != nil || len(ids) != 0 {
		t.Fatalf("None policy: ids=%v err=%v", ids, err)
	}
}

func TestWorkloadBoundsAndOrdering(t *testing.T) {
	ctx := policyContext(t)
	const evalEpochs = 8
	const evalSeed = 99
	w, err := NewWorkload(ctx, evalEpochs, evalSeed)
	if err != nil {
		t.Fatal(err)
	}
	upper := w.RemoteTotal()
	if upper <= 0 {
		t.Fatal("no remote traffic — test workload degenerate")
	}
	empty, err := Build(nil, ctx.G.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	if got := w.RemoteVolume(empty); got != upper {
		t.Fatalf("empty cache volume %d != upper bound %d", got, upper)
	}

	capacity := CapacityForAlpha(0.2, ctx.G.NumVertices(), ctx.K)
	lower := w.OracleVolume(capacity)
	if lower >= upper {
		t.Fatalf("oracle %d not below upper %d", lower, upper)
	}

	vols := map[string]int64{}
	for _, p := range Registry(2, evalEpochs, evalSeed) {
		ids, err := p.Rank(ctx)
		if err != nil {
			t.Fatal(err)
		}
		c, err := FromRanking(ids, capacity, ctx.G.NumVertices())
		if err != nil {
			t.Fatal(err)
		}
		v := w.RemoteVolume(c)
		if v < lower || v > upper {
			t.Fatalf("%s volume %d outside [oracle %d, none %d]", p.Name(), v, lower, upper)
		}
		vols[p.Name()] = v
	}

	// The oracle policy evaluated on its own epochs achieves the bound.
	if vols["oracle"] != lower {
		t.Fatalf("oracle policy volume %d != optimal %d", vols["oracle"], lower)
	}
	// Paper orderings (Figure 2): VIP beats the structure-only heuristics.
	if vols["VIP"] > vols["deg."] {
		t.Fatalf("VIP %d worse than degree %d", vols["VIP"], vols["deg."])
	}
	if vols["VIP"] > vols["1-hop"] {
		t.Fatalf("VIP %d worse than 1-hop %d", vols["VIP"], vols["1-hop"])
	}
	if vols["VIP"] > vols["wPR"] {
		t.Fatalf("VIP %d worse than wPR %d", vols["VIP"], vols["wPR"])
	}
	// And sits near the oracle (paper: within ~5% at paper scale; allow
	// generous slack at this tiny scale).
	if float64(vols["VIP"]) > 1.6*float64(lower) {
		t.Fatalf("VIP %d too far above oracle %d", vols["VIP"], lower)
	}
}

func TestVolumeMonotoneInCapacity(t *testing.T) {
	ctx := policyContext(t)
	w, err := NewWorkload(ctx, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := VIP{}.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	prev := w.RemoteTotal()
	for _, capacity := range []int{0, 10, 50, 100, 250, 500} {
		c, err := FromRanking(ids, capacity, ctx.G.NumVertices())
		if err != nil {
			t.Fatal(err)
		}
		v := w.RemoteVolume(c)
		if v > prev {
			t.Fatalf("volume increased with capacity %d: %d > %d", capacity, v, prev)
		}
		prev = v
	}
}

func TestOracleVolumeFullCapacityIsZero(t *testing.T) {
	ctx := policyContext(t)
	w, err := NewWorkload(ctx, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if v := w.OracleVolume(ctx.G.NumVertices()); v != 0 {
		t.Fatalf("oracle at full capacity = %d, want 0", v)
	}
}

func TestContextValidate(t *testing.T) {
	ctx := policyContext(t)
	bad := *ctx
	bad.Part = 9
	if err := bad.Validate(); err == nil {
		t.Fatal("expected partition range error")
	}
	bad2 := *ctx
	bad2.BatchSize = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected batch size error")
	}
	bad3 := *ctx
	bad3.Fanouts = nil
	if err := bad3.Validate(); err == nil {
		t.Fatal("expected fanout error")
	}
}

func TestPerEpoch(t *testing.T) {
	w := &Workload{Epochs: 4}
	if got := w.PerEpoch(8); got != 2 {
		t.Fatalf("PerEpoch=%v", got)
	}
	w0 := &Workload{}
	if got := w0.PerEpoch(8); got != 0 {
		t.Fatalf("PerEpoch with 0 epochs = %v", got)
	}
}
