package ckpt

import (
	"os"
	"path/filepath"
	"testing"
)

// tinyState builds a minimal-but-valid 3-rank TrainState for shrink tests:
// 12 vertices in intervals [0,4) [4,8) [8,12), identity permutation, one
// 1x2 parameter per rank, distinct cache lists.
func tinyState() *TrainState {
	n := int64(12)
	perm := make([]int32, n)
	parts := make([]int32, n)
	for v := int64(0); v < n; v++ {
		perm[v] = int32(v)
		parts[v] = int32(v / 4)
	}
	mkRank := func(seed float32) *RankState {
		return &RankState{
			Params: []ParamState{{
				Rows: 1, Cols: 2,
				W: []float32{seed, seed + 1},
				M: []float32{0.1, 0.2},
				V: []float32{0.3, 0.4},
			}},
			AdamStep: 7,
			ModelRNG: [4]uint64{1, 2, 3, 4},
			Partial:  PartialEpoch{Loss: 1.5, Batches: 3},
		}
	}
	return &TrainState{
		Step: Step{Epoch: 2, Round: 5}, Rounds: 10,
		Dataset: "products-sim", Seed: 3, BatchSize: 4, Fanouts: []int32{4, 4},
		Codec: "fp32", GradCodec: "fp32",
		Topo: &Topology{
			NumVertices: n, FeatureDim: 8, K: 3,
			Perm: perm, Starts: []int64{0, 4, 8, 12}, Parts: parts,
			CacheIDs: [][]int32{
				{5, 9}, // rank 0 caches remote vertices from ranks 1 and 2
				{1, 8}, // rank 1
				{2, 6}, // rank 2
			},
		},
		Ranks: []*RankState{mkRank(10), mkRank(10), mkRank(10)},
	}
}

func TestShrinkLayout(t *testing.T) {
	starts := []int64{0, 4, 8, 12}
	cases := []struct {
		survivors []int
		want      []int64
	}{
		{[]int{0, 1}, []int64{0, 4, 12}},       // rank 2 dies: rank 1 absorbs [8,12)
		{[]int{0, 2}, []int64{0, 8, 12}},       // rank 1 dies: rank 0 absorbs [4,8)
		{[]int{1, 2}, []int64{0, 8, 12}},       // rank 0 dies: rank 1 absorbs [0,4)
		{[]int{2}, []int64{0, 12}},             // only rank 2 left
		{[]int{0, 1, 2}, []int64{0, 4, 8, 12}}, // full regroup, identity
	}
	for _, c := range cases {
		got, err := ShrinkLayout(starts, c.survivors)
		if err != nil {
			t.Fatalf("survivors %v: %v", c.survivors, err)
		}
		if len(got) != len(c.want) {
			t.Fatalf("survivors %v: got %v want %v", c.survivors, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("survivors %v: got %v want %v", c.survivors, got, c.want)
			}
		}
	}
	for _, bad := range [][]int{nil, {0, 0}, {1, 0}, {-1}, {3}, {0, 1, 2, 2}} {
		if _, err := ShrinkLayout(starts, bad); err == nil {
			t.Fatalf("survivors %v accepted", bad)
		}
	}
}

func TestShrinkState(t *testing.T) {
	st := tinyState()
	out, err := ShrinkState(st, []int{0, 2}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if out.Topo.K != 2 || out.Rounds != 6 {
		t.Fatalf("K=%d rounds=%d", out.Topo.K, out.Rounds)
	}
	// Cursor normalized to the epoch boundary with cleared partials.
	if out.Step != (Step{Epoch: 2, Round: 0}) {
		t.Fatalf("cursor %+v", out.Step)
	}
	for i, r := range out.Ranks {
		if r.Partial != (PartialEpoch{}) {
			t.Fatalf("rank %d partial not cleared: %+v", i, r.Partial)
		}
	}
	// Rank 1's interval [4,8) merged into rank 0's.
	if out.Topo.Starts[0] != 0 || out.Topo.Starts[1] != 8 || out.Topo.Starts[2] != 12 {
		t.Fatalf("starts %v", out.Topo.Starts)
	}
	for v := 0; v < 8; v++ {
		if out.Topo.Parts[v] != 0 {
			t.Fatalf("vertex %d assigned to %d, want 0", v, out.Topo.Parts[v])
		}
	}
	for v := 8; v < 12; v++ {
		if out.Topo.Parts[v] != 1 {
			t.Fatalf("vertex %d assigned to %d, want 1", v, out.Topo.Parts[v])
		}
	}
	// New rank 0 (old 0) cached {5,9}: 5 became local ([0,8)), 9 stays.
	if len(out.Topo.CacheIDs[0]) != 1 || out.Topo.CacheIDs[0][0] != 9 {
		t.Fatalf("rank 0 cache %v, want [9]", out.Topo.CacheIDs[0])
	}
	// New rank 1 (old 2) cached {2,6}: both now in rank 0's interval, both kept.
	if len(out.Topo.CacheIDs[1]) != 2 {
		t.Fatalf("rank 1 cache %v, want [2 6]", out.Topo.CacheIDs[1])
	}
	// Deep copy: mutating the shrunk weights must not touch the source.
	out.Ranks[0].Params[0].W[0] = -1
	if st.Ranks[0].Params[0].W[0] == -1 {
		t.Fatal("shrunk state aliases the source parameters")
	}
	// Identity fields survive.
	if out.Dataset != st.Dataset || out.Seed != st.Seed || out.Codec != st.Codec ||
		out.GradCodec != st.GradCodec {
		t.Fatal("run identity not preserved across shrink")
	}
}

func TestShrinkStateRejects(t *testing.T) {
	st := tinyState()
	if _, err := ShrinkState(st, []int{0, 2}, 0); err == nil {
		t.Fatal("non-positive rounds accepted")
	}
	if _, err := ShrinkState(st, nil, 5); err == nil {
		t.Fatal("empty survivors accepted")
	}
	if _, err := ShrinkState(st, []int{2, 0}, 5); err == nil {
		t.Fatal("unordered survivors accepted")
	}
	broken := tinyState()
	broken.Topo = nil
	if _, err := ShrinkState(broken, []int{0, 1}, 5); err == nil {
		t.Fatal("invalid source state accepted")
	}
}

func TestSteps(t *testing.T) {
	dir := t.TempDir()
	if steps, err := Steps(dir); err != nil || len(steps) != 0 {
		t.Fatalf("empty dir: %v %v", steps, err)
	}
	if steps, err := Steps(filepath.Join(dir, "missing")); err != nil || steps != nil {
		t.Fatalf("missing dir must list as empty, got %v %v", steps, err)
	}
	for _, s := range []Step{{1, 0}, {0, 4}, {1, 8}} {
		if err := os.WriteFile(filepath.Join(dir, FileName(s)), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	os.WriteFile(filepath.Join(dir, "unrelated.txt"), []byte("x"), 0o644)
	steps, err := Steps(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []Step{{1, 8}, {1, 0}, {0, 4}}
	if len(steps) != len(want) {
		t.Fatalf("steps %v", steps)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("steps %v, want %v", steps, want)
		}
	}
}
