package sample

import (
	"testing"
	"testing/quick"

	"salientpp/internal/graph"
	"salientpp/internal/rng"
)

func testGraph(t *testing.T) *graph.CSR {
	t.Helper()
	g, err := graph.RMAT(graph.DefaultRMAT(800, 6400, 77))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewSamplerValidation(t *testing.T) {
	g := testGraph(t)
	if _, err := NewSampler(g, nil); err == nil {
		t.Fatal("expected error for empty fanouts")
	}
	if _, err := NewSampler(g, []int{5, -1}); err == nil {
		t.Fatal("expected error for negative fanout")
	}
	if _, err := NewSampler(g, []int{15, 10, 5}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleStructure(t *testing.T) {
	g := testGraph(t)
	s, _ := NewSampler(g, []int{5, 3})
	w := s.NewWorker(rng.New(1))
	seeds := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	m := w.Sample(seeds)
	if err := validateMFG(m); err != nil {
		t.Fatal(err)
	}
	if len(m.Blocks) != 2 {
		t.Fatalf("layers=%d", len(m.Blocks))
	}
	// Widest-first ordering.
	if m.Blocks[0].NumInputs() < m.Blocks[1].NumInputs() {
		t.Fatal("blocks not widest-first")
	}
	// The final block's destinations are the seeds.
	last := m.Blocks[1]
	if last.NumDst != len(seeds) {
		t.Fatalf("final NumDst=%d", last.NumDst)
	}
}

func TestSampleRespectsFanout(t *testing.T) {
	g := testGraph(t)
	const f = 4
	s, _ := NewSampler(g, []int{f, f})
	w := s.NewWorker(rng.New(2))
	m := w.Sample([]int32{10, 20, 30})
	for _, b := range m.Blocks {
		for i := 0; i < b.NumDst; i++ {
			cnt := int(b.RowPtr[i+1] - b.RowPtr[i])
			deg := g.Degree(b.InputIDs[i])
			want := f
			if deg < f {
				want = deg
			}
			if cnt != want {
				t.Fatalf("dst %d (deg %d): sampled %d, want %d", b.InputIDs[i], deg, cnt, want)
			}
		}
	}
}

func TestSampledAreNeighborsAndDistinct(t *testing.T) {
	g := testGraph(t)
	s, _ := NewSampler(g, []int{6, 4})
	w := s.NewWorker(rng.New(3))
	m := w.Sample([]int32{5, 55, 555})
	for _, b := range m.Blocks {
		for i := 0; i < b.NumDst; i++ {
			v := b.InputIDs[i]
			seen := map[int32]bool{}
			for _, c := range b.Col[b.RowPtr[i]:b.RowPtr[i+1]] {
				u := b.InputIDs[c]
				if !g.HasEdge(v, u) {
					t.Fatalf("sampled non-neighbor %d of %d", u, v)
				}
				if seen[u] {
					t.Fatalf("duplicate sampled neighbor %d of %d", u, v)
				}
				seen[u] = true
			}
		}
	}
}

func TestSampleLargeFanoutIsExhaustive(t *testing.T) {
	g := testGraph(t)
	f := g.MaxDegree() + 1
	s, _ := NewSampler(g, []int{f})
	w := s.NewWorker(rng.New(4))
	m := w.Sample([]int32{42})
	b := m.Blocks[0]
	if b.NumEdges() != g.Degree(42) {
		t.Fatalf("exhaustive sample has %d edges, want degree %d", b.NumEdges(), g.Degree(42))
	}
}

func TestSampleDeterminism(t *testing.T) {
	g := testGraph(t)
	s, _ := NewSampler(g, []int{5, 5})
	seeds := []int32{1, 9, 17}
	m1 := s.NewWorker(rng.New(9)).Sample(seeds)
	m2 := s.NewWorker(rng.New(9)).Sample(seeds)
	if m1.TotalEdges() != m2.TotalEdges() {
		t.Fatal("same RNG state produced different samples")
	}
	for li := range m1.Blocks {
		a, b := m1.Blocks[li], m2.Blocks[li]
		for i := range a.InputIDs {
			if a.InputIDs[i] != b.InputIDs[i] {
				t.Fatal("same RNG state produced different input sets")
			}
		}
		for i := range a.Col {
			if a.Col[i] != b.Col[i] {
				t.Fatal("same RNG state produced different columns")
			}
		}
	}
}

func TestInputIDsDeduplicated(t *testing.T) {
	g := testGraph(t)
	s, _ := NewSampler(g, []int{8, 8})
	w := s.NewWorker(rng.New(5))
	m := w.Sample([]int32{3, 4, 5, 6})
	for _, b := range m.Blocks {
		seen := map[int32]bool{}
		for _, id := range b.InputIDs {
			if seen[id] {
				t.Fatalf("duplicate input id %d", id)
			}
			seen[id] = true
		}
	}
}

func TestEpochBatches(t *testing.T) {
	ids := make([]int32, 100)
	for i := range ids {
		ids[i] = int32(i)
	}
	batches := EpochBatches(ids, 32, rng.New(6))
	if len(batches) != 4 {
		t.Fatalf("got %d batches", len(batches))
	}
	if len(batches[3]) != 4 {
		t.Fatalf("last batch size %d, want 4", len(batches[3]))
	}
	seen := make([]bool, 100)
	for _, b := range batches {
		for _, v := range b {
			if seen[v] {
				t.Fatalf("vertex %d appears twice in epoch", v)
			}
			seen[v] = true
		}
	}
	for v, s := range seen {
		if !s {
			t.Fatalf("vertex %d missing from epoch", v)
		}
	}
	// Shuffled, not identity (probability of identity is astronomical).
	identity := true
	for i, v := range batches[0] {
		if v != int32(i) {
			identity = false
			break
		}
	}
	if identity {
		t.Fatal("epoch batches not shuffled")
	}
}

func TestEpochBatchesEdgeCases(t *testing.T) {
	if b := EpochBatches(nil, 10, rng.New(1)); b != nil {
		t.Fatal("nil ids must give nil batches")
	}
	if b := EpochBatches([]int32{1}, 0, rng.New(1)); b != nil {
		t.Fatal("zero batch size must give nil batches")
	}
	b := EpochBatches([]int32{1, 2}, 10, rng.New(1))
	if len(b) != 1 || len(b[0]) != 2 {
		t.Fatal("single short batch expected")
	}
}

func TestPrepareEpochMatchesSerial(t *testing.T) {
	g := testGraph(t)
	s, _ := NewSampler(g, []int{5, 3})
	ids := rng.New(7).SampleK(nil, 200, g.NumVertices())
	batches := EpochBatches(ids, 32, rng.New(8))

	base := rng.New(42)
	par := PrepareEpoch(s, batches, base, 4)

	// Serial reference: same per-batch streams.
	ref := make([]*MFG, len(batches))
	base2 := rng.New(42)
	for i, b := range batches {
		w := s.NewWorker(base2.Split(uint64(i)))
		ref[i] = w.Sample(b)
	}
	for i := range batches {
		if par[i] == nil {
			t.Fatalf("batch %d missing", i)
		}
		if err := validateMFG(par[i]); err != nil {
			t.Fatalf("batch %d invalid: %v", i, err)
		}
		a, b := par[i], ref[i]
		if a.TotalEdges() != b.TotalEdges() {
			t.Fatalf("batch %d differs between parallel and serial", i)
		}
		for li := range a.Blocks {
			for j := range a.Blocks[li].InputIDs {
				if a.Blocks[li].InputIDs[j] != b.Blocks[li].InputIDs[j] {
					t.Fatalf("batch %d block %d input mismatch", i, li)
				}
			}
		}
	}
}

func TestPrepareEpochWorkerCountInvariance(t *testing.T) {
	g := testGraph(t)
	s, _ := NewSampler(g, []int{4, 4})
	ids := rng.New(10).SampleK(nil, 300, g.NumVertices())
	batches := EpochBatches(ids, 64, rng.New(11))
	a := PrepareEpoch(s, batches, rng.New(5), 1)
	b := PrepareEpoch(s, batches, rng.New(5), 7)
	for i := range a {
		if a[i].TotalEdges() != b[i].TotalEdges() {
			t.Fatalf("batch %d depends on worker count", i)
		}
	}
}

func TestAccessCountsSane(t *testing.T) {
	g := testGraph(t)
	s, _ := NewSampler(g, []int{5, 5})
	train := rng.New(12).SampleK(nil, 100, g.NumVertices())
	counts := AccessCounts(s, train, 16, 2, rng.New(13), 2)
	var total int64
	for _, c := range counts {
		if c < 0 {
			t.Fatal("negative count")
		}
		total += c
	}
	if total == 0 {
		t.Fatal("no accesses recorded")
	}
	// Each training vertex is a seed once per epoch, so its count is >= 2.
	for _, v := range train {
		if counts[v] < 2 {
			t.Fatalf("training vertex %d accessed only %d times", v, counts[v])
		}
	}
}

// Property: every MFG over random seeds validates and its seed set is
// preserved in order.
func TestSampleAlwaysValidProperty(t *testing.T) {
	g := testGraph(t)
	s, _ := NewSampler(g, []int{3, 2})
	f := func(seed uint64) bool {
		r := rng.New(seed)
		k := 1 + r.Intn(50)
		seeds := r.SampleK(nil, k, g.NumVertices())
		m := s.NewWorker(r.Split(1)).Sample(seeds)
		if validateMFG(m) != nil {
			return false
		}
		for i, v := range seeds {
			if m.Seeds[i] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSampleBatch1024F15_10_5(b *testing.B) {
	g, err := graph.RMAT(graph.DefaultRMAT(100000, 800000, 1))
	if err != nil {
		b.Fatal(err)
	}
	s, _ := NewSampler(g, []int{15, 10, 5})
	w := s.NewWorker(rng.New(1))
	seeds := rng.New(2).SampleK(nil, 1024, g.NumVertices())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := w.Sample(seeds)
		if m == nil {
			b.Fatal("nil mfg")
		}
	}
}
