package partition

import (
	"testing"
	"testing/quick"

	"salientpp/internal/dataset"
	"salientpp/internal/graph"
	"salientpp/internal/rng"
)

func TestPartitionBasicValidity(t *testing.T) {
	g, err := graph.RMAT(graph.DefaultRMAT(2000, 12000, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 4, 8} {
		res, err := Partition(g, Config{K: k, Seed: 7})
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if len(res.Parts) != g.NumVertices() {
			t.Fatalf("K=%d: wrong parts length", k)
		}
		sizes := res.PartSizes()
		if len(sizes) != k {
			t.Fatalf("K=%d: %d sizes", k, len(sizes))
		}
		for p, s := range sizes {
			if s == 0 {
				t.Fatalf("K=%d: partition %d empty", k, p)
			}
		}
		for _, pv := range res.Parts {
			if pv < 0 || int(pv) >= k {
				t.Fatalf("K=%d: partition id %d out of range", k, pv)
			}
		}
	}
}

func TestPartitionBeatsRandomCut(t *testing.T) {
	g, err := graph.RMAT(graph.DefaultRMAT(4000, 24000, 3))
	if err != nil {
		t.Fatal(err)
	}
	ml, err := Partition(g, Config{K: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rnd := Random(g, 8, 5)
	if ml.EdgeCut >= rnd.EdgeCut {
		t.Fatalf("multilevel cut %d not better than random cut %d", ml.EdgeCut, rnd.EdgeCut)
	}
	// On a community-structured graph the improvement should be material.
	if float64(ml.EdgeCut) > 0.8*float64(rnd.EdgeCut) {
		t.Fatalf("multilevel cut %d barely better than random %d", ml.EdgeCut, rnd.EdgeCut)
	}
}

func TestPartitionGridIsNearOptimal(t *testing.T) {
	// A 32x32 grid split into 2 parts has an optimal cut of 32; accept a
	// small constant factor over that.
	g, err := graph.Grid2D(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Partition(g, Config{K: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgeCut > 3*32 {
		t.Fatalf("grid cut %d too far above optimal 32", res.EdgeCut)
	}
	if res.Imbalance[0] > 1.11 {
		t.Fatalf("grid imbalance %.3f exceeds tolerance", res.Imbalance[0])
	}
}

func TestPartitionBalance(t *testing.T) {
	g, err := graph.RMAT(graph.DefaultRMAT(3000, 15000, 11))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Partition(g, Config{K: 4, ImbalanceTolerance: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Imbalance[0] > 1.25 {
		t.Fatalf("imbalance %.3f far above tolerance 1.1", res.Imbalance[0])
	}
}

func TestPartitionMultiConstraint(t *testing.T) {
	g, err := graph.RMAT(graph.DefaultRMAT(3000, 18000, 13))
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	// Mark ~10% of vertices as "training" clustered at the low ids (the
	// hub-heavy RMAT region) so unconstrained partitioning would be free to
	// clump them.
	isTrain := make([]bool, n)
	for v := 0; v < n/10; v++ {
		isTrain[v] = true
	}
	weights := SalientWeights(g, isTrain, nil, nil)
	res, err := Partition(g, Config{K: 4, Weights: weights, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Constraint 1 is the training balance.
	trainPerPart := make([]int, 4)
	for v := 0; v < n; v++ {
		if isTrain[v] {
			trainPerPart[res.Parts[v]]++
		}
	}
	ideal := float64(n/10) / 4
	for p, c := range trainPerPart {
		if float64(c) > 1.5*ideal {
			t.Fatalf("partition %d holds %d training vertices (ideal %.0f)", p, c, ideal)
		}
		if c == 0 {
			t.Fatalf("partition %d holds no training vertices", p)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	g, _ := graph.Ring(10)
	if _, err := Partition(g, Config{K: 0}); err == nil {
		t.Fatal("expected error for K=0")
	}
	if _, err := Partition(g, Config{K: 11}); err == nil {
		t.Fatal("expected error for K>N")
	}
	if _, err := Partition(g, Config{K: 2, Weights: [][]float32{make([]float32, 3)}}); err == nil {
		t.Fatal("expected error for wrong weight length")
	}
}

func TestPartitionK1(t *testing.T) {
	g, _ := graph.Ring(10)
	res, err := Partition(g, Config{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgeCut != 0 {
		t.Fatalf("K=1 cut %d", res.EdgeCut)
	}
}

func TestPartitionDeterminism(t *testing.T) {
	g, err := graph.RMAT(graph.DefaultRMAT(1500, 9000, 17))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Partition(g, Config{K: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(g, Config{K: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Parts {
		if a.Parts[v] != b.Parts[v] {
			t.Fatal("same seed produced different partitions")
		}
	}
}

func TestPartitionStarGraph(t *testing.T) {
	// Star graphs stall heavy-edge matching (hub matches one leaf);
	// partitioning must still terminate and produce a valid result.
	g, err := graph.Star(500)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Partition(g, Config{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sizes := res.PartSizes()
	for p, s := range sizes {
		if s == 0 {
			t.Fatalf("partition %d empty on star graph", p)
		}
	}
}

func TestCutFraction(t *testing.T) {
	g, _ := graph.Grid2D(16, 16)
	res, err := Partition(g, Config{K: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	cf := res.CutFraction(g)
	if cf <= 0 || cf > 0.5 {
		t.Fatalf("cut fraction %.3f implausible", cf)
	}
}

func TestRandomPartitionCoversAllParts(t *testing.T) {
	g, _ := graph.Ring(1000)
	res := Random(g, 8, 3)
	for p, s := range res.PartSizes() {
		if s == 0 {
			t.Fatalf("random partition %d empty", p)
		}
	}
}

// Property: the partitioner always produces a complete assignment with all
// partitions nonempty on connected graphs of moderate size.
func TestPartitionAlwaysValidProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 64 + r.Intn(400)
		g, err := graph.RMAT(graph.DefaultRMAT(n, int64(6*n), seed))
		if err != nil {
			return false
		}
		k := 2 + r.Intn(4)
		res, err := Partition(g, Config{K: k, Seed: seed})
		if err != nil {
			return false
		}
		seen := make([]bool, k)
		for _, p := range res.Parts {
			if p < 0 || int(p) >= k {
				return false
			}
			seen[p] = true
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPartition times partitioning the bench's 60 000-vertex
// papers-sim graph (bench/workload.go's generate at seed 7) in two under
// SalientWeights; the graph and its weights are built outside the timer.
func BenchmarkPartition(b *testing.B) {
	ds, err := dataset.Generate(dataset.SyntheticConfig{
		Name: "papers-sim", NumVertices: 60000, AvgDegree: 28.8,
		FeatureDim: 128, NumClasses: 32,
		TrainFrac: 0.10, ValFrac: 0.02, TestFrac: 0.05, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	n := ds.NumVertices()
	isTrain, isVal, isTest := make([]bool, n), make([]bool, n), make([]bool, n)
	for v, s := range ds.Splits {
		isTrain[v], isVal[v], isTest[v] = s == dataset.SplitTrain, s == dataset.SplitVal, s == dataset.SplitTest
	}
	cfg := Config{K: 2, Weights: SalientWeights(ds.Graph, isTrain, isVal, isTest), Seed: 7}
	for b.Loop() {
		if _, err := Partition(ds.Graph, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
