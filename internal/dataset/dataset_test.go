package dataset

import (
	"fmt"
	"math"
	"testing"

	"salientpp/internal/graph"
	"salientpp/internal/rng"
)

func genSmall(t *testing.T, materialize bool) *Dataset {
	t.Helper()
	d, err := Generate(SyntheticConfig{
		Name: "small", NumVertices: 2000, AvgDegree: 10,
		FeatureDim: 16, NumClasses: 4,
		TrainFrac: 0.1, ValFrac: 0.05, TestFrac: 0.2,
		FeatureNoise: 0.5, Materialize: materialize, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := validate(d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateBasic(t *testing.T) {
	d := genSmall(t, true)
	if d.NumVertices() != 2000 {
		t.Fatalf("N=%d", d.NumVertices())
	}
	if !d.HasFeatures() {
		t.Fatal("features should be materialized")
	}
	if len(d.Features) != 2000*16 {
		t.Fatalf("feature buffer %d", len(d.Features))
	}
}

func TestGenerateSplitFractions(t *testing.T) {
	d := genSmall(t, false)
	nTrain := d.CountSplit(SplitTrain)
	nVal := d.CountSplit(SplitVal)
	nTest := d.CountSplit(SplitTest)
	if math.Abs(float64(nTrain)-200) > 2 {
		t.Fatalf("train count %d want ~200", nTrain)
	}
	if math.Abs(float64(nVal)-100) > 2 {
		t.Fatalf("val count %d want ~100", nVal)
	}
	if math.Abs(float64(nTest)-400) > 2 {
		t.Fatalf("test count %d want ~400", nTest)
	}
	if nTrain+nVal+nTest+d.CountSplit(SplitNone) != 2000 {
		t.Fatal("split counts do not partition vertices")
	}
}

func TestSplitsDisjointAndConsistent(t *testing.T) {
	d := genSmall(t, false)
	train := d.TrainIDs()
	if len(train) != d.CountSplit(SplitTrain) {
		t.Fatal("TrainIDs inconsistent with CountSplit")
	}
	for i := 1; i < len(train); i++ {
		if train[i-1] >= train[i] {
			t.Fatal("TrainIDs not ascending")
		}
	}
	for _, v := range train {
		if d.Splits[v] != SplitTrain {
			t.Fatal("TrainIDs returned non-train vertex")
		}
	}
}

func TestLabelsHomophilous(t *testing.T) {
	d := genSmall(t, false)
	// Count the fraction of edges whose endpoints share a label; Voronoi
	// labeling should make this far above the 1/C random baseline.
	var same, total int64
	g := d.Graph
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(int32(v)) {
			total++
			if d.Labels[v] == d.Labels[w] {
				same++
			}
		}
	}
	frac := float64(same) / float64(total)
	baseline := 1.0 / float64(d.NumClasses)
	// RMAT hubs sit near every region so interleaving is expected; require
	// a clear (>=1.6x) lift over random rather than perfect separation.
	if frac < 1.6*baseline {
		t.Fatalf("homophily %.3f too close to random baseline %.3f", frac, baseline)
	}
}

func TestFeaturesClusterByClass(t *testing.T) {
	d := genSmall(t, true)
	// Mean distance to own-class centroid must be below distance to a
	// different class centroid (i.e., features carry label signal).
	dim := d.FeatureDim
	centroids := make([][]float64, d.NumClasses)
	counts := make([]int, d.NumClasses)
	for c := range centroids {
		centroids[c] = make([]float64, dim)
	}
	for v := 0; v < d.NumVertices(); v++ {
		c := d.Labels[v]
		counts[c]++
		row := d.FeatureRow(int32(v))
		for j := 0; j < dim; j++ {
			centroids[c][j] += float64(row[j])
		}
	}
	for c := range centroids {
		if counts[c] == 0 {
			continue
		}
		for j := range centroids[c] {
			centroids[c][j] /= float64(counts[c])
		}
	}
	dist := func(row []float32, c int) float64 {
		var s float64
		for j := 0; j < dim; j++ {
			dlt := float64(row[j]) - centroids[c][j]
			s += dlt * dlt
		}
		return s
	}
	correct := 0
	sample := 0
	for v := 0; v < d.NumVertices(); v += 7 {
		row := d.FeatureRow(int32(v))
		best, bestD := -1, math.Inf(1)
		for c := 0; c < d.NumClasses; c++ {
			if counts[c] == 0 {
				continue
			}
			if dd := dist(row, c); dd < bestD {
				best, bestD = c, dd
			}
		}
		if best == int(d.Labels[v]) {
			correct++
		}
		sample++
	}
	if acc := float64(correct) / float64(sample); acc < 0.7 {
		t.Fatalf("nearest-centroid accuracy %.2f; features carry too little signal", acc)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(SyntheticConfig{NumVertices: 0, NumClasses: 2}); err == nil {
		t.Fatal("expected size error")
	}
	if _, err := Generate(SyntheticConfig{NumVertices: 10, NumClasses: 1}); err == nil {
		t.Fatal("expected class error")
	}
	if _, err := Generate(SyntheticConfig{NumVertices: 10, NumClasses: 2, TrainFrac: 0.9, ValFrac: 0.9}); err == nil {
		t.Fatal("expected split fraction error")
	}
}

func TestFeatureRowPanicsWithoutMaterialization(t *testing.T) {
	d := genSmall(t, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.FeatureRow(0)
}

func TestPaperAnalogStatistics(t *testing.T) {
	// Verify the relative statistics of the three analogs at small scale.
	cases := []struct {
		name     string
		gen      func(int, bool, uint64) (*Dataset, error)
		dim      int
		avgDeg   float64
		trainPct float64
	}{
		{"products", ProductsSim, 100, 51.2, 0.082},
		{"papers", PapersSim, 128, 28.8, 0.0108},
		{"mag240", Mag240Sim, 768, 21.5, 0.0091},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := tc.gen(4000, false, 5)
			if err != nil {
				t.Fatal(err)
			}
			if err := validate(d); err != nil {
				t.Fatal(err)
			}
			if d.FeatureDim != tc.dim {
				t.Fatalf("dim=%d want %d", d.FeatureDim, tc.dim)
			}
			got := d.Graph.AvgDegree()
			if got < tc.avgDeg*0.6 || got > tc.avgDeg*1.3 {
				t.Fatalf("avg degree %.1f too far from %.1f", got, tc.avgDeg)
			}
			train := float64(d.CountSplit(SplitTrain)) / float64(d.NumVertices())
			if math.Abs(train-tc.trainPct) > 0.004 {
				t.Fatalf("train fraction %.4f want %.4f", train, tc.trainPct)
			}
		})
	}
}

func TestRelabelMovesEverything(t *testing.T) {
	d := genSmall(t, true)
	perm := graph.Permutation(rng.New(3).Perm(d.NumVertices()))
	rd, err := d.Relabel(perm)
	if err != nil {
		t.Fatal(err)
	}
	if err := validate(rd); err != nil {
		t.Fatal(err)
	}
	for old := 0; old < d.NumVertices(); old++ {
		nw := perm[old]
		if rd.Labels[nw] != d.Labels[old] {
			t.Fatalf("label did not move with vertex %d", old)
		}
		if rd.Splits[nw] != d.Splits[old] {
			t.Fatalf("split did not move with vertex %d", old)
		}
		a, b := d.FeatureRow(int32(old)), rd.FeatureRow(nw)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("features did not move with vertex %d", old)
			}
		}
	}
	if rd.CountSplit(SplitTrain) != d.CountSplit(SplitTrain) {
		t.Fatal("train count changed under relabeling")
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := genSmall(t, true)
	b := genSmall(t, true)
	for v := range a.Labels {
		if a.Labels[v] != b.Labels[v] || a.Splits[v] != b.Splits[v] {
			t.Fatal("generation not deterministic")
		}
	}
	for i := range a.Features {
		if a.Features[i] != b.Features[i] {
			t.Fatal("features not deterministic")
		}
	}
}

func TestSplitString(t *testing.T) {
	if SplitTrain.String() != "train" || SplitNone.String() != "none" {
		t.Fatal("Split.String broken")
	}
}

// validate checks a dataset's internal consistency.
func validate(d *Dataset) error {
	n := d.NumVertices()
	if err := d.Graph.Validate(); err != nil {
		return fmt.Errorf("dataset %q: %w", d.Name, err)
	}
	if len(d.Labels) != n {
		return fmt.Errorf("dataset %q: %d labels for %d vertices", d.Name, len(d.Labels), n)
	}
	if len(d.Splits) != n {
		return fmt.Errorf("dataset %q: %d split entries for %d vertices", d.Name, len(d.Splits), n)
	}
	for v, l := range d.Labels {
		if l < 0 || int(l) >= d.NumClasses {
			return fmt.Errorf("dataset %q: vertex %d has label %d outside [0,%d)", d.Name, v, l, d.NumClasses)
		}
	}
	if d.Features != nil && len(d.Features) != n*d.FeatureDim {
		return fmt.Errorf("dataset %q: feature buffer has %d values, want %d", d.Name, len(d.Features), n*d.FeatureDim)
	}
	return nil
}

// BenchmarkGenerate times generating the bench's dataset
// (bench/workload.go's generate at seed 7): R-MAT, labels, splits and the
// materialised features.
func BenchmarkGenerate(b *testing.B) {
	cfg := SyntheticConfig{
		Name: "papers-sim", NumVertices: 60000, AvgDegree: 28.8,
		FeatureDim: 128, NumClasses: 32,
		TrainFrac: 0.10, ValFrac: 0.02, TestFrac: 0.05,
		FeatureNoise: 2.0, Materialize: true, Seed: 7,
	}
	for b.Loop() {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
