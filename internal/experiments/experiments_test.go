package experiments

import (
	"math"
	"strings"
	"testing"

	"salientpp/internal/cache"
	"salientpp/internal/dataset"
)

func smallDeployment(t *testing.T, k int) *Deployment {
	t.Helper()
	ds, err := dataset.PapersSim(12000, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(ds, k, ModelDims{Hidden: 64, Fanouts: []int{5, 3}}, 32, true, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func TestDeployInvariants(t *testing.T) {
	dep := smallDeployment(t, 4)
	if dep.K != 4 || dep.Layout.K() != 4 {
		t.Fatal("wrong K")
	}
	// Parts agree with layout ownership and training sets are local.
	for v, p := range dep.Parts {
		if int(p) != dep.Layout.Owner(int32(v)) {
			t.Fatalf("vertex %d partition mismatch", v)
		}
	}
	total := 0
	for p, ids := range dep.TrainPer {
		total += len(ids)
		for _, v := range ids {
			if dep.Layout.Owner(v) != p {
				t.Fatalf("training vertex %d assigned to wrong machine", v)
			}
		}
	}
	if total != len(dep.TrainIDs) {
		t.Fatal("per-machine training sets do not partition the train set")
	}
	// Balance: no machine should hold a wildly disproportionate share.
	ideal := float64(total) / 4
	for p, ids := range dep.TrainPer {
		if float64(len(ids)) > 1.6*ideal || float64(len(ids)) < 0.4*ideal {
			t.Fatalf("machine %d holds %d training vertices (ideal %.0f)", p, len(ids), ideal)
		}
	}
}

func TestScenarioAndWorkload(t *testing.T) {
	dep := smallDeployment(t, 4)
	rankings, err := dep.Rankings(cache.VIP{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := dep.Scenario(nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := dep.Scenario(rankings, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := dep.Workload(plain)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := dep.Workload(cached)
	if err != nil {
		t.Fatal(err)
	}
	if wc.RemoteVertices() >= wp.RemoteVertices() {
		t.Fatalf("cache did not reduce remote volume: %d vs %d", wc.RemoteVertices(), wp.RemoteVertices())
	}
}

func TestFig2SmallRun(t *testing.T) {
	dep := smallDeployment(t, 4)
	cfg := Fig2Config{
		K: 4, Batch: 32,
		FanoutSets: [][]int{{5, 3}, {3, 3}},
		Alphas:     []float64{0.1, 0.5},
		EvalEpochs: 2, SimEpochs: 2, Seed: 5, Workers: 2,
	}
	res, err := Fig2(dep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 2 {
		t.Fatalf("panels=%d", len(res.Panels))
	}
	for _, panel := range res.Panels {
		if panel.Upper <= 0 {
			t.Fatal("no upper bound volume")
		}
		for name, vols := range panel.Volumes {
			for ai, v := range vols {
				if v < panel.Lower[ai]-1e-9 || v > panel.Upper+1e-9 {
					t.Fatalf("%s volume %v outside [%v, %v]", name, v, panel.Lower[ai], panel.Upper)
				}
			}
		}
		// Oracle policy achieves the bound on its own eval epochs.
		for ai := range panel.Alphas {
			if math.Abs(panel.Volumes["oracle"][ai]-panel.Lower[ai]) > 1e-6 {
				t.Fatalf("oracle volume %v != bound %v", panel.Volumes["oracle"][ai], panel.Lower[ai])
			}
		}
	}
	// Improvements must be >= 1 for the better policies at high alpha.
	last := len(res.Alphas) - 1
	if res.Improvement["VIP"][last] < 1 {
		t.Fatalf("VIP improvement %v < 1", res.Improvement["VIP"][last])
	}
	if !strings.Contains(res.Render(), "Figure 2(d)") {
		t.Fatal("render missing panel d")
	}
}

func TestTable1SmallRun(t *testing.T) {
	scale := SmallScale()
	res, err := Table1(scale)
	if err != nil {
		t.Fatal(err)
	}
	// Normalization pins the K=1 full-replication cell to 20.7.
	if math.Abs(res.Normalized["SALIENT (full replication)"][0]-20.7) > 1e-6 {
		t.Fatalf("normalization broken: %v", res.Normalized["SALIENT (full replication)"][0])
	}
	// Orderings at every K>1: sequential slowest, caching fastest of the
	// partitioned rows.
	for ki := 1; ki < len(res.Ks); ki++ {
		seq := res.Raw["+ Partitioned features"][ki]
		pipe := res.Raw["+ Pipeline communication"][ki]
		cached := res.Raw["+ Feature caching"][ki]
		if !(seq > pipe && pipe > cached) {
			t.Fatalf("K=%d ordering violated: seq=%.4f pipe=%.4f cached=%.4f", res.Ks[ki], seq, pipe, cached)
		}
	}
	if !strings.Contains(res.Render(), "Table 1") {
		t.Fatal("render broken")
	}
}

func TestFig8Categories(t *testing.T) {
	rows, err := Fig8(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows=%d", len(rows))
	}
	// Caching with pipelining must beat no-cache without pipelining.
	var seqNoCache, pipeCached float64
	for _, r := range rows {
		if !r.Pipelining && r.Alpha == 0 {
			seqNoCache = r.Result.EpochSeconds
		}
		if r.Pipelining && r.Alpha > 0 {
			pipeCached = r.Result.EpochSeconds
		}
	}
	if pipeCached >= seqNoCache {
		t.Fatalf("pipelining+caching (%.4f) not faster than neither (%.4f)", pipeCached, seqNoCache)
	}
	if !strings.Contains(RenderFig8(rows), "Train(sync)") {
		t.Fatal("render broken")
	}
}

func TestTable4Speedup(t *testing.T) {
	res, err := Table4(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup <= 1.5 {
		t.Fatalf("DistDGL-like baseline implausibly fast: speedup %.2f", res.Speedup)
	}
	if !strings.Contains(res.Render(), "DistDGL") {
		t.Fatal("render broken")
	}
}

func TestTable2Renders(t *testing.T) {
	out, err := Table2(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"products-sim", "papers-sim", "mag240-sim"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %s in:\n%s", want, out)
		}
	}
}

func TestAccuracySmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real training is slow")
	}
	cfg := DefaultAccuracyConfig()
	cfg.Datasets = []string{"products-sim"}
	cfg.N = 3000
	cfg.Epochs = 3
	rows, err := Accuracy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows=%d", len(rows))
	}
	r := rows[0]
	if r.FinalLoss >= r.FirstLoss {
		t.Fatalf("training did not reduce loss: %.3f -> %.3f", r.FirstLoss, r.FinalLoss)
	}
	if r.ValAcc < 0.3 {
		t.Fatalf("validation accuracy %.3f below sanity floor", r.ValAcc)
	}
	if r.WirePerEpoch <= 0 || r.WirePerEpoch >= r.RemotePerEpoch {
		t.Fatalf("wire rows %d outside (0, %d remote accesses): the stream reused nothing", r.WirePerEpoch, r.RemotePerEpoch)
	}
	if !strings.Contains(RenderAccuracy(rows), "products-sim") {
		t.Fatal("render broken")
	}
}
