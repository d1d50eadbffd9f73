package experiments

import (
	"math"
	"strings"
	"testing"

	"salientpp/internal/dataset"
	"salientpp/internal/pipeline"
)

func smallPlacement(t *testing.T) *pipeline.Placement {
	t.Helper()
	ds, err := dataset.PapersSim(12000, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := pipeline.Place(ds, nil, 4, []int{5, 3}, 32, true, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestFig2SmallRun(t *testing.T) {
	pl := smallPlacement(t)
	cfg := Fig2Config{
		K: 4, Batch: 32,
		FanoutSets: [][]int{{5, 3}, {3, 3}},
		Alphas:     []float64{0.1, 0.5},
		EvalEpochs: 2, SimEpochs: 2, Seed: 5, Workers: 2,
	}
	res, err := Fig2(pl, cfg)
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
