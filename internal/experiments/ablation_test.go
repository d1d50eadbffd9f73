package experiments

import (
	"testing"

	"salientpp/internal/dataset"
)

func TestAblationVIPPartitionRuns(t *testing.T) {
	scale := SmallScale()
	ds, err := dataset.PapersSim(scale.PapersN, false, scale.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := AblationVIPPartition(ds, 4, scale)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineRemote <= 0 || res.VIPWeightedRemote <= 0 {
		t.Fatalf("degenerate ablation volumes: %+v", res)
	}
}
