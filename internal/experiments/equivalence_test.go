package experiments

import (
	"math"
	"testing"
)

// TestNumericalEquivalenceWithPreArenaBaseline pins a short same-seed
// training run to the values the pre-refactor code produced (recorded at
// the PR that introduced the pooled tensor arena, zero-copy gather, and
// blocked kernels — commit "PR 1" tree, products-sim N=3000, 2 epochs,
// DefaultAccuracyConfig seeds). The refactor is designed to be
// numerically transparent: pooled buffers are fully overwritten, the
// blocked kernels keep a fixed per-element accumulation order, and the
// sorted gather changes only wire layout. The loose tolerances absorb
// benign float reassociation on other architectures; a real numerical
// regression (stale pooled data, mis-scattered features, kernel bug)
// blows well past them, and the remote-access and wire-row counts must
// match exactly — a gather protocol rewrite may not change which rows are
// fetched. The remote count is the final epoch's accesses the cache did
// not serve; since training's cache follows each epoch's planned schedule
// it is 300 (264 under the static setup cache), at the same 251 rows on
// the wire.
func TestNumericalEquivalenceWithPreArenaBaseline(t *testing.T) {
	const (
		wantFirstLoss = 2.802373
		wantFinalLoss = 1.120540
		wantValAcc    = 0.854167
		wantTestAcc   = 0.891722
		wantRemote    = 300
		wantWire      = 251
	)
	cfg := DefaultAccuracyConfig()
	cfg.Datasets = []string{"products-sim"}
	cfg.N = 3000
	cfg.Epochs = 2
	rows, err := Accuracy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if math.Abs(r.FirstLoss-wantFirstLoss) > 0.02 {
		t.Errorf("epoch-1 loss %.6f, pre-refactor baseline %.6f", r.FirstLoss, wantFirstLoss)
	}
	if math.Abs(r.FinalLoss-wantFinalLoss) > 0.05 {
		t.Errorf("final loss %.6f, pre-refactor baseline %.6f", r.FinalLoss, wantFinalLoss)
	}
	if math.Abs(r.ValAcc-wantValAcc) > 0.03 {
		t.Errorf("val accuracy %.6f, pre-refactor baseline %.6f", r.ValAcc, wantValAcc)
	}
	if math.Abs(r.TestAcc-wantTestAcc) > 0.03 {
		t.Errorf("test accuracy %.6f, pre-refactor baseline %.6f", r.TestAcc, wantTestAcc)
	}
	if r.RemotePerEpoch != wantRemote {
		t.Errorf("remote fetches per epoch %d, baseline %d (gather protocol must not change which rows are fetched)",
			r.RemotePerEpoch, wantRemote)
	}
	if r.WirePerEpoch != wantWire {
		t.Errorf("rows on the wire per epoch %d, baseline %d", r.WirePerEpoch, wantWire)
	}
}
