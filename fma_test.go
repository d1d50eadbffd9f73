package salientpp

import (
	"testing"

	"salientpp/internal/fmacheck"
)

// fmaFreePackages are the packages whose float arithmetic decides what the
// program computes: the generated graph and features, the partition, the
// VIP analysis and cache ranking, the samples, the gathered rows and the
// served logits. tensor and nn (the kernels, layers and optimizers) run the
// same check in their own tests. metrics, simnet and experiments stay out:
// they only report on a run, so a fused product there changes a printed
// figure, never a result.
var fmaFreePackages = []string{
	"./internal/graph", "./internal/rng", "./internal/dataset", "./internal/partition",
	"./internal/vip", "./internal/cache", "./internal/sample", "./internal/dist",
	"./internal/pipeline", "./internal/serve",
}

// TestArm64HasNoFusedMultiplyAdd checks that no function in the arm64
// build of fmaFreePackages has a fused multiply-add, so the same seed
// builds the same graph, draws the same features and requests and serves
// the same logits on arm64 as on amd64.
func TestArm64HasNoFusedMultiplyAdd(t *testing.T) {
	fmacheck.Check(t, []string{"FMULS", "FMULD"}, fmaFreePackages...)
}
