package tensor

import (
	"testing"

	"salientpp/internal/fmacheck"
)

// TestArm64HasNoFusedMultiplyAdd checks that no function in the package's
// arm64 build has a fused multiply-add: a fused product would differ from
// amd64's and from the AVX2 kernel's.
func TestArm64HasNoFusedMultiplyAdd(t *testing.T) {
	fmacheck.Check(t, []string{"FMULS"}, ".")
}
