package nn

import (
	"testing"

	"salientpp/internal/fmacheck"
)

// TestArm64HasNoFusedMultiplyAdd checks that no function in the package's
// arm64 build has a fused multiply-add: a fused optimizer or layer update
// would train different weights on arm64 than on amd64.
func TestArm64HasNoFusedMultiplyAdd(t *testing.T) {
	fmacheck.Check(t, []string{"FMULD"}, ".")
}
