//go:build !amd64

package tensor

import "testing"

// withVectorTiers runs f as the "portable" subtest: without amd64 assembly
// there is no other tier.
func withVectorTiers(t *testing.T, f func(t *testing.T)) { t.Run("portable", f) }
