//go:build !race

package pipeline

import "testing"

const raceEnabled = false

// TestScheduledCacheInstallAllocationFree: a warm training epoch's cache
// work at round barriers — copying the setup epoch into the working one,
// staging each completed round's admissions and installing them in place
// — allocates nothing. It lives here because the race runtime makes
// AllocsPerRun unreliable (see race_test.go).
func TestScheduledCacheInstallAllocationFree(t *testing.T) {
	cl, sc, feats := trainedSchedule(t)
	defer cl.Close()
	epoch := func() {
		sc.work.CopyFrom(sc.setup)
		replaySchedule(t, sc, feats, nil)
	}
	epoch()
	if allocs := testing.AllocsPerRun(5, epoch); allocs != 0 {
		t.Fatalf("a warm epoch's stage/install cycle allocated %.1f times, want 0", allocs)
	}
}
