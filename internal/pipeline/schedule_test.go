package pipeline

import (
	"fmt"
	"slices"
	"testing"
)

// TestScheduledCacheMatchesPlan pins the scheduled training cache to its
// plan: at depth 1, 2 and 10, on both transports, every rank's live
// RemoteFetch equals the plan's prediction in every epoch, and at depth ≥ 2
// so do the rows on the wire (RemoteFetch − Reused); depth 1 never
// inherits a row. After every epoch the store is back on its setup epoch.
func TestScheduledCacheMatchesPlan(t *testing.T) {
	d := smallDataset(t)
	for _, tcp := range []bool{false, true} {
		for _, depth := range []int{1, 2, 10} {
			t.Run(fmt.Sprintf("tcp=%v/depth=%d", tcp, depth), func(t *testing.T) {
				cfg := smallConfig()
				cfg.Train.BatchSize = 16
				cfg.Train.PipelineDepth = depth
				cfg.UseTCP = tcp
				cl, err := NewCluster(d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				var planned, static, moved int
				for e := 0; e < 2; e++ {
					stats, err := cl.TrainEpochAll(e)
					if err != nil {
						t.Fatal(err)
					}
					for r, rk := range cl.Ranks {
						sc, setup := rk.sched, rk.Store().SetupEpoch()
						var remote, wire int
						for g := range sc.plan.Members {
							remote += sc.plan.RemoteFetch[g]
							wire += sc.plan.Wire[g]
							if !slices.Equal(sc.plan.Members[g], setup.IDs()) {
								moved++
							}
							for _, v := range sc.remote[g] {
								if !setup.Index.Has(v) && (g == 0 || !slices.Contains(sc.remote[g-1], v)) {
									static++
								}
							}
						}
						planned += wire
						gs := stats[r].Gather
						if gs.RemoteFetch != remote {
							t.Errorf("epoch %d rank %d: live remote fetches %d, planned %d", e, r, gs.RemoteFetch, remote)
						}
						if depth == 1 && gs.Reused != 0 {
							t.Errorf("epoch %d rank %d: depth 1 reused %d rows", e, r, gs.Reused)
						}
						if depth >= 2 && gs.RemoteFetch-gs.Reused != wire {
							t.Errorf("epoch %d rank %d: %d rows on the wire, planned %d", e, r, gs.RemoteFetch-gs.Reused, wire)
						}
						if rk.Store().Epoch() != setup {
							t.Errorf("epoch %d rank %d: store left on cache generation %d, not the setup epoch", e, r, rk.Store().CacheGen())
						}
					}
				}
				// The fixture must exercise what it claims: installs happen,
				// and the schedule moves fewer rows than the static cache.
				if moved == 0 || planned >= static {
					t.Fatalf("fixture drifted: %d rounds off the setup membership, planned wire %d vs static %d", moved, planned, static)
				}
			})
		}
	}
}
