package pipeline

import (
	"fmt"
	"slices"
	"testing"

	"salientpp/internal/dataset"
	"salientpp/internal/dist"
	"salientpp/internal/tensor"
)

// TestScheduledCacheMatchesPlan pins the scheduled training cache to its
// plan: at depth 1, 2 and 10, on both transports, every rank's live
// RemoteFetch and rows on the wire (RemoteFetch − Reused) equal the plan's
// prediction in every epoch; depth 1 never inherits a row, and its plan
// knows it. After every epoch the store is back on its setup epoch.
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
						for g := range sc.plan.Wire {
							remote += sc.plan.RemoteFetch[g]
							wire += sc.plan.Wire[g]
							if len(sc.plan.Admit[g]) > 0 {
								moved++
							}
							for _, v := range sc.remote[g] {
								if !setup.Index.Has(v) && (depth == 1 || g == 0 || !slices.Contains(sc.remote[g-1], v)) {
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
						if gs.RemoteFetch-gs.Reused != wire {
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
					t.Fatalf("fixture drifted: %d rounds admit rows, planned wire %d vs static %d", moved, planned, static)
				}
			})
		}
	}
}

// TestFullReplicationPutsNothingOnTheWire pins the top rung of the paper's
// optimization ladder: at Alpha = K every rank's cache can hold every remote
// row, so at depth 1 and 10, on both transports, no epoch puts a row on the
// wire (RemoteFetch − Reused == 0), and the plan predicts exactly that.
func TestFullReplicationPutsNothingOnTheWire(t *testing.T) {
	d := smallDataset(t)
	for _, tcp := range []bool{false, true} {
		for _, depth := range []int{1, 10} {
			t.Run(fmt.Sprintf("tcp=%v/depth=%d", tcp, depth), func(t *testing.T) {
				cfg := smallConfig()
				cfg.Alpha = float64(cfg.K)
				cfg.Train.BatchSize = 16
				cfg.Train.PipelineDepth = depth
				cfg.UseTCP = tcp
				cl, err := NewCluster(d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				for e := 0; e < 2; e++ {
					stats, err := cl.TrainEpochAll(e)
					if err != nil {
						t.Fatal(err)
					}
					for r, rk := range cl.Ranks {
						gs := stats[r].Gather
						if wire := gs.RemoteFetch - gs.Reused; wire != 0 {
							t.Errorf("epoch %d rank %d: %d rows on the wire (%d remote accesses, %d reused)", e, r, wire, gs.RemoteFetch, gs.Reused)
						}
						planned := 0
						for _, w := range rk.sched.plan.Wire {
							planned += w
						}
						if planned != 0 {
							t.Errorf("epoch %d rank %d: plan puts %d rows on the wire", e, r, planned)
						}
					}
				}
			})
		}
	}
}

// trainedSchedule returns rank 0's cache schedule after one training epoch
// at BatchSize 16 on the small fixture, with that epoch's plan still in
// it, and feature matrices standing in for the epoch's gathered ones:
// round g's holds the codec image of each remote input's dataset row (the
// row a gather delivers) where the gathered matrix has it.
func trainedSchedule(t *testing.T) (*Cluster, *cacheSchedule, []*tensor.Matrix) {
	t.Helper()
	cfg := smallConfig()
	cfg.Train.BatchSize = 16
	cl, err := NewCluster(smallDataset(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.TrainEpochAll(0); err != nil {
		cl.Close()
		t.Fatal(err)
	}
	sc := cl.Ranks[0].sched
	return cl, sc, roundFeatures(sc, cl.Data, cl.Ranks[0].Store().Codec())
}

// roundFeatures builds one matrix per round of sc's plan holding each
// remote input's dataset row, as codec delivers it, at the row the round's
// gather puts it.
func roundFeatures(sc *cacheSchedule, d *dataset.Dataset, codec dist.Codec) []*tensor.Matrix {
	feats := make([]*tensor.Matrix, len(sc.remote))
	for g, ids := range sc.remote {
		rows := 0
		if k := len(sc.rowIn[g]); k > 0 {
			rows = int(sc.rowIn[g][k-1]) + 1
		}
		feats[g] = tensor.New(rows, d.FeatureDim)
		for i, v := range ids {
			codec.RoundTripRow(feats[g].Row(int(sc.rowIn[g][i])), d.FeatureRow(v))
		}
	}
	return feats
}

// replaySchedule runs the stage/install cycle of sc's planned epoch on its
// working epoch, in the order the gather stage does — round h completes,
// then round h+1's push installs C_{h+2} — calling installed(g) after C_g
// is written.
func replaySchedule(t testing.TB, sc *cacheSchedule, feats []*tensor.Matrix, installed func(g int)) {
	for h := 0; h+2 < len(feats); h++ {
		if err := sc.completed(h, feats[h]); err != nil {
			t.Fatal(err)
		}
		if err := sc.pushed(h + 1); err != nil {
			t.Fatal(err)
		}
		if installed != nil {
			installed(h + 2)
		}
	}
}

// TestInstallRewritesOnlyAdmittedSlots: an install of C_g writes the rows
// it admits into their planned slots and leaves every other row alone,
// and after it every slot holds the (codec image of the) row of the id its
// index names.
func TestInstallRewritesOnlyAdmittedSlots(t *testing.T) {
	cl, sc, feats := trainedSchedule(t)
	defer cl.Close()
	w := &sc.work
	w.CopyFrom(sc.setup)
	before := slices.Clone(w.Rows.Data)
	dim, admitted := w.Rows.Cols, 0
	want := make([]float32, dim)
	replaySchedule(t, sc, feats, func(g int) {
		written := map[int32]bool{}
		for _, a := range sc.plan.Admit[g] {
			written[a.Slot] = true
		}
		admitted += len(written)
		members := 0
		for s, v := range w.IDs() {
			row := w.Rows.Data[s*dim : (s+1)*dim]
			if !written[int32(s)] && !slices.Equal(row, before[s*dim:(s+1)*dim]) {
				t.Fatalf("C%d rewrote slot %d, which it does not admit into", g, s)
			}
			if v < 0 {
				continue
			}
			members++
			if slot, ok := w.Index.Slot(v); !ok || slot != int32(s) {
				t.Fatalf("C%d: slot %d holds %d, whose index entry is %d,%v", g, s, v, slot, ok)
			}
			cl.Ranks[0].Store().Codec().RoundTripRow(want, cl.Data.FeatureRow(v))
			if !slices.Equal(row, want) {
				t.Fatalf("C%d: slot %d does not hold the row of %d", g, s, v)
			}
		}
		if members != w.Len() {
			t.Fatalf("C%d: %d occupied slots, Len %d", g, members, w.Len())
		}
		copy(before, w.Rows.Data)
	})
	if admitted == 0 {
		t.Fatal("fixture drifted: the plan admits nothing")
	}
}
