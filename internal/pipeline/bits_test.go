package pipeline

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// Hashes of the weights and per-epoch losses of a short two-rank training
// run, as of the commit that introduced TestTrainEpochsMatchParentBits.
// They are pinned across commits, not only across runs: a change to how
// features reach the model (the cache schedule, stream reuse, a new
// gather path) must leave every one unchanged. A PR that changes training
// numerics on purpose updates them and says why.
const (
	wantEpochWeightBits = 0x2f2898eaf4fcf109
	wantEpochLossBits   = 0x1e45e25265d539a2
)

// trainEpochsBits trains smallConfig, at a batch size giving a dozen
// rounds per epoch, for two epochs at K=2 and hashes (FNV-64) every rank's
// weight bits and every rank's per-epoch loss bits.
func trainEpochsBits(t *testing.T) (weights, losses uint64) {
	t.Helper()
	cfg := smallConfig()
	cfg.Train.BatchSize = 16
	cl, err := NewCluster(smallDataset(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	hl := fnv.New64a()
	var buf [8]byte
	for e := 0; e < 2; e++ {
		stats, err := cl.TrainEpochAll(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range stats {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s.Loss))
			hl.Write(buf[:])
		}
	}
	return weightBits(cl), hl.Sum64()
}

// weightBits hashes (FNV-64) every rank's weight bits in rank and
// parameter order.
func weightBits(cl *Cluster) uint64 {
	hw := fnv.New64a()
	var buf [4]byte
	for _, r := range cl.Ranks {
		for _, p := range r.Model().Params() {
			for _, v := range p.W.Data {
				binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
				hw.Write(buf[:])
			}
		}
	}
	return hw.Sum64()
}

// TestTrainEpochsMatchParentBits pins a two-epoch pipelined training run's
// weights and losses across commits. Which path a remote row takes — a
// cache hit, a stream reuse or the wire — must never show in the bits.
func TestTrainEpochsMatchParentBits(t *testing.T) {
	weights, losses := trainEpochsBits(t)
	if weights != wantEpochWeightBits {
		t.Errorf("weights: bits hash %#x, want %#x", weights, uint64(wantEpochWeightBits))
	}
	if losses != wantEpochLossBits {
		t.Errorf("losses: bits hash %#x, want %#x", losses, uint64(wantEpochLossBits))
	}
}
