package pipeline

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"salientpp/internal/tensor"
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

// The same run's hashes under the default feature codec, fp16, recorded
// when fp16 became the default. Both fp16 converter tiers give them.
const (
	wantFP16EpochWeightBits = 0xf504da29e8750efd
	wantFP16EpochLossBits   = 0xbf879bd84f449629
)

// trainEpochsBits trains smallConfig under the given feature codec, at a
// batch size giving a dozen rounds per epoch, for two epochs at K=2 and
// hashes (FNV-64) every rank's weight bits and every rank's per-epoch loss
// bits.
func trainEpochsBits(t *testing.T, codec string) (weights, losses uint64) {
	t.Helper()
	cfg := smallConfig()
	cfg.Codec = codec
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
	weights, losses := trainEpochsBits(t, "fp32") // the codec the constants were recorded under
	if weights != wantEpochWeightBits {
		t.Errorf("weights: bits hash %#x, want %#x", weights, uint64(wantEpochWeightBits))
	}
	if losses != wantEpochLossBits {
		t.Errorf("losses: bits hash %#x, want %#x", losses, uint64(wantEpochLossBits))
	}
}

// TestTrainEpochsFP16DefaultBits pins the two-epoch run under the default
// feature codec with the F16C converters on and forced off: the tier a CPU
// picks never shows in the weights or losses.
func TestTrainEpochsFP16DefaultBits(t *testing.T) {
	defer func(on bool) { tensor.HasF16C = on }(tensor.HasF16C)
	tiers := []bool{false}
	if tensor.HasF16C {
		tiers = append(tiers, true)
	} else {
		t.Log("CPU has no F16C: only the portable tier is checked")
	}
	for _, on := range tiers {
		tensor.HasF16C = on
		weights, losses := trainEpochsBits(t, "")
		if weights != wantFP16EpochWeightBits {
			t.Errorf("F16C %v: weights: bits hash %#x, want %#x", on, weights, uint64(wantFP16EpochWeightBits))
		}
		if losses != wantFP16EpochLossBits {
			t.Errorf("F16C %v: losses: bits hash %#x, want %#x", on, losses, uint64(wantFP16EpochLossBits))
		}
	}
}
