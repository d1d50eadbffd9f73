package pipeline

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"salientpp/internal/ckpt"
)

// gradOutcome fingerprints one training run under a gradient codec:
// weightBits and lossBits are FNV-64 hashes of every rank's final weight
// bits and of every rank's per-epoch loss bits.
type gradOutcome struct {
	weights    []float32
	loss       float64
	gradBytes  int64
	batches    int
	weightBits uint64
	lossBits   uint64
}

func runGradEpochs(t *testing.T, gradCodec string, useTCP bool, epochs int) gradOutcome {
	t.Helper()
	ds := smallDataset(t)
	cfg := smallConfig()
	cfg.Codec = "fp32" // the feature codec TestGradOverlapDoesNotChangeResults was recorded under
	cfg.UseTCP = useTCP
	cfg.Train.GradCodec = gradCodec
	cl, err := NewCluster(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var o gradOutcome
	hl := fnv.New64a()
	var buf [8]byte
	for e := 0; e < epochs; e++ {
		stats, err := cl.TrainEpochAll(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range stats {
			o.loss += s.Loss
			o.gradBytes += s.GradBytesSent
			o.batches += s.Batches
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s.Loss))
			hl.Write(buf[:])
		}
	}
	o.weights = flatWeights(cl)
	o.weightBits, o.lossBits = weightBits(cl), hl.Sum64()
	return o
}

// TestGradCodecCrossTransportDeterminism extends the cross-transport
// guarantee to the compressed gradient all-reduce: a same-seed run under a
// lossy gradient codec must produce bitwise-identical weights and losses on
// the in-process and loopback-TCP transports. The reduce is an all-gather
// plus a rank-ordered local sum, so the result is a pure function of the
// encoded bytes — never of the transport or arrival order.
func TestGradCodecCrossTransportDeterminism(t *testing.T) {
	for _, codec := range []string{"fp16", "int8"} {
		t.Run(codec, func(t *testing.T) {
			inproc := runGradEpochs(t, codec, false, 2)
			tcp := runGradEpochs(t, codec, true, 2)
			if inproc.batches == 0 {
				t.Fatal("no batches trained")
			}
			if tcp.loss != inproc.loss {
				t.Errorf("loss differs across transports: tcp %.17g, in-process %.17g", tcp.loss, inproc.loss)
			}
			if tcp.gradBytes != inproc.gradBytes {
				t.Errorf("gradient bytes differ across transports: tcp %d vs %d", tcp.gradBytes, inproc.gradBytes)
			}
			for i := range inproc.weights {
				if inproc.weights[i] != tcp.weights[i] {
					t.Fatalf("%s weights diverge across transports at %d (first difference)", codec, i)
				}
			}
		})
	}
}

// TestGradCodecGOMAXPROCSDeterminism pins scheduler independence: the
// overlapped reduce runs on its own goroutine concurrently with backward
// compute, so any hidden ordering dependence would surface as weight drift
// between a single-threaded and a parallel schedule.
func TestGradCodecGOMAXPROCSDeterminism(t *testing.T) {
	wide := runGradEpochs(t, "int8", false, 2)
	prev := runtime.GOMAXPROCS(1)
	narrow := runGradEpochs(t, "int8", false, 2)
	runtime.GOMAXPROCS(prev)
	if narrow.loss != wide.loss {
		t.Errorf("loss differs across GOMAXPROCS: 1 proc %.17g, %d procs %.17g", narrow.loss, prev, wide.loss)
	}
	for i := range wide.weights {
		if wide.weights[i] != narrow.weights[i] {
			t.Fatalf("weights diverge across GOMAXPROCS at %d (first difference)", i)
		}
	}
}

// TestGradOverlapDoesNotChangeResults: the overlapped schedule is a pure
// latency optimization. Layer reduces retire in a fixed order on the
// reducer goroutine, so the overlapped run must reproduce the trajectory
// of reducing every layer synchronously after the full backward pass. The
// constants were recorded when the loop still had that synchronous path,
// and both schedules produced them.
func TestGradOverlapDoesNotChangeResults(t *testing.T) {
	for _, tc := range []struct {
		codec                string
		weightBits, lossBits uint64
		gradBytes            int64
	}{
		{"fp32", 0x4ed5917952c9dd61, 0xeaeb36d76d59b14a, 34048},
		{"int8", 0x68b44b104b6c0365, 0xc9cdb169a3dc1aa0, 12224},
	} {
		t.Run(tc.codec, func(t *testing.T) {
			o := runGradEpochs(t, tc.codec, false, 2)
			if o.weightBits != tc.weightBits {
				t.Errorf("weights: bits hash %#x, want %#x", o.weightBits, tc.weightBits)
			}
			if o.lossBits != tc.lossBits {
				t.Errorf("losses: bits hash %#x, want %#x", o.lossBits, tc.lossBits)
			}
			if o.gradBytes != tc.gradBytes {
				t.Errorf("gradient bytes %d, want %d", o.gradBytes, tc.gradBytes)
			}
		})
	}
}

// TestGradCodecShrinksBytes pins the headline byte cut on the real training
// loop: fp16 halves the gradient payload exactly (2 bytes per element, no
// framing), int8 cuts further (1 byte per element + 4 bytes per-row scale),
// and the lossy runs still train.
func TestGradCodecShrinksBytes(t *testing.T) {
	fp32 := runGradEpochs(t, "fp32", false, 1)
	fp16 := runGradEpochs(t, "fp16", false, 1)
	i8 := runGradEpochs(t, "int8", false, 1)
	if fp32.gradBytes == 0 {
		t.Fatal("run reported no gradient traffic; accounting is broken")
	}
	if float64(fp16.gradBytes) > 0.501*float64(fp32.gradBytes) {
		t.Fatalf("fp16 shipped %d gradient bytes vs fp32's %d, want ≥ 50%% reduction", fp16.gradBytes, fp32.gradBytes)
	}
	if i8.gradBytes >= fp16.gradBytes {
		t.Fatalf("int8 shipped %d gradient bytes, fp16 %d; int8 must be smaller", i8.gradBytes, fp16.gradBytes)
	}
	if fp16.loss <= 0 || i8.loss <= 0 {
		t.Fatalf("degenerate losses under lossy gradient codecs: fp16 %v, int8 %v", fp16.loss, i8.loss)
	}
}

// TestGradResidualSurvivesResume is the error-feedback state's durability
// pin: under int8 every round folds the previous round's quantization error
// back into the gradient, so the residual is part of the optimizer
// trajectory. A mid-epoch checkpoint/restore cycle must reproduce the
// uninterrupted run bitwise — which can only happen if the residuals were
// saved and restored exactly.
func TestGradResidualSurvivesResume(t *testing.T) {
	d := crashDataset(t)
	const epochs = 2
	dir := t.TempDir()
	cfg := crashConfig(false)
	cfg.Train.GradCodec = "int8"
	cfg.Checkpoint = ckpt.Config{Dir: dir, EveryRounds: 2, EveryEpochs: 1, Retain: 100}
	ref := map[int]epochResult{}
	refCl, err := NewCluster(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := runEpochs(t, refCl, 0, epochs, ref); err != nil {
		t.Fatal(err)
	}
	refW := flatWeights(refCl)
	refCl.Close()

	// A mid-epoch file of epoch 1: round cursor > 0, residuals mid-stream.
	target := ckpt.Step{Epoch: 1, Round: 2}
	state, err := ckpt.Load(filepath.Join(dir, ckpt.FileName(target)))
	if err != nil {
		t.Fatalf("mid-epoch checkpoint %v missing: %v", target, err)
	}
	if state.GradCodec != "int8" {
		t.Fatalf("checkpoint records gradient codec %q, want int8", state.GradCodec)
	}
	var nonzero bool
	for _, pr := range state.Ranks[0].Params {
		if len(pr.EF) == 0 {
			t.Fatal("int8 checkpoint has a parameter with no residual state")
		}
		for _, v := range pr.EF {
			if v != 0 {
				nonzero = true
				break
			}
		}
	}
	if !nonzero {
		t.Fatal("all checkpointed residuals are zero; error feedback is not accumulating")
	}

	rcfg := crashConfig(false)
	rcfg.Train.GradCodec = "int8"
	rcfg.Resume = state
	resCl, err := NewCluster(d, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer resCl.Close()
	got := map[int]epochResult{}
	if err := runEpochs(t, resCl, resCl.FirstEpoch(), epochs, got); err != nil {
		t.Fatal(err)
	}
	for e := 1; e < epochs; e++ {
		want, have := ref[e], got[e]
		for r := range want.loss {
			if want.loss[r] != have.loss[r] {
				t.Errorf("epoch %d rank %d loss %.17g != reference %.17g", e, r, have.loss[r], want.loss[r])
			}
		}
	}
	gotW := flatWeights(resCl)
	for i := range refW {
		if refW[i] != gotW[i] {
			t.Fatalf("weights diverge at %d after resume: residual state was not restored exactly", i)
		}
	}
}

// TestResumeRejectsGradCodecDrift: the gradient codec is run identity — a
// residual accumulated under int8 is meaningless to an fp32 run. Drift must
// be rejected loudly; the matching codec must resume cleanly.
func TestResumeRejectsGradCodecDrift(t *testing.T) {
	d := crashDataset(t)
	dir := t.TempDir()
	cfg := crashConfig(false)
	cfg.Train.GradCodec = "int8"
	cfg.Checkpoint = ckpt.Config{Dir: dir, EveryEpochs: 1}
	cl, err := NewCluster(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.TrainEpochAll(0); err != nil {
		cl.Close()
		t.Fatal(err)
	}
	cl.Close()
	state, _, err := ckpt.LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}

	drifted := crashConfig(false)
	drifted.Train.GradCodec = "" // the fp32 default
	drifted.Resume = state
	if _, err := NewCluster(d, drifted); err == nil {
		t.Fatal("resume with a drifted gradient codec was accepted")
	} else if !strings.Contains(err.Error(), "gradient codec") {
		t.Fatalf("drift error %q does not mention the gradient codec", err)
	}

	same := crashConfig(false)
	same.Train.GradCodec = "int8"
	same.Resume = state
	cl2, err := NewCluster(d, same)
	if err != nil {
		t.Fatalf("resume with the matching gradient codec failed: %v", err)
	}
	cl2.Close()
}
