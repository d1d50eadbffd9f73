package pipeline

import (
	"path/filepath"
	"strings"
	"testing"

	"salientpp/internal/ckpt"
	"salientpp/internal/dist"
)

// codecOutcome is one full-cluster training run's fingerprint.
type codecOutcome struct {
	weights []float32
	loss    float64
	remote  int64
	bytes   int64
	batches int
}

func runCodecEpoch(t *testing.T, codec string, useTCP bool) codecOutcome {
	t.Helper()
	ds := smallDataset(t)
	cfg := smallConfig()
	cfg.Codec = codec
	cfg.UseTCP = useTCP
	cl, err := NewCluster(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var o codecOutcome
	stats, err := cl.TrainEpochAll(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stats {
		o.loss += s.Loss
		o.remote += int64(s.Gather.RemoteFetch)
		o.bytes += s.BytesSent
		o.batches += s.Batches
	}
	for _, p := range cl.Ranks[0].Model().Params() {
		o.weights = append(o.weights, p.W.Data...)
	}
	return o
}

// TestCodecCrossTransportDeterminism extends the cross-transport guarantee
// to the lossy codecs: a same-seed training epoch under fp16 or int8 must
// produce bitwise-identical weights, loss, and remote-fetch counts on the
// in-process and loopback-TCP transports — the decode-side dequantize is a
// pure function of the wire bytes, not of the transport that carried them.
func TestCodecCrossTransportDeterminism(t *testing.T) {
	for _, codec := range []string{"fp16", "int8"} {
		t.Run(codec, func(t *testing.T) {
			inproc := runCodecEpoch(t, codec, false)
			tcp := runCodecEpoch(t, codec, true)
			if inproc.batches == 0 {
				t.Fatal("no batches trained")
			}
			if tcp.loss != inproc.loss {
				t.Errorf("loss differs across transports: tcp %.17g, in-process %.17g", tcp.loss, inproc.loss)
			}
			if tcp.remote != inproc.remote {
				t.Errorf("remote fetches differ across transports: tcp %d vs %d", tcp.remote, inproc.remote)
			}
			for i := range inproc.weights {
				if inproc.weights[i] != tcp.weights[i] {
					t.Fatalf("%s weights diverge across transports at %d (first difference)", codec, i)
				}
			}
		})
	}
}

// TestCodecShrinksBytesAtEqualRemoteCounts pins the tentpole claim on the
// real training loop: switching fp32→fp16 cuts feature-communication bytes
// by at least 45% while fetching exactly the same remote rows (the codec
// compresses traffic, it must never change what is fetched), and int8 cuts
// further. fp32 itself must be byte-identical to the historical format,
// which the committed BENCH baselines and TestCrossTransportDeterminism
// already pin — here we just anchor the ordering.
func TestCodecShrinksBytesAtEqualRemoteCounts(t *testing.T) {
	fp32 := runCodecEpoch(t, "fp32", false)
	fp16 := runCodecEpoch(t, "fp16", false)
	i8 := runCodecEpoch(t, "int8", false)
	if fp32.remote == 0 {
		t.Fatal("test run had no remote traffic; cannot exercise the codec")
	}
	if fp16.remote != fp32.remote || i8.remote != fp32.remote {
		t.Fatalf("remote-fetch counts drifted across codecs: fp32 %d, fp16 %d, int8 %d",
			fp32.remote, fp16.remote, i8.remote)
	}
	if float64(fp16.bytes) > 0.55*float64(fp32.bytes) {
		t.Fatalf("fp16 shipped %d bytes vs fp32's %d, want ≥ 45%% reduction", fp16.bytes, fp32.bytes)
	}
	if i8.bytes >= fp16.bytes {
		t.Fatalf("int8 shipped %d bytes, fp16 %d; int8 must be smaller", i8.bytes, fp16.bytes)
	}
	// The lossy run still trains: loss stays in the same ballpark as fp32
	// (quantization noise must not destabilize the epoch).
	if fp16.loss <= 0 || i8.loss <= 0 {
		t.Fatalf("degenerate losses under lossy codecs: fp16 %v, int8 %v", fp16.loss, i8.loss)
	}
}

// TestResumeRejectsCodecDrift: the wire codec is run identity. A checkpoint
// taken under fp16 must refuse to resume under an explicit fp32 (silent
// numerical divergence) and resume cleanly under fp16. An empty codec
// adopts the checkpoint's: it resumes an fp32 checkpoint as fp32, bitwise.
func TestResumeRejectsCodecDrift(t *testing.T) {
	d := smallDataset(t)
	dir := t.TempDir()
	cfg := smallConfig()
	cfg.Codec = "fp16"
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
	state, path, err := ckpt.LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if state.Codec != "fp16" {
		t.Fatalf("checkpoint %s records codec %q, want fp16", filepath.Base(path), state.Codec)
	}

	drifted := smallConfig()
	drifted.Codec = "fp32"
	drifted.Resume = state
	if _, err := NewCluster(d, drifted); err == nil {
		t.Fatal("resume with a drifted wire codec was accepted")
	} else if !strings.Contains(err.Error(), "wire codec") {
		t.Fatalf("drift error %q does not mention the wire codec", err)
	}

	same := smallConfig()
	same.Codec = "fp16"
	same.Resume = state
	cl2, err := NewCluster(d, same)
	if err != nil {
		t.Fatalf("resume with the matching codec failed: %v", err)
	}
	cl2.Close()

	// An fp32 run checkpointed after epoch 0 and its uninterrupted second
	// epoch; the same checkpoint resumed with an empty codec must run fp32
	// and land on the same weights.
	dir32 := t.TempDir()
	fp32 := smallConfig()
	fp32.Codec = "fp32"
	fp32.Checkpoint = ckpt.Config{Dir: dir32, EveryEpochs: 1, Retain: 10}
	ref, err := NewCluster(d, fp32)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.TrainEpochAll(0); err != nil {
		t.Fatal(err)
	}
	state32, _, err := ckpt.LoadLatest(dir32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.TrainEpochAll(1); err != nil {
		t.Fatal(err)
	}
	adopt := smallConfig()
	adopt.Resume = state32
	res, err := NewCluster(d, adopt)
	if err != nil {
		t.Fatalf("resume of an fp32 checkpoint with an empty codec failed: %v", err)
	}
	defer res.Close()
	if c := res.Ranks[0].Store().Codec(); c != dist.CodecFP32 {
		t.Fatalf("empty codec resumed an fp32 checkpoint as %v", c)
	}
	if _, err := res.TrainEpochAll(res.FirstEpoch()); err != nil {
		t.Fatal(err)
	}
	if weightBits(res) != weightBits(ref) {
		t.Fatal("fp32 checkpoint resumed with an empty codec diverged from the uninterrupted run")
	}
}
