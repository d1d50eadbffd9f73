package experiments

import (
	"path/filepath"
	"strings"
	"testing"

	"salientpp/internal/ckpt"
	"salientpp/internal/pipeline"
)

// TestServeBenchReport runs the serving benchmark at test scale and checks
// the report's structure plus the property the caching story depends on:
// on the same-seed workload, growing α must not lose cache hit rate and
// must not add remote fetches.
func TestServeBenchReport(t *testing.T) {
	scale := SmallScale()
	scale.PapersN = 4000
	res, err := ServeBench(scale, ServeConfig{
		Alphas: []float64{0, 0.08, 0.32}, Clients: 4, RequestsPerClient: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alphas) != 3 {
		t.Fatalf("got %d alpha rows", len(res.Alphas))
	}
	for _, row := range res.Alphas {
		if row.Requests != 4*25 {
			t.Fatalf("α=%v served %d requests, want 100", row.Alpha, row.Requests)
		}
		if row.ThroughputRPS <= 0 || row.WallSeconds <= 0 {
			t.Fatalf("non-positive throughput: %+v", row)
		}
		if row.P50 <= 0 || row.P95 < row.P50 || row.P99 < row.P95 {
			t.Fatalf("implausible latency quantiles: %+v", row)
		}
		if row.MeanBatch < 1 {
			t.Fatalf("mean batch < 1: %+v", row)
		}
	}
	if res.Alphas[0].CacheHitRate != 0 || res.Alphas[0].CacheHits != 0 {
		t.Fatalf("α=0 row reports cache hits: %+v", res.Alphas[0])
	}
	for i := 1; i < len(res.Alphas); i++ {
		prev, cur := res.Alphas[i-1], res.Alphas[i]
		if cur.CacheHitRate < prev.CacheHitRate {
			t.Fatalf("cache hit rate fell with α: %v@%v -> %v@%v",
				prev.CacheHitRate, prev.Alpha, cur.CacheHitRate, cur.Alpha)
		}
		if cur.RemoteFetches > prev.RemoteFetches {
			t.Fatalf("remote fetches grew with α: %d@%v -> %d@%v",
				prev.RemoteFetches, prev.Alpha, cur.RemoteFetches, cur.Alpha)
		}
	}
	if RenderServeBench(res) == "" {
		t.Fatal("empty rendering")
	}
}

// TestServeBenchFromCheckpoint exercises the serve-from-snapshot path: a
// short checkpointed training run (the exact cluster configuration
// ServeBench uses), then ServeBench pointed at the checkpoint file instead
// of training fresh — the restored cluster's cache configuration becomes
// the single reported row.
func TestServeBenchFromCheckpoint(t *testing.T) {
	scale := SmallScale()
	scale.PapersN = 4000
	ds, err := DatasetByName("papers-sim", scale.PapersN, scale.Seed)
	if err != nil {
		t.Fatal(err)
	}
	dims := PaperDims(ds.Name)
	dir := t.TempDir()
	const alpha = 0.08
	ccfg := serveClusterConfig(scale, false, dims, 2, alpha)
	ccfg.Checkpoint = ckpt.Config{Dir: dir, EveryEpochs: 1}
	cl, err := pipeline.NewCluster(ds, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.TrainEpochAll(0); err != nil {
		cl.Close()
		t.Fatal(err)
	}
	trainedW := flatRankWeights(cl)
	cl.Close()
	steps, err := ckpt.Steps(dir)
	if err != nil || len(steps) == 0 {
		t.Fatalf("no checkpoint in %s: %v", dir, err)
	}
	path := filepath.Join(dir, ckpt.FileName(steps[0]))

	res, err := ServeBench(scale, ServeConfig{
		Clients: 4, RequestsPerClient: 25, Checkpoint: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alphas) != 1 {
		t.Fatalf("checkpoint serving produced %d rows, want 1", len(res.Alphas))
	}
	row := res.Alphas[0]
	if row.Requests != 4*25 || row.ThroughputRPS <= 0 {
		t.Fatalf("implausible serving row: %+v", row)
	}
	// The row's α must reflect the checkpoint's cache, not a sweep default.
	if diff := row.Alpha - alpha; diff < -0.01 || diff > 0.01 {
		t.Fatalf("row alpha %v does not reflect the checkpoint's cache (%v)", row.Alpha, alpha)
	}
	if row.CacheHits == 0 {
		t.Fatal("checkpointed cache served no hits")
	}

	// And the served weights are the trained snapshot: rebuilding the
	// cluster from the same checkpoint yields the trained weights bitwise.
	state, err := ckpt.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := serveClusterConfig(scale, false, dims, 2, alpha)
	rcfg.Resume = state
	cl2, err := pipeline.NewCluster(ds, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	restoredW := flatRankWeights(cl2)
	for i := range trainedW {
		if trainedW[i] != restoredW[i] {
			t.Fatalf("restored weights diverge at %d", i)
		}
	}
}

func flatRankWeights(cl *pipeline.Cluster) []float32 {
	var out []float32
	for _, p := range cl.Ranks[0].Model().Params() {
		out = append(out, p.W.Data...)
	}
	return out
}

// TestServeBenchServesForeignCheckpoint pins the shipped CLI workflow:
// a checkpoint written by the gnntrain path (products-sim, gnntrain's own
// fanouts/hidden/seed/batch — none of which match the serve bench's
// defaults) must be servable by ServeBench, which reconstructs the
// dataset, model dimensions, and run parameters from the file.
func TestServeBenchServesForeignCheckpoint(t *testing.T) {
	dir := t.TempDir()
	acfg := DefaultAccuracyConfig()
	acfg.Datasets = []string{"products-sim"}
	acfg.N = 2000
	acfg.Epochs = 1
	acfg.Checkpoint = ckpt.Config{Dir: dir}
	if _, err := Accuracy(acfg); err != nil {
		t.Fatal(err)
	}
	steps, err := ckpt.Steps(dir)
	if err != nil || len(steps) == 0 {
		t.Fatalf("no checkpoint in %s: %v", dir, err)
	}
	path := filepath.Join(dir, ckpt.FileName(steps[0]))
	res, err := ServeBench(SmallScale(), ServeConfig{
		Clients: 2, RequestsPerClient: 10, Checkpoint: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dataset != "products-sim" {
		t.Fatalf("served dataset %q, checkpoint was trained on products-sim", res.Dataset)
	}
	if len(res.Fanouts) != len(acfg.Fanouts) || res.Hidden != acfg.Hidden || res.Seed != acfg.Seed {
		t.Fatalf("reconstruction drifted: fanouts %v hidden %d seed %d, want %v/%d/%d",
			res.Fanouts, res.Hidden, res.Seed, acfg.Fanouts, acfg.Hidden, acfg.Seed)
	}
	if len(res.Alphas) != 1 || res.Alphas[0].Requests != 2*10 {
		t.Fatalf("implausible serving result: %+v", res.Alphas)
	}
	// The empty codec trained fp16, the default, and serving adopted it.
	if res.Codec != "fp16" {
		t.Fatalf("served codec %q, want the checkpoint's fp16", res.Codec)
	}
	// A codec other than the checkpoint's fails before set-up, naming both.
	drift := SmallScale()
	drift.Codec = "int8"
	_, err = ServeBench(drift, ServeConfig{Checkpoint: path})
	if err == nil || !strings.Contains(err.Error(), `"int8"`) || !strings.Contains(err.Error(), `"fp16"`) {
		t.Fatalf("codec drift error %v, want one naming int8 and fp16", err)
	}
}
