// Repository-root benchmarks for the results this repository reproduces
// in-process: Figure 2's caching-policy comparison, the §5.3 accuracy run,
// and ablations of the VIP analysis, the cache lookup and the
// VIP-weighted partitioning objective. Custom metrics carry the outputs
// (communication volumes, accuracy) alongside wall-clock time. Table 1's
// timing ladder is measured by examples/optimization-ladder, serving by
// experiments.ServeBench (cmd/gnnserve), and speed claims by the bench/
// module.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package salientpp_test

import (
	"testing"

	"salientpp/internal/cache"
	"salientpp/internal/dataset"
	"salientpp/internal/experiments"
	"salientpp/internal/pipeline"
	"salientpp/internal/rng"
	"salientpp/internal/vip"
)

// benchSeed pins every random stream the benchmarks touch (dataset
// generation, partitioning, sampling, policy evaluation) so reported
// metrics are reproducible run-to-run; change it deliberately, not
// accidentally.
const benchSeed = 7

// benchScale keeps -bench runs in seconds, not minutes. SmallScale carries
// Seed == benchSeed; the assignment below makes the pinning explicit and
// independent of the helper's default.
func benchScale() experiments.Scale {
	s := experiments.SmallScale()
	s.Seed = benchSeed
	return s
}

// BenchmarkFig2_CachingPolicies regenerates Figure 2: communication volume
// of the seven caching policies across fanouts and replication factors.
func BenchmarkFig2_CachingPolicies(b *testing.B) {
	scale := benchScale()
	ds, err := dataset.PapersSim(scale.PapersN, false, scale.Seed)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := pipeline.Place(ds, nil, 4, nil, scale.Batch, false, scale.Seed, scale.Workers)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.Fig2Config{
		K: 4, Batch: scale.Batch,
		FanoutSets: [][]int{{15, 10, 5}, {5, 5, 5}},
		Alphas:     []float64{0.05, 0.20, 0.50},
		EvalEpochs: 3, SimEpochs: 2, Seed: scale.Seed, Workers: scale.Workers,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(pl, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Improvement["VIP"][len(cfg.Alphas)-1], "vip-improvement-x")
	}
}

// BenchmarkAccuracy_RealTraining runs the §5.3 end-to-end training on the
// real distributed stack (one small dataset to keep bench time bounded).
func BenchmarkAccuracy_RealTraining(b *testing.B) {
	cfg := experiments.DefaultAccuracyConfig()
	cfg.Datasets = []string{"products-sim"}
	cfg.N = 3000
	cfg.Epochs = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Accuracy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].ValAcc, "val-acc")
	}
}

// ---------------------------------------------------------------- ablations

// BenchmarkAblationVIPAnalysis times Proposition 1 itself (the paper
// reports 11.8 s at full papers scale; O(L(M+N)) here).
func BenchmarkAblationVIPAnalysis(b *testing.B) {
	scale := benchScale()
	ds, err := dataset.PapersSim(scale.PapersN, false, scale.Seed)
	if err != nil {
		b.Fatal(err)
	}
	p0 := vip.UniformSeeds(ds.NumVertices(), ds.TrainIDs(), 1024)
	for _, workers := range []int{1, 8} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			cfg := vip.Config{Fanouts: []int{15, 10, 5}, BatchSize: 1024, Workers: workers}
			for i := 0; i < b.N; i++ {
				if _, err := vip.Probabilities(ds.Graph, p0, cfg, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCacheLookup compares the bitset+map cache membership
// structure against a pure map (the bitset fast path matters because
// lookup runs once per sampled input vertex).
func BenchmarkAblationCacheLookup(b *testing.B) {
	const n = 1 << 20
	r := rng.New(benchSeed)
	ids := r.SampleK(nil, 50000, n)
	c, err := cache.Build(ids, n)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]int32, 4096)
	for i := range queries {
		queries[i] = int32(r.Intn(n))
	}
	b.Run("bitset", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			if c.Has(queries[i%len(queries)]) {
				hits++
			}
		}
		_ = hits
	})
	b.Run("map", func(b *testing.B) {
		m := make(map[int32]struct{}, len(ids))
		for _, v := range ids {
			m[v] = struct{}{}
		}
		b.ResetTimer()
		hits := 0
		for i := 0; i < b.N; i++ {
			if _, ok := m[queries[i%len(queries)]]; ok {
				hits++
			}
		}
		_ = hits
	})
}

// BenchmarkAblationVIPPartitionObjective explores the paper's §6 future
// work: folding VIP mass into the partitioning objective as an extra
// balance constraint, measuring the effect on remote communication.
func BenchmarkAblationVIPPartitionObjective(b *testing.B) {
	scale := benchScale()
	ds, err := dataset.PapersSim(scale.PapersN, false, scale.Seed)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationVIPPartition(ds, 4, scale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.BaselineRemote, "baseline-remote")
		b.ReportMetric(res.VIPWeightedRemote, "vipweighted-remote")
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
