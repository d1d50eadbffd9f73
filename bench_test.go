// Repository-root benchmarks: one family per table/figure of the paper's
// evaluation, each delegating to the internal/experiments harness at
// reduced scale, plus ablation benchmarks for the design choices called
// out in DESIGN.md. Custom metrics carry the experiment outputs (epoch
// seconds, communication volumes) alongside wall-clock time.
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
	"salientpp/internal/perfmodel"
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

// BenchmarkTable1_ProgressiveOptimizations regenerates Table 1: per-epoch
// runtime of SALIENT → +partitioned → +pipelined → +cached on 1/2/4/8
// machines (papers-sim).
func BenchmarkTable1_ProgressiveOptimizations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Raw["+ Feature caching"][3], "spp-K8-epoch-s")
		b.ReportMetric(res.Raw["+ Partitioned features"][3], "naive-K8-epoch-s")
	}
}

// BenchmarkFig2_CachingPolicies regenerates Figure 2: communication volume
// of the seven caching policies across fanouts and replication factors.
func BenchmarkFig2_CachingPolicies(b *testing.B) {
	scale := benchScale()
	ds, err := dataset.PapersSim(scale.PapersN, false, scale.Seed)
	if err != nil {
		b.Fatal(err)
	}
	dep, err := experiments.Deploy(ds, 4, experiments.PaperDims(ds.Name), scale.Batch, false, scale.Seed, scale.Workers)
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
		res, err := experiments.Fig2(dep, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Improvement["VIP"][len(cfg.Alphas)-1], "vip-improvement-x")
	}
}

// BenchmarkFig4_OptimizationImpact regenerates Figure 4 across the three
// datasets.
func BenchmarkFig4_OptimizationImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig4(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].Sequential/rows[1].Cached, "papers-speedup-x")
	}
}

// BenchmarkFig5_Scalability regenerates Figure 5 (2–16 machines, 3
// datasets, memory multiples).
func BenchmarkFig5_Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		// papers-sim K=2 vs K=16 speedup.
		var k2, k16 float64
		for _, r := range rows {
			if r.Dataset == "papers-sim" && r.K == 2 {
				k2 = r.EpochSeconds
			}
			if r.Dataset == "papers-sim" && r.K == 16 {
				k16 = r.EpochSeconds
			}
		}
		b.ReportMetric(k2/k16, "papers-2to16-speedup-x")
	}
}

// BenchmarkFig6_GPUResidency regenerates Figure 6 (local CPU/GPU split,
// no-reorder vs VIP reorder).
func BenchmarkFig6_GPUResidency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		// Epoch time with VIP reorder at 10% GPU residency.
		for _, r := range rows {
			if r.VIPReorder && r.GPUFraction == 0.1 {
				b.ReportMetric(r.EpochSeconds, "vip-beta10-epoch-s")
			}
		}
	}
}

// BenchmarkFig7_ReplicationFactor regenerates Figure 7 (α sweep).
func BenchmarkFig7_ReplicationFactor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		var a0, a32 float64
		for _, r := range rows {
			if r.Dataset == "papers-sim" && r.K == 8 {
				if r.Alpha == 0 {
					a0 = r.EpochSeconds
				}
				if r.Alpha == 0.32 {
					a32 = r.EpochSeconds
				}
			}
		}
		b.ReportMetric(a0/a32, "papers-K8-alpha-speedup-x")
	}
}

// BenchmarkFig8_Breakdown regenerates Figure 8 (pipelining × caching
// breakdowns).
func BenchmarkFig8_Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig8(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Pipelining && r.Alpha > 0 {
				b.ReportMetric(r.Result.EpochSeconds, "pipe-cached-epoch-s")
			}
		}
	}
}

// BenchmarkFig9_SlowNetwork regenerates Figure 9 (token-bucket shaped 4/8
// Gbps networks, analytic vs simulated VIP).
func BenchmarkFig9_SlowNetwork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig9(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		var analytic, simulated float64
		for _, r := range rows {
			if r.Dataset == "papers-sim" && r.NetGbps == 4 && r.Alpha == 0.32 {
				if r.Policy == "VIP (analytic)" {
					analytic = r.EpochSeconds
				} else {
					simulated = r.EpochSeconds
				}
			}
		}
		if analytic > 0 {
			b.ReportMetric(simulated/analytic, "sim-vs-analytic-x")
		}
	}
}

// BenchmarkTable4_DistDGLComparison regenerates Table 4.
func BenchmarkTable4_DistDGLComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Speedup, "speedup-x")
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

// BenchmarkAblationPipelineDepth sweeps the pipeline depth (the paper
// fixes 10 in-flight batches); epoch time should fall steeply from 1 to
// ~4 and flatten beyond.
func BenchmarkAblationPipelineDepth(b *testing.B) {
	scale := benchScale()
	ds, err := dataset.PapersSim(scale.PapersN, false, scale.Seed)
	if err != nil {
		b.Fatal(err)
	}
	dep, err := experiments.Deploy(ds, 4, experiments.PaperDims(ds.Name), scale.Batch, true, scale.Seed, scale.Workers)
	if err != nil {
		b.Fatal(err)
	}
	scen, err := dep.Scenario(nil, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	w, err := dep.Workload(scen)
	if err != nil {
		b.Fatal(err)
	}
	for _, depth := range []int{1, 2, 4, 10, 16} {
		b.Run(benchName("depth", depth), func(b *testing.B) {
			hw := perfmodel.DefaultHardware()
			hw.PipelineDepth = depth
			for i := 0; i < b.N; i++ {
				res, err := perfmodel.Simulate(perfmodel.SystemPipelined, w, hw)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.EpochSeconds, "epoch-s")
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
