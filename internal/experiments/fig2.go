package experiments

import (
	"fmt"

	"salientpp/internal/cache"
	"salientpp/internal/metrics"
	"salientpp/internal/pipeline"
)

// Fig2Config parametrizes the caching-policy comparison (paper Figure 2:
// 8-way partitioned papers, 3-layer GraphSAGE, batch 1024, fanout panels
// (15,10,5) / (10,10,10) / (5,5,5), replication factors up to 1.0).
type Fig2Config struct {
	K          int
	Batch      int
	FanoutSets [][]int
	Alphas     []float64
	// EvalEpochs is the number of sampled evaluation epochs whose access
	// counts define the measured communication volume (the paper averages
	// 100 epochs at full scale; a handful suffices at reduced scale).
	EvalEpochs int
	SimEpochs  int // "sim." policy's simulated epochs (paper: 2)
	Seed       uint64
	Workers    int
}

// DefaultFig2Config mirrors the paper's setup.
func DefaultFig2Config() Fig2Config {
	return Fig2Config{
		K:     8,
		Batch: 1024,
		FanoutSets: [][]int{
			{15, 10, 5},
			{10, 10, 10},
			{5, 5, 5},
		},
		Alphas:     []float64{0.05, 0.10, 0.20, 0.50, 1.00},
		EvalEpochs: 5,
		SimEpochs:  2,
		Seed:       1,
		Workers:    2,
	}
}

// Fig2Panel is one fanout setting's results: per-epoch remote
// communication volume in vertices, per policy and replication factor,
// bracketed by the no-cache upper bound and oracle lower bound.
type Fig2Panel struct {
	Fanouts []int
	Alphas  []float64
	// Volumes[policy][alphaIdx], plus bounds.
	Volumes map[string][]float64
	Upper   float64   // no caching
	Lower   []float64 // oracle per alpha
	// Order preserves the paper's legend order.
	Order []string
}

// Fig2Result aggregates panels plus the geometric-mean improvement (panel
// d): improvement[policy][alphaIdx] = upper / volume, geometric mean
// across fanout panels.
type Fig2Result struct {
	Panels      []Fig2Panel
	Improvement map[string][]float64
	Alphas      []float64
	Order       []string
}

// Fig2 runs the caching-policy comparison on a cfg.K-way placement. Each
// panel re-ranks policies for its own fanout set, exactly as the paper
// varies f with a fixed partition; partition p's policies and sampled
// epochs are seeded by cfg.Seed + 101·p.
func Fig2(pl *pipeline.Placement, cfg Fig2Config) (*Fig2Result, error) {
	if len(cfg.FanoutSets) == 0 || len(cfg.Alphas) == 0 {
		return nil, fmt.Errorf("experiments: empty Fig2 grid")
	}
	if cfg.K != pl.Layout.K() {
		return nil, fmt.Errorf("experiments: Fig2 K = %d on a %d-way placement", cfg.K, pl.Layout.K())
	}
	n := pl.Data.NumVertices()
	train := pl.Data.TrainIDs()
	res := &Fig2Result{Alphas: cfg.Alphas}

	for _, fanouts := range cfg.FanoutSets {
		panel := Fig2Panel{
			Fanouts: fanouts,
			Alphas:  cfg.Alphas,
			Volumes: map[string][]float64{},
			Lower:   make([]float64, len(cfg.Alphas)),
		}
		policies := cache.Registry(cfg.SimEpochs, cfg.EvalEpochs, cfg.Seed^0x0eac)
		for _, p := range policies {
			panel.Order = append(panel.Order, p.Name())
			panel.Volumes[p.Name()] = make([]float64, len(cfg.Alphas))
		}

		for part := 0; part < cfg.K; part++ {
			ctx := &cache.Context{
				G: pl.Data.Graph, Parts: pl.Parts, K: cfg.K, Part: int32(part),
				TrainIDs: train, Fanouts: fanouts, BatchSize: cfg.Batch,
				Seed: cfg.Seed + uint64(part)*101, Workers: cfg.Workers,
			}
			w, err := cache.NewWorkload(ctx, cfg.EvalEpochs, cfg.Seed^0x0eac)
			if err != nil {
				return nil, err
			}
			panel.Upper += w.PerEpoch(w.RemoteTotal())
			for ai, alpha := range cfg.Alphas {
				capacity := cache.CapacityForAlpha(alpha, n, cfg.K)
				panel.Lower[ai] += w.PerEpoch(w.OracleVolume(capacity))
			}
			for _, p := range policies {
				ranking, err := p.Rank(ctx)
				if err != nil {
					return nil, err
				}
				for ai, alpha := range cfg.Alphas {
					capacity := cache.CapacityForAlpha(alpha, n, cfg.K)
					c, err := cache.FromRanking(ranking, capacity, n)
					if err != nil {
						return nil, err
					}
					panel.Volumes[p.Name()][ai] += w.PerEpoch(w.RemoteVolume(c))
				}
			}
		}
		res.Panels = append(res.Panels, panel)
		if res.Order == nil {
			res.Order = panel.Order
		}
	}

	// Panel (d): geometric-mean improvement across fanout panels.
	res.Improvement = map[string][]float64{}
	for _, name := range res.Order {
		imp := make([]float64, len(cfg.Alphas))
		for ai := range cfg.Alphas {
			var ratios []float64
			for _, panel := range res.Panels {
				v := panel.Volumes[name][ai]
				if v > 0 {
					ratios = append(ratios, panel.Upper/v)
				} else {
					// Full elimination: cap the ratio at the upper bound
					// itself to keep the geomean finite.
					ratios = append(ratios, panel.Upper)
				}
			}
			imp[ai] = metrics.GeoMean(ratios)
		}
		res.Improvement[name] = imp
	}
	return res, nil
}

// Render formats the result as paper-style tables.
func (r *Fig2Result) Render() string {
	out := ""
	for pi, panel := range r.Panels {
		t := metrics.NewTable(
			fmt.Sprintf("Figure 2(%c): per-epoch remote communication volume (vertices), fanouts %v", 'a'+pi, panel.Fanouts),
			append([]string{"policy \\ α"}, formatAlphas(panel.Alphas)...)...)
		row := []any{"none (upper)"}
		for range panel.Alphas {
			row = append(row, panel.Upper)
		}
		t.AddRow(row...)
		for _, name := range panel.Order {
			row := []any{name}
			for _, v := range panel.Volumes[name] {
				row = append(row, v)
			}
			t.AddRow(row...)
		}
		row = []any{"oracle bound"}
		for _, v := range panel.Lower {
			row = append(row, v)
		}
		t.AddRow(row...)
		out += t.String() + "\n"
	}
	t := metrics.NewTable("Figure 2(d): geometric-mean improvement over no caching (higher is better)",
		append([]string{"policy \\ α"}, formatAlphas(r.Alphas)...)...)
	for _, name := range r.Order {
		row := []any{name}
		for _, v := range r.Improvement[name] {
			row = append(row, fmt.Sprintf("%.2fx", v))
		}
		t.AddRow(row...)
	}
	return out + t.String()
}

func formatAlphas(alphas []float64) []string {
	out := make([]string, len(alphas))
	for i, a := range alphas {
		out[i] = fmt.Sprintf("%.2f", a)
	}
	return out
}
