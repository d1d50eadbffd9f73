package experiments

import (
	"salientpp/internal/cache"
	"salientpp/internal/dataset"
	"salientpp/internal/partition"
	"salientpp/internal/vip"
)

// AblationResult compares remote communication volume (vertices per
// epoch, no caching) of the standard partitioning objective against the
// VIP-weighted objective suggested as future work in the paper's §6.
type AblationResult struct {
	BaselineRemote    float64
	VIPWeightedRemote float64
}

// AblationVIPPartition partitions ds twice — with the paper's standard
// balance constraints, and with an additional constraint that balances
// global VIP mass across partitions (so no machine concentrates
// frequently-sampled vertices) — and measures the uncached remote
// communication volume of each deployment.
func AblationVIPPartition(ds *dataset.Dataset, k int, scale Scale) (*AblationResult, error) {
	dims := PaperDims(ds.Name)

	// Baseline.
	base, err := Deploy(ds, k, dims, scale.Batch, false, scale.Seed, scale.Workers)
	if err != nil {
		return nil, err
	}
	baseRemote, err := base.remotePerEpoch()
	if err != nil {
		return nil, err
	}

	// VIP-weighted objective: global VIP mass as an extra constraint.
	p0 := vip.UniformSeeds(ds.NumVertices(), ds.TrainIDs(), scale.Batch)
	res, err := vip.Probabilities(ds.Graph, p0, vip.Config{Fanouts: dims.Fanouts, BatchSize: scale.Batch, IncludeSeeds: true}, false)
	if err != nil {
		return nil, err
	}
	vipWeight := make([]float32, ds.NumVertices())
	for v, p := range res.P {
		vipWeight[v] = float32(p)
	}
	weights := append(SplitWeights(ds), vipWeight)
	pres, err := partition.Partition(ds.Graph, partition.Config{K: k, Weights: weights, Seed: scale.Seed})
	if err != nil {
		return nil, err
	}
	weighted, err := DeployWithParts(ds, pres.Parts, k, dims, scale.Batch, false, scale.Seed, scale.Workers)
	if err != nil {
		return nil, err
	}
	wRemote, err := weighted.remotePerEpoch()
	if err != nil {
		return nil, err
	}
	return &AblationResult{BaselineRemote: baseRemote, VIPWeightedRemote: wRemote}, nil
}

// remotePerEpoch samples one training epoch per partition and counts its
// uncached remote accesses, summed over partitions.
func (d *Deployment) remotePerEpoch() (float64, error) {
	var total float64
	for p := 0; p < d.K; p++ {
		w, err := cache.NewWorkload(d.cacheContext(int32(p)), 1, d.Seed^0xbeef)
		if err != nil {
			return 0, err
		}
		total += w.PerEpoch(w.RemoteTotal())
	}
	return total, nil
}
