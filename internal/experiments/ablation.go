package experiments

import (
	"salientpp/internal/cache"
	"salientpp/internal/dataset"
	"salientpp/internal/partition"
	"salientpp/internal/pipeline"
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
	baseRemote, err := remotePerEpoch(ds, nil, k, dims.Fanouts, scale)
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
	weights := append(pipeline.SplitWeights(ds), vipWeight)
	pres, err := partition.Partition(ds.Graph, partition.Config{K: k, Weights: weights, Seed: scale.Seed})
	if err != nil {
		return nil, err
	}
	wRemote, err := remotePerEpoch(ds, pres.Parts, k, dims.Fanouts, scale)
	if err != nil {
		return nil, err
	}
	return &AblationResult{BaselineRemote: baseRemote, VIPWeightedRemote: wRemote}, nil
}

// remotePerEpoch places ds on k machines (partitioning under the split
// weights when parts is nil), samples one training epoch per partition and
// counts its uncached remote accesses, summed over partitions.
func remotePerEpoch(ds *dataset.Dataset, parts []int32, k int, fanouts []int, scale Scale) (float64, error) {
	pl, err := pipeline.Place(ds, parts, k, fanouts, scale.Batch, false, scale.Seed, scale.Workers)
	if err != nil {
		return 0, err
	}
	train := pl.Data.TrainIDs()
	var total float64
	for p := 0; p < k; p++ {
		ctx := &cache.Context{
			G: pl.Data.Graph, Parts: pl.Parts, K: k, Part: int32(p),
			TrainIDs: train, Fanouts: fanouts, BatchSize: scale.Batch,
			Seed: scale.Seed + uint64(p)*101, Workers: scale.Workers,
		}
		w, err := cache.NewWorkload(ctx, 1, scale.Seed^0xbeef)
		if err != nil {
			return 0, err
		}
		total += w.PerEpoch(w.RemoteTotal())
	}
	return total, nil
}
