// Package experiments holds the harnesses behind the paper results this
// repository still reproduces in-process: Figure 2's caching-policy
// comparison (cmd/vipsim), the §5.3 accuracy runs (cmd/gnntrain), the
// partitioning ablation, and the serving benchmark ServeBench
// (cmd/gnnserve). Table 1's timing ladder is measured on the real stack by
// examples/optimization-ladder; speed claims use the bench/ module.
package experiments

import (
	"salientpp/internal/cache"
	"salientpp/internal/dataset"
	"salientpp/internal/dist"
	"salientpp/internal/graph"
	"salientpp/internal/partition"
	"salientpp/internal/vip"
)

// Deployment is a partitioned, reordered dataset ready for volume
// measurement: the preprocessing (paper §4.1) that Figure 2 and the
// partitioning ablation share.
type Deployment struct {
	Name     string
	Data     *dataset.Dataset // reordered; features need not be materialized
	Layout   *dist.Layout
	Parts    []int32 // reordered id space
	TrainIDs []int32 // reordered
	TrainPer [][]int32
	K        int
	Fanouts  []int
	Batch    int
	Seed     uint64
	Workers  int
}

// ModelDims carries the GNN hyperparameters of Table 3.
type ModelDims struct {
	Hidden  int
	Fanouts []int
}

// PaperDims returns the paper's per-dataset architecture (Table 3).
func PaperDims(name string) ModelDims {
	switch name {
	case "products-sim":
		return ModelDims{Hidden: 256, Fanouts: []int{15, 10, 5}}
	case "mag240-sim":
		return ModelDims{Hidden: 1024, Fanouts: []int{25, 15}}
	default: // papers-sim
		return ModelDims{Hidden: 256, Fanouts: []int{15, 10, 5}}
	}
}

// SplitWeights derives the paper's multi-constraint balance weights from a
// dataset's splits.
func SplitWeights(ds *dataset.Dataset) [][]float32 {
	isTrain := make([]bool, ds.NumVertices())
	isVal := make([]bool, ds.NumVertices())
	isTest := make([]bool, ds.NumVertices())
	for v, s := range ds.Splits {
		switch s {
		case dataset.SplitTrain:
			isTrain[v] = true
		case dataset.SplitVal:
			isVal[v] = true
		case dataset.SplitTest:
			isTest[v] = true
		}
	}
	return partition.SalientWeights(ds.Graph, isTrain, isVal, isTest)
}

// Deploy partitions ds into k parts with the paper's balance constraints,
// runs partition-wise VIP analysis, and reorders vertices so partitions
// are contiguous and (when vipReorder) VIP-ranked within each partition.
func Deploy(ds *dataset.Dataset, k int, dims ModelDims, batch int, vipReorder bool, seed uint64, workers int) (*Deployment, error) {
	pres, err := partition.Partition(ds.Graph, partition.Config{
		K:       k,
		Weights: SplitWeights(ds),
		Seed:    seed,
	})
	if err != nil {
		return nil, err
	}
	return DeployWithParts(ds, pres.Parts, k, dims, batch, vipReorder, seed, workers)
}

// DeployWithParts finishes deployment from a precomputed partition
// assignment: VIP analysis, reordering, layout, and per-machine training
// sets. Used by partitioning ablations that supply custom objectives.
func DeployWithParts(ds *dataset.Dataset, assignment []int32, k int, dims ModelDims, batch int, vipReorder bool, seed uint64, workers int) (*Deployment, error) {
	pres := &partition.Result{Parts: assignment, K: k}

	var score []float64
	if vipReorder {
		vcfg := vip.Config{Fanouts: dims.Fanouts, BatchSize: batch, IncludeSeeds: true, Workers: workers}
		vips, err := vip.ForPartitions(ds.Graph, pres.Parts, k, ds.TrainIDs(), vcfg)
		if err != nil {
			return nil, err
		}
		score = make([]float64, ds.NumVertices())
		for v := range score {
			score[v] = vips[pres.Parts[v]][v]
		}
	}
	perm, starts, err := graph.PartitionOrder(pres.Parts, k, score)
	if err != nil {
		return nil, err
	}
	rds, err := ds.Relabel(perm)
	if err != nil {
		return nil, err
	}
	layout, err := dist.NewLayout(starts)
	if err != nil {
		return nil, err
	}
	parts := make([]int32, ds.NumVertices())
	for old, p := range pres.Parts {
		parts[perm[old]] = p
	}
	train := rds.TrainIDs()
	trainPer := make([][]int32, k)
	for _, v := range train {
		p := layout.Owner(v)
		trainPer[p] = append(trainPer[p], v)
	}
	if workers <= 0 {
		workers = 2
	}
	return &Deployment{
		Name: ds.Name, Data: rds, Layout: layout, Parts: parts,
		TrainIDs: train, TrainPer: trainPer, K: k,
		Fanouts: dims.Fanouts, Batch: batch, Seed: seed, Workers: workers,
	}, nil
}

func (d *Deployment) cacheContext(part int32) *cache.Context {
	return &cache.Context{
		G: d.Data.Graph, Parts: d.Parts, K: d.K, Part: part,
		TrainIDs: d.TrainIDs, Fanouts: d.Fanouts, BatchSize: d.Batch,
		Seed: d.Seed + uint64(part)*101, Workers: d.Workers,
	}
}
