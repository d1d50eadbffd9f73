package pipeline

import (
	"fmt"

	"salientpp/internal/dataset"
	"salientpp/internal/dist"
	"salientpp/internal/graph"
	"salientpp/internal/partition"
	"salientpp/internal/vip"
)

// Placement is the paper's §4.1 preprocessing, built in one place and
// shared by training (NewCluster), Figure 2 and the partitioning ablation:
// a K-way partition, each partition made a contiguous id interval (ranked
// by VIP value when asked), the dataset relabelled into that order, and
// each machine's training vertices.
type Placement struct {
	// Data is the relabelled dataset (features need not be materialized).
	Data *dataset.Dataset
	// Perm maps original ids to relabelled ids.
	Perm graph.Permutation
	// Layout is the contiguous partition layout.
	Layout *dist.Layout
	// Parts is the partition assignment in relabelled ids.
	Parts []int32
	// TrainPer lists each machine's training vertices, relabelled and
	// ascending.
	TrainPer [][]int32
	// Rounds is the lockstep rounds per epoch: the largest machine's
	// batch count.
	Rounds int
}

// SplitWeights derives the paper's multi-constraint balance weights from a
// dataset's splits: every machine gets a fair share of the training,
// validation and test vertices and of the edges.
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

// Place builds the placement of ds on k machines. A nil parts partitions
// ds under SplitWeights with the given seed; otherwise parts is a
// precomputed assignment in original ids. With vipReorder each partition
// is ordered by descending partition-wise VIP value (fanouts and batch
// define the minibatch distribution, workers bounds the analysis as in
// vip.Config); without it a partition keeps the original id order and no
// analysis runs.
func Place(ds *dataset.Dataset, parts []int32, k int, fanouts []int, batch int, vipReorder bool, seed uint64, workers int) (*Placement, error) {
	if parts == nil {
		pres, err := partition.Partition(ds.Graph, partition.Config{K: k, Weights: SplitWeights(ds), Seed: seed})
		if err != nil {
			return nil, err
		}
		parts = pres.Parts
	}
	var score []float64
	if vipReorder {
		vcfg := vip.Config{Fanouts: fanouts, BatchSize: batch, IncludeSeeds: true, Workers: workers}
		vips, err := vip.ForPartitions(ds.Graph, parts, k, ds.TrainIDs(), vcfg)
		if err != nil {
			return nil, err
		}
		score = make([]float64, ds.NumVertices())
		for v := range score {
			score[v] = vips[parts[v]][v]
		}
	}
	perm, starts, err := graph.PartitionOrder(parts, k, score)
	if err != nil {
		return nil, err
	}
	relabelled := make([]int32, len(parts))
	for old, p := range parts {
		relabelled[perm[old]] = p
	}
	return place(ds, perm, starts, relabelled, batch)
}

// place relabels ds by perm onto the layout starts describes and hands
// each machine the training vertices it owns. parts is in relabelled ids.
// A checkpoint's topology enters here, skipping partitioning and analysis.
func place(ds *dataset.Dataset, perm graph.Permutation, starts []int64, parts []int32, batch int) (*Placement, error) {
	rds, err := ds.Relabel(perm)
	if err != nil {
		return nil, err
	}
	layout, err := dist.NewLayout(starts)
	if err != nil {
		return nil, err
	}
	trainPer, rounds, err := splitByOwner(rds.TrainIDs(), layout, batch)
	if err != nil {
		return nil, err
	}
	if rounds == 0 {
		return nil, fmt.Errorf("pipeline: no training vertices")
	}
	return &Placement{Data: rds, Perm: perm, Layout: layout, Parts: parts, TrainPer: trainPer, Rounds: rounds}, nil
}

// splitByOwner hands each machine of layout the ids it owns, in the order
// given, and returns the lockstep rounds that batch them: the largest
// machine's batch count (0 when ids is empty).
func splitByOwner(ids []int32, layout *dist.Layout, batch int) ([][]int32, int, error) {
	if batch <= 0 {
		return nil, 0, fmt.Errorf("pipeline: batch size %d", batch)
	}
	per := make([][]int32, layout.K())
	for _, v := range ids {
		p := layout.Owner(v)
		per[p] = append(per[p], v)
	}
	rounds := 0
	for _, l := range per {
		rounds = max(rounds, (len(l)+batch-1)/batch)
	}
	return per, rounds, nil
}
