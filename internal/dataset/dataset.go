// Package dataset bundles a graph with vertex features, labels, and
// train/validation/test splits, and provides synthetic analogs of the three
// Open Graph Benchmark data sets used in the SALIENT++ paper (Table 2).
//
// The OGB data cannot be downloaded in this offline reproduction and the
// full-scale graphs (111M–121M vertices) would not fit regardless, so the
// analogs are RMAT graphs whose *relative* statistics — average degree,
// feature dimensionality, and train/val/test fractions — match the paper.
// Labels are planted by graph-Voronoi regions (multi-source BFS), giving
// the label homophily that makes GraphSAGE training meaningful, and
// features are noisy class centroids so the task is learnable.
package dataset

import (
	"fmt"

	"salientpp/internal/graph"
)

// Split labels a vertex's role in training.
type Split uint8

// Split values. SplitNone marks vertices that participate in the graph but
// not in any supervised split (the common case for papers/mag240c where
// only ~1% of vertices are labeled).
const (
	SplitNone Split = iota
	SplitTrain
	SplitVal
	SplitTest
)

func (s Split) String() string {
	switch s {
	case SplitTrain:
		return "train"
	case SplitVal:
		return "val"
	case SplitTest:
		return "test"
	default:
		return "none"
	}
}

// Dataset is a node-classification dataset.
type Dataset struct {
	Name string
	// Graph is undirected with sorted adjacency.
	Graph *graph.CSR
	// FeatureDim is the per-vertex feature dimensionality D.
	FeatureDim int
	// Features holds row-major vertex features (length N*FeatureDim) or is
	// nil when the dataset was generated without feature materialization
	// (performance-model experiments only need sizes).
	Features []float32
	// Labels[v] in [0, NumClasses).
	Labels []int32
	// NumClasses is the label count C.
	NumClasses int
	// Splits[v] is the split membership of v.
	Splits []Split
}

// NumVertices returns N.
func (d *Dataset) NumVertices() int { return d.Graph.NumVertices() }

// FeatureRow returns the feature vector of v, aliasing internal storage.
// It panics if features were not materialized.
func (d *Dataset) FeatureRow(v int32) []float32 {
	if d.Features == nil {
		panic("dataset: features not materialized")
	}
	off := int(v) * d.FeatureDim
	return d.Features[off : off+d.FeatureDim]
}

// HasFeatures reports whether feature rows were materialized.
func (d *Dataset) HasFeatures() bool { return d.Features != nil }

// IDsInSplit returns the vertex ids with the given split membership, in
// ascending order.
func (d *Dataset) IDsInSplit(s Split) []int32 {
	var out []int32
	for v, sv := range d.Splits {
		if sv == s {
			out = append(out, int32(v))
		}
	}
	return out
}

// TrainIDs returns the training vertices in ascending order.
func (d *Dataset) TrainIDs() []int32 { return d.IDsInSplit(SplitTrain) }

// ValIDs returns the validation vertices in ascending order.
func (d *Dataset) ValIDs() []int32 { return d.IDsInSplit(SplitVal) }

// TestIDs returns the test vertices in ascending order.
func (d *Dataset) TestIDs() []int32 { return d.IDsInSplit(SplitTest) }

// CountSplit returns the number of vertices in split s.
func (d *Dataset) CountSplit(s Split) int {
	c := 0
	for _, sv := range d.Splits {
		if sv == s {
			c++
		}
	}
	return c
}

// Validate checks internal consistency.
func (d *Dataset) Validate() error {
	n := d.NumVertices()
	if err := d.Graph.Validate(); err != nil {
		return fmt.Errorf("dataset %q: %w", d.Name, err)
	}
	if len(d.Labels) != n {
		return fmt.Errorf("dataset %q: %d labels for %d vertices", d.Name, len(d.Labels), n)
	}
	if len(d.Splits) != n {
		return fmt.Errorf("dataset %q: %d split entries for %d vertices", d.Name, len(d.Splits), n)
	}
	for v, l := range d.Labels {
		if l < 0 || int(l) >= d.NumClasses {
			return fmt.Errorf("dataset %q: vertex %d has label %d outside [0,%d)", d.Name, v, l, d.NumClasses)
		}
	}
	if d.Features != nil && len(d.Features) != n*d.FeatureDim {
		return fmt.Errorf("dataset %q: feature buffer has %d values, want %d", d.Name, len(d.Features), n*d.FeatureDim)
	}
	return nil
}

// Relabel returns a copy of the dataset with vertices renamed through perm
// (newID = perm[oldID]); features, labels, and splits move with their
// vertices. Used after partitioning to make partitions contiguous (§4.1).
func (d *Dataset) Relabel(perm graph.Permutation) (*Dataset, error) {
	g, err := graph.Relabel(d.Graph, perm)
	if err != nil {
		return nil, err
	}
	n := d.NumVertices()
	out := &Dataset{
		Name:       d.Name,
		Graph:      g,
		FeatureDim: d.FeatureDim,
		Labels:     make([]int32, n),
		NumClasses: d.NumClasses,
		Splits:     make([]Split, n),
	}
	if d.Features != nil {
		out.Features = make([]float32, len(d.Features))
	}
	for old := 0; old < n; old++ {
		nw := perm[old]
		out.Labels[nw] = d.Labels[old]
		out.Splits[nw] = d.Splits[old]
		if d.Features != nil {
			copy(out.Features[int(nw)*d.FeatureDim:(int(nw)+1)*d.FeatureDim], d.Features[old*d.FeatureDim:(old+1)*d.FeatureDim])
		}
	}
	return out, nil
}
