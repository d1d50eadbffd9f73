// Package experiments holds the harnesses behind the paper results this
// repository still reproduces in-process: Figure 2's caching-policy
// comparison (cmd/vipsim), the §5.3 accuracy runs (cmd/gnntrain), the
// partitioning ablation, and the serving benchmark ServeBench
// (cmd/gnnserve). Each starts from the §4.1 placement that training uses,
// pipeline.Place; this file keeps only the model dimensions. Table 1's
// timing ladder is measured on the real stack by
// examples/optimization-ladder; speed claims use the bench/ module.
package experiments

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
