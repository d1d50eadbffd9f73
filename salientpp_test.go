package salientpp

import (
	"testing"

	"salientpp/internal/dataset"
)

// The facade test exercises the complete public workflow end to end:
// dataset → partition → VIP → cluster → train → evaluate.
func TestPublicAPIWorkflow(t *testing.T) {
	ds, err := NewProductsDataset(2500, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PartitionGraph(ds, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgeCut <= 0 {
		t.Fatal("degenerate partition")
	}

	p, err := VIPProbabilities(ds.Graph, ds.TrainIDs(), VIPConfig{Fanouts: []int{5, 3}, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != ds.NumVertices() {
		t.Fatal("VIP vector wrong length")
	}

	cl, err := NewCluster(ds, ClusterConfig{
		K: 2, Alpha: 0.2, VIPReorder: true,
		Hidden: 16, Layers: 2,
		Train: TrainConfig{Fanouts: []int{5, 3}, BatchSize: 64, LR: 0.01, Seed: 2, SamplerWorkers: 2, PipelineDepth: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for e := 0; e < 2; e++ {
		if _, err := cl.TrainEpochAll(e); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := cl.EvaluateAll(dataset.SplitVal, []int{8, 8}, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if acc <= 0 {
		t.Fatal("evaluation produced zero accuracy on a learnable dataset")
	}
}

func TestCachePoliciesRegistry(t *testing.T) {
	ps := CachePolicies(2, 2, 1)
	if len(ps) != 7 {
		t.Fatalf("expected the 7 Figure 2 policies, got %d", len(ps))
	}
	if VIPCachePolicy().Name() != "VIP" {
		t.Fatal("wrong default policy")
	}
}

func TestWireCodecsListsSupportedNames(t *testing.T) {
	got := WireCodecs()
	want := []string{"fp32", "fp16", "int8"}
	if len(got) != len(want) {
		t.Fatalf("WireCodecs() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("WireCodecs()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}
