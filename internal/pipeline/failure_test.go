package pipeline

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"salientpp/internal/dataset"
	"salientpp/internal/dist"
	"salientpp/internal/nn"
	"salientpp/internal/sample"
	"salientpp/internal/tensor"
)

// flakyComm injects a failure after a fixed number of collectives,
// exercising the training loop's error path (the paper's system relies on
// NCCL aborting; here the group is closed on failure, which wakes blocked
// peers with errors instead of deadlocking them).
type flakyComm struct {
	dist.Comm
	calls  *atomic.Int64
	failAt int64
}

func (f *flakyComm) AllToAll(send [][]byte) ([][]byte, error) {
	if f.calls.Add(1) >= f.failAt {
		f.Comm.Close() // abort the whole group, like an NCCL abort
		return nil, fmt.Errorf("injected network failure")
	}
	return f.Comm.AllToAll(send)
}

func TestTrainEpochSurfacesTransportFailure(t *testing.T) {
	baseline := runtime.NumGoroutine()
	d, err := dataset.Generate(dataset.SyntheticConfig{
		Name: "flaky", NumVertices: 400, AvgDegree: 8, FeatureDim: 8,
		NumClasses: 2, TrainFrac: 0.4, FeatureNoise: 0.3,
		Materialize: true, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	feat, err := dist.NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	grad, err := dist.NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer feat[0].Close()
	defer grad[0].Close()

	layout, err := dist.NewLayout([]int64{0, 200, 400})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	ranks := make([]*Rank, 2)
	stores := make([]*dist.Store, 2)
	for r := 0; r < 2; r++ {
		local := tensor.New(200, d.FeatureDim)
		for v := 0; v < 200; v++ {
			copy(local.Row(v), d.FeatureRow(int32(layout.Starts[r])+int32(v)))
		}
		// Rank 0's feature comm fails partway through the epoch; both
		// ranks share the counter so the failure lands mid-collective.
		var fc dist.Comm = feat[r]
		fc = &flakyComm{Comm: fc, calls: &calls, failAt: 8}
		store, err := dist.NewStore(fc, layout, d.FeatureDim, local, nil)
		if err != nil {
			t.Fatal(err)
		}
		stores[r] = store
		smp, err := sample.NewSampler(d.Graph, []int{3, 3})
		if err != nil {
			t.Fatal(err)
		}
		model, err := nn.NewModel(d.FeatureDim, 8, d.NumClasses, 2, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		var train []int32
		for _, v := range d.TrainIDs() {
			if layout.Owner(v) == r {
				train = append(train, v)
			}
		}
		rk, err := NewRank(Config{Fanouts: []int{3, 3}, BatchSize: 16, PipelineDepth: 2, SamplerWorkers: 1, LR: 0.01, Seed: 2},
			fc, grad[r], store, smp, model, train, d.Labels, 8)
		if err != nil {
			t.Fatal(err)
		}
		ranks[r] = rk
	}

	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func(r int) {
			_, err := ranks[r].trainEpochFrom(0, 0, nil)
			errs <- err
		}(r)
	}
	sawFailure := false
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			sawFailure = true
		}
	}
	if !sawFailure {
		t.Fatal("injected transport failure was swallowed")
	}

	// Pooled-tensor regression: the abort path must hand every gathered
	// feature matrix back to its store pool — the failing batch's, those
	// queued between the gather and compute stages, and those stranded by
	// the stage-B abort select.
	for r, st := range stores {
		if live := st.Live(); live != 0 {
			t.Errorf("rank %d leaked %d pooled feature matrices on the abort path", r, live)
		}
	}

	// Leak regression: before the abort channel, a mid-epoch Gather failure
	// left sampling workers blocked on the inflight semaphore and the slot
	// forwarder blocked on its per-batch channel, permanently. Every
	// pipeline goroutine must unwind once trainEpochFrom returns the error.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("pipeline goroutines leaked after failed epoch: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestEvaluateDisjointFanouts(t *testing.T) {
	// Evaluation may use different (larger) fanouts than training, as the
	// paper does with (20,20,20); verify it works on a live cluster.
	d, err := dataset.Generate(dataset.SyntheticConfig{
		Name: "evalf", NumVertices: 800, AvgDegree: 10, FeatureDim: 8,
		NumClasses: 3, TrainFrac: 0.3, ValFrac: 0.2, FeatureNoise: 0.3,
		Materialize: true, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(d, ClusterConfig{
		K: 2, Alpha: 0.1, VIPReorder: true,
		Hidden: 8, Layers: 2,
		Train: Config{Fanouts: []int{4, 4}, BatchSize: 32, PipelineDepth: 2, SamplerWorkers: 1, LR: 0.01, Seed: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.TrainEpochAll(0); err != nil {
		t.Fatal(err)
	}
	acc, err := cl.EvaluateAll(dataset.SplitVal, []int{10, 10}, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy out of range: %v", acc)
	}
}
