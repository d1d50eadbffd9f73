package serve

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"salientpp/internal/dataset"
	"salientpp/internal/pipeline"
	"salientpp/internal/rng"
	"salientpp/internal/sample"
)

func serveDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	d, err := dataset.Generate(dataset.SyntheticConfig{
		Name: "serve-sim", NumVertices: 1500, AvgDegree: 10, FeatureDim: 12,
		NumClasses: 4, TrainFrac: 0.25, ValFrac: 0.08, TestFrac: 0.12,
		FeatureNoise: 0.4, Materialize: true, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func serveCluster(t testing.TB, k int, alpha float64, useTCP bool) *pipeline.Cluster {
	t.Helper()
	return serveClusterCodec(t, k, alpha, useTCP, "")
}

// serveClusterCodec is serveCluster with the cluster's feature wire codec
// ("" for fp32).
func serveClusterCodec(t testing.TB, k int, alpha float64, useTCP bool, codec string) *pipeline.Cluster {
	t.Helper()
	d := serveDataset(t)
	cl, err := pipeline.NewCluster(d, pipeline.ClusterConfig{
		K: k, Alpha: alpha, VIPReorder: true, Codec: codec,
		Hidden: 16, Layers: 2, Dropout: 0, UseTCP: useTCP,
		Train: pipeline.Config{
			Fanouts: []int{5, 5}, BatchSize: 64,
			PipelineDepth: 4, SamplerWorkers: 2, LR: 0.01, Seed: 5,
		},
		ModelSeed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestServeEquivalentToOfflineForward pins the serving data path to the
// offline one: a coalesced micro-batch's predictions must be bitwise
// identical to nn.Model.Forward over the same sampled MFG (same seed
// stream, same sorted deduplicated seed set), and the serving gather must
// fetch exactly the same remote rows as the offline gather — coalescing
// may change scheduling, never results or communication.
func TestServeEquivalentToOfflineForward(t *testing.T) {
	cl := serveCluster(t, 2, 0.2, false)
	defer cl.Close()
	if _, err := cl.TrainEpochAll(0); err != nil {
		t.Fatal(err)
	}

	const seed = 17
	// Request vertices owned by rank 0, plus one duplicated vertex so the
	// batch exercises coalescing. MaxBatch equals the request count, so
	// the round fires exactly when the last request enqueues and round 0
	// contains all of them.
	var verts []int32
	for v := int32(0); int(v) < cl.Data.NumVertices() && len(verts) < 7; v += 13 {
		if cl.Layout.Owner(v) == 0 {
			verts = append(verts, v)
		}
	}
	verts = append(verts, verts[0]) // duplicate request
	m := len(verts)

	srv, err := New(cl, Config{MaxBatch: m, MaxWait: 5 * time.Second, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	outs := make([][]float32, m)
	stats := make([]Stats, m)
	errs := make([]error, m)
	var wg sync.WaitGroup
	for i, v := range verts {
		outs[i] = make([]float32, srv.Classes())
		wg.Add(1)
		go func(i int, v int32) {
			defer wg.Done()
			stats[i], errs[i] = srv.Predict(v, outs[i])
		}(i, v)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if stats[i].Round != 0 || stats[i].BatchSize != m {
			t.Fatalf("request %d served by round %d batch %d; want round 0 batch %d (all coalesced)",
				i, stats[i].Round, stats[i].BatchSize, m)
		}
	}

	// Offline replay: sorted unique seeds, the engine's round-0 stream.
	uniq := map[int32]bool{}
	var seeds []int32
	for _, v := range verts {
		if !uniq[v] {
			uniq[v] = true
			seeds = append(seeds, v)
		}
	}
	for i := 1; i < len(seeds); i++ {
		for j := i; j > 0 && seeds[j] < seeds[j-1]; j-- {
			seeds[j], seeds[j-1] = seeds[j-1], seeds[j]
		}
	}
	smp, err := sample.NewSampler(cl.Data.Graph, []int{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	w := smp.NewWorker(rng.New(seed).Split(0).Split(0))
	mfg := w.Sample(seeds)

	peerDone := make(chan error, 1)
	go func() {
		_, _, err := cl.Ranks[1].Store().Gather(nil)
		peerDone <- err
	}()
	feats, gstats, err := cl.Ranks[0].Store().Gather(mfg.InputIDs())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-peerDone; err != nil {
		t.Fatal(err)
	}
	logits, err := cl.Ranks[0].Model().Forward(mfg, feats, false)
	if err != nil {
		t.Fatal(err)
	}

	if gstats.RemoteFetch == 0 {
		t.Fatal("offline gather fetched nothing remote; the equivalence check needs cross-rank traffic")
	}
	row := map[int32]int{}
	for i, v := range seeds {
		row[v] = i
	}
	for i, v := range verts {
		want := logits.Row(row[v])
		if len(outs[i]) != len(want) {
			t.Fatalf("request %d: %d logits, want %d", i, len(outs[i]), len(want))
		}
		for j := range want {
			if math.Float32bits(outs[i][j]) != math.Float32bits(want[j]) {
				t.Fatalf("request %d (vertex %d) logit %d: served %v, offline %v (must be bitwise identical)",
					i, v, j, outs[i][j], want[j])
			}
		}
		if stats[i].RemoteFetch != gstats.RemoteFetch {
			t.Fatalf("request %d: served round fetched %d remote rows, offline gather %d (must match exactly)",
				i, stats[i].RemoteFetch, gstats.RemoteFetch)
		}
		if stats[i].CacheHits != gstats.CacheHits {
			t.Fatalf("request %d: served round hit cache %d times, offline %d", i, stats[i].CacheHits, gstats.CacheHits)
		}
	}
}

// TestServeConcurrentClients hammers one server from many goroutines (run
// under -race in CI) and checks the metrics aggregate afterwards.
func TestServeConcurrentClients(t *testing.T) {
	cl := serveCluster(t, 2, 0.2, false)
	defer cl.Close()
	srv, err := New(cl, Config{MaxBatch: 8, MaxWait: 200 * time.Microsecond, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients, perClient = 8, 25
	n := int32(cl.Data.NumVertices())
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(99).Split(uint64(c))
			out := make([]float32, srv.Classes())
			for i := 0; i < perClient; i++ {
				v := int32(r.Intn(int(n)))
				st, err := srv.Predict(v, out)
				if err != nil {
					errCh <- err
					return
				}
				if st.BatchSize < 1 || st.Total <= 0 {
					errCh <- errors.New("implausible request stats")
					return
				}
				for _, x := range out {
					if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
						errCh <- errors.New("non-finite logit")
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	snap := srv.Snapshot()
	if snap.Requests != clients*perClient {
		t.Fatalf("snapshot saw %d requests, want %d", snap.Requests, clients*perClient)
	}
	if snap.P50 <= 0 || snap.P95 < snap.P50 || snap.P99 < snap.P95 {
		t.Fatalf("implausible latency quantiles: %+v", snap)
	}
	if snap.MeanBatch < 1 {
		t.Fatalf("mean batch %v < 1", snap.MeanBatch)
	}
	if snap.CacheHits == 0 && snap.RemoteFetches == 0 {
		t.Fatal("no cross-partition feature traffic at all; workload too small")
	}
}

// testShutdownUnderLoad closes a server while clients are mid-flight and
// checks that every blocked Predict unwinds promptly (the abort channel
// installed on the serving stores tears the collectives down), that later
// Predicts fail fast with ErrClosed, and — the leak-regression pattern
// from pipeline/failure_test.go — that shutdown leaves zero serving
// goroutines behind and every pooled feature matrix back in its store
// pool.
func testShutdownUnderLoad(t *testing.T, useTCP bool) {
	cl := serveCluster(t, 2, 0.2, useTCP)
	defer cl.Close()
	baseline := runtime.NumGoroutine()
	srv, err := New(cl, Config{MaxBatch: 4, MaxWait: 100 * time.Microsecond, Seed: 8, UseTCP: useTCP})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 6
	n := int32(cl.Data.NumVertices())
	served := make(chan struct{}, clients*1000)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(5).Split(uint64(c))
			out := make([]float32, srv.Classes())
			for {
				if _, err := srv.Predict(int32(r.Intn(int(n))), out); err != nil {
					return // closed mid-flight or queued at shutdown
				}
				select {
				case served <- struct{}{}:
				default:
				}
			}
		}(c)
	}
	// Let traffic flow, then pull the plug mid-load.
	for i := 0; i < 20; i++ {
		<-served
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	unwound := make(chan struct{})
	go func() { wg.Wait(); close(unwound) }()
	select {
	case <-unwound:
	case <-time.After(10 * time.Second):
		t.Fatal("clients still blocked 10s after Close: in-flight gathers did not unwind")
	}
	out := make([]float32, srv.Classes())
	if _, err := srv.Predict(0, out); !errors.Is(err, ErrClosed) {
		t.Fatalf("Predict after Close: %v, want ErrClosed", err)
	}
	if err := srv.Close(); err != nil { // idempotent
		t.Fatal(err)
	}

	// Pooled-tensor regression: every round — including the one the abort
	// interrupted — must hand its gathered feature matrix back.
	for i, e := range srv.engines {
		if live := e.store.Live(); live != 0 {
			t.Fatalf("engine %d leaked %d pooled matrices at shutdown", i, live)
		}
	}
	// Goroutine regression: driver, engines, abort watchers, and the
	// clients themselves must all be gone.
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("serving goroutines leaked after Close: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServeShutdownUnderLoad(t *testing.T)    { testShutdownUnderLoad(t, false) }
func TestServeShutdownUnderLoadTCP(t *testing.T) { testShutdownUnderLoad(t, true) }

// TestServeValidatesRequests covers the immediate-error paths.
func TestServeValidatesRequests(t *testing.T) {
	cl := serveCluster(t, 2, 0, false)
	defer cl.Close()
	srv, err := New(cl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	out := make([]float32, srv.Classes())
	if _, err := srv.Predict(-1, out); err == nil {
		t.Fatal("negative vertex accepted")
	}
	if _, err := srv.Predict(int32(cl.Data.NumVertices()), out); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	if _, err := srv.Predict(0, make([]float32, 1)); err == nil {
		t.Fatal("short output buffer accepted")
	}
	if _, err := srv.Predict(0, out); err != nil {
		t.Fatalf("valid request failed: %v", err)
	}
}
