// Online inference: trains a 2-machine cluster for a few epochs, freezes
// the model into the coalescing inference server, and serves concurrent
// per-vertex prediction requests — once without a remote-feature cache and
// once with the VIP cache — demonstrating that the static cache absorbs
// most remote feature traffic at serving time and that predictions stay
// deterministic for a given seed and request set.
//
// The final act demonstrates degraded mode: one rank's transport is
// stalled mid-service (seeded fault injection via dist.Chaos), the gather
// deadline fires, and the server keeps answering every request from the
// VIP cache plus the local shard — responses are flagged Degraded rather
// than hanging or erroring — until the stall clears and a background
// regroup restores full-fidelity serving.
//
// Run with:
//
//	go run ./examples/online-inference [-tcp]
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"salientpp"
	"salientpp/internal/dist"
	"salientpp/internal/rng"
	"salientpp/internal/serve"
)

// Explicit seeds for every random stream: dataset generation, training,
// model initialization, serving-time sampling, and the client request
// streams. The with/without-cache comparison relies on the serving
// workload being identical across the two runs.
const (
	dataSeed   = 9
	trainSeed  = 21
	modelSeed  = 5
	serveSeed  = 13
	clientSeed = 40
)

func main() {
	log.SetFlags(0)
	useTCP := flag.Bool("tcp", false, "use loopback TCP transports")
	flag.Parse()

	ds, err := salientpp.NewProductsDataset(6000, true, dataSeed)
	if err != nil {
		log.Fatal(err)
	}
	transport := "in-process channels"
	if *useTCP {
		transport = "loopback TCP"
	}
	fmt.Printf("serving dataset %s from 2 machines over %s\n\n", ds.Name, transport)

	run := func(alpha float64) serve.Snapshot {
		cluster, err := salientpp.NewCluster(ds, salientpp.ClusterConfig{
			K: 2, Alpha: alpha, VIPReorder: true,
			Hidden: 32, Layers: 2, UseTCP: *useTCP,
			Train: salientpp.TrainConfig{
				Fanouts: []int{10, 5}, BatchSize: 64,
				PipelineDepth: 10, SamplerWorkers: 2, LR: 0.01, Seed: trainSeed,
			},
			ModelSeed: modelSeed,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer cluster.Close()
		for epoch := 0; epoch < 2; epoch++ {
			if _, err := cluster.TrainEpochAll(epoch); err != nil {
				log.Fatal(err)
			}
		}

		// Freeze the trained model into the serving deployment. Requests
		// for the same vertex arriving together coalesce into one sampled
		// micro-batch; a rank fires a round at 16 requests or after 500µs.
		srv, err := serve.New(cluster, serve.Config{
			MaxBatch: 16, MaxWait: 0 /* default 500µs */, Seed: serveSeed, UseTCP: *useTCP,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()

		const clients, perClient = 4, 100
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				r := rng.New(clientSeed).Split(uint64(c))
				out := make([]float32, srv.Classes())
				for i := 0; i < perClient; i++ {
					v := int32(r.Intn(ds.NumVertices()))
					if _, err := srv.Predict(v, out); err != nil {
						log.Fatal(err)
					}
				}
			}(c)
		}
		wg.Wait()
		return srv.Snapshot()
	}

	noCache := run(0)
	vip := run(0.32)

	fmt.Printf("%-26s %-10s %-12s %-12s %-12s %-14s %-16s %s\n",
		"configuration", "requests", "p50 (ms)", "p95 (ms)", "mean batch", "remote rows", "cache hit rate", "compute (ms)")
	row := func(name string, s serve.Snapshot) {
		fmt.Printf("%-26s %-10d %-12.3f %-12.3f %-12.2f %-14d %-16.3f %.2f\n",
			name, s.Requests, s.P50*1e3, s.P95*1e3, s.MeanBatch, s.RemoteFetches, s.CacheHitRate, s.ComputeSeconds*1e3)
	}
	row("no cache (α=0)", noCache)
	row("VIP cache (α=0.32)", vip)
	fmt.Printf("\nremote-feature reduction at serving time: %.1fx on the same-seed workload\n",
		float64(noCache.RemoteFetches)/float64(vip.RemoteFetches))

	fmt.Println()
	degradedDemo(ds, *useTCP)
}

// degradedDemo stalls rank 1's transport mid-service and shows the server
// staying available: gathers time out, responses degrade to cache + local
// shard (flagged, never silently wrong, never hung), and once the stall
// clears a background regroup restores normal serving.
func degradedDemo(ds *salientpp.Dataset, useTCP bool) {
	cluster, err := salientpp.NewCluster(ds, salientpp.ClusterConfig{
		K: 2, Alpha: 0.32, VIPReorder: true,
		Hidden: 32, Layers: 2, UseTCP: useTCP,
		Train: salientpp.TrainConfig{
			Fanouts: []int{10, 5}, BatchSize: 64,
			PipelineDepth: 10, SamplerWorkers: 2, LR: 0.01, Seed: trainSeed,
		},
		ModelSeed: modelSeed,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	for epoch := 0; epoch < 2; epoch++ {
		if _, err := cluster.TrainEpochAll(epoch); err != nil {
			log.Fatal(err)
		}
	}

	// A seeded chaos schedule wraps rank 1's transport; Stall() freezes its
	// collectives until Clear(). The gather deadline bounds how long a
	// round can wait on the frozen peer before degrading.
	chaos := dist.NewChaos(dist.ChaosConfig{Seed: 11})
	srv, err := serve.New(cluster, serve.Config{
		MaxBatch: 16, Seed: serveSeed, UseTCP: useTCP,
		Deadline:      20 * time.Millisecond,
		GatherTimeout: 5 * time.Millisecond,
		WrapComm: func(rank int, c dist.Comm) dist.Comm {
			if rank == 1 {
				return chaos.Wrap(c)
			}
			return c
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	r := rng.New(clientSeed)
	out := make([]float32, srv.Classes())
	serveSome := func(n int) (answered, degraded, shed int) {
		for i := 0; i < n; i++ {
			v := int32(r.Intn(ds.NumVertices()))
			stats, err := srv.Predict(v, out)
			switch {
			case err == salientpp.ErrShed:
				shed++ // explicit overload rejection, never a silent drop
			case err != nil:
				log.Fatal(err)
			default:
				answered++
				if stats.Degraded {
					degraded++
				}
			}
		}
		return
	}

	a, d, _ := serveSome(40)
	fmt.Printf("overload & degraded mode (gather deadline 5ms, admission budget 20ms):\n")
	fmt.Printf("  healthy:   %d/%d answered, %d degraded\n", a, a, d)

	chaos.Stall() // rank 1's collectives now hang
	a, d, s := serveSome(40)
	fmt.Printf("  stalled:   %d answered (%d degraded from cache + local shard), %d shed — zero hangs\n", a, d, s)

	chaos.Clear() // stall over; the background regroup restores fidelity
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats, err := srv.Predict(int32(r.Intn(ds.NumVertices())), out)
		if err == nil && !stats.Degraded {
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("serving did not recover after the stall cleared")
		}
	}
	snap := srv.Snapshot()
	fmt.Printf("  recovered: full-fidelity serving restored (%d gather timeouts, %d degraded rounds, %d regroups)\n",
		snap.GatherTimeouts, snap.DegradedRounds, snap.Regroups)
}
