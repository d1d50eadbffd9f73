// Optimization ladder: the paper's Table 1, measured on the real training
// stack. Table 1 adds SALIENT++'s optimizations one at a time — full
// feature replication, then partitioned features, then pipelined
// communication, then feature caching — and reports the epoch time of each
// rung. Every rung is a setting of the same cluster here, trained for real
// over loopback TCP whose collectives all pass through one token-bucket
// shaped 0.25 Gb/s link (internal/simnet), the link of the bench/ module's
// train.comm workload:
//
//   - full replication: α = K, so every rank caches every remote row;
//   - partitioned: α = 0 at pipeline depth 1, so each round fetches its
//     remote rows before the next is sampled;
//   - pipelined: α = 0 at depth 10, so the gather streams under compute
//     and a round reuses the rows the round before it fetched;
//   - what ships: α = 0.08 at depth 10 — the VIP cache at set-up, moved
//     each epoch along the schedule planned from the epoch's own accesses.
//
// The paper's own caching rung, a static VIP cache, is no longer a runtime
// configuration: training always moves its cache along the planned
// schedule, so the last rung is that schedule, not the static cache.
//
// Per rung the example prints the set-up seconds, the warm-epoch wall
// time (the first, cold epoch is trained but not timed), the remote
// accesses, the rows on the wire (remote accesses minus the rows reused
// from the previous round) and the feature megabytes sent. Full
// replication still counts remote accesses: its schedule drops cached
// rows the stream inherits from the previous round, which are reused, not
// fetched. Times depend on
// the machine and are printed, never checked. The counts are a pure
// function of the seed, and the example exits non-zero when they break
// the ladder: full replication must put no row on the wire, depth 1 must
// reuse nothing, and the shipped rung must move fewer rows than the
// pipelined one, which must move fewer than the partitioned one.
//
// Run with:
//
//	go run ./examples/optimization-ladder
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"salientpp/internal/dataset"
	"salientpp/internal/dist"
	"salientpp/internal/pipeline"
	"salientpp/internal/simnet"
)

const (
	seed       = 7
	vertices   = 60000
	ranks      = 2
	warmEpochs = 2
)

// rung is one row of the ladder and what it measured over its warm epochs.
type rung struct {
	name     string
	alpha    float64
	depth    int
	setup    time.Duration
	wall     time.Duration
	remote   int64
	wire     int64
	bytes    int64
	coldWire int64 // rows on the wire in the cold epoch
}

func main() {
	log.SetFlags(0)
	ds, err := dataset.Generate(dataset.SyntheticConfig{
		Name: "papers-sim", NumVertices: vertices, AvgDegree: 28.8,
		FeatureDim: 128, NumClasses: 32,
		TrainFrac: 0.10, ValFrac: 0.02, TestFrac: 0.05,
		FeatureNoise: 2.0, Materialize: true, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s, N=%d, K=%d, hidden 64, loopback TCP through a 0.25 Gb/s token-bucket link\n",
		ds.Name, ds.NumVertices(), ranks)
	fmt.Printf("1 cold + %d warm epochs per rung; per-epoch figures are warm-epoch means\n\n", warmEpochs)

	ladder := []*rung{
		{name: "full replication", alpha: ranks, depth: 10},
		{name: "partitioned", alpha: 0, depth: 1},
		{name: "pipelined", alpha: 0, depth: 10},
		{name: "what ships", alpha: 0.08, depth: 10},
	}
	fmt.Printf("%-17s %-17s %8s %12s %12s %12s %10s\n",
		"rung", "setting", "setup s", "epoch wall s", "remote/ep", "wire rows/ep", "MB sent/ep")
	for _, r := range ladder {
		if err := r.measure(ds); err != nil {
			log.Fatalf("%s: %v", r.name, err)
		}
		fmt.Printf("%-17s %-17s %8.2f %12.2f %12d %12d %10.2f\n",
			r.name, fmt.Sprintf("α %g, depth %d", r.alpha, r.depth), r.setup.Seconds(),
			r.wall.Seconds()/warmEpochs, r.remote/warmEpochs, r.wire/warmEpochs, float64(r.bytes)/warmEpochs/1e6)
	}

	full, part, pipe, ships := ladder[0], ladder[1], ladder[2], ladder[3]
	fmt.Println()
	if part.wall > pipe.wall && pipe.wall > ships.wall && ships.wall > full.wall {
		fmt.Println("epoch wall: partitioned > pipelined > what ships > full replication, the paper's order")
	} else {
		fmt.Println("epoch wall: NOT in the paper's order partitioned > pipelined > what ships > full replication on this run")
	}
	failed := false
	check := func(ok bool, format string, args ...any) {
		status := "ok  "
		if !ok {
			status, failed = "FAIL", true
		}
		fmt.Printf("%s "+format+"\n", append([]any{status}, args...)...)
	}
	check(full.wire == 0 && full.coldWire == 0, "full replication puts %d rows on the wire in the warm epochs and %d in the cold one, want 0", full.wire, full.coldWire)
	check(part.wire == part.remote, "depth 1 puts %d rows on the wire for %d remote accesses in the warm epochs, want equal", part.wire, part.remote)
	check(ships.wire < pipe.wire && pipe.wire < part.wire, "warm-epoch wire rows: what ships %d < pipelined %d < partitioned %d", ships.wire, pipe.wire, part.wire)
	if failed {
		os.Exit(1)
	}
}

// measure builds the rung's cluster, trains one cold and warmEpochs warm
// epochs, and records the warm epochs' wall time and gather counts.
func (r *rung) measure(ds *dataset.Dataset) error {
	chaos := dist.NewChaos(dist.ChaosConfig{Link: simnet.NewLink(0.25, 100e-6).WithTBF(0.25)})
	t0 := time.Now()
	cl, err := pipeline.NewCluster(ds, pipeline.ClusterConfig{
		K: ranks, Alpha: r.alpha, GPUFraction: 1, VIPReorder: true,
		Hidden: 64, Layers: 3, UseTCP: true,
		Train: pipeline.Config{
			Fanouts: []int{15, 10, 5}, BatchSize: 128, PipelineDepth: r.depth,
			SamplerWorkers: 2, Parallelism: 2, LR: 1e-3, Seed: seed,
		},
		ModelSeed: seed + 1,
		WrapComm:  func(_ int, feat, grad dist.Comm) (dist.Comm, dist.Comm) { return chaos.WrapPair(feat, grad) },
	})
	if err != nil {
		return err
	}
	defer cl.Close()
	r.setup = time.Since(t0)
	for e := 0; e <= warmEpochs; e++ {
		t0 := time.Now()
		stats, err := cl.TrainEpochAll(e)
		if err != nil {
			return err
		}
		wall := time.Since(t0)
		var remote, wire, bytes int64
		for _, s := range stats {
			remote += int64(s.Gather.RemoteFetch)
			wire += int64(s.Gather.RemoteFetch - s.Gather.Reused)
			bytes += s.BytesSent
		}
		if e == 0 {
			r.coldWire = wire
			continue
		}
		r.wall += wall
		r.remote += remote
		r.wire += wire
		r.bytes += bytes
	}
	return nil
}
