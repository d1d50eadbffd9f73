// Command gnnserve runs the online-inference serving stack end to end: it
// assembles a K-machine cluster on a synthetic analog (partitioning, VIP
// analysis, caching, feature sharding), freezes the model into a
// serve.Server (sibling feature stores + coalescing admission queue), and
// drives it with a closed-loop load generator, reporting
// sustained throughput, latency percentiles, batch coalescing, and the
// cache's effect on remote feature traffic.
//
// Example:
//
//	gnnserve -papers 60000 -clients 8 -requests 200
//	gnnserve -alphas 0,0.32 -maxbatch 64 -maxwait 2000
//	gnnserve -checkpoint ckpts/ckpt-e00002-r000000.sppc
//
// Open-loop overload and cache drift are measured by the repository
// benchmark (bench/, workloads serve.zipf and serve.drift), not here.
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"strconv"
	"strings"

	"salientpp"
	"salientpp/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gnnserve: ")
	var (
		papers   = flag.Int("papers", 60000, "papers-sim vertices")
		batch    = flag.Int("batch", 128, "training batch size (sets up the cluster)")
		alphas   = flag.String("alphas", "0,0.08,0.16,0.32", "replication-factor sweep (comma separated)")
		clients  = flag.Int("clients", 8, "closed-loop load-generator clients")
		requests = flag.Int("requests", 150, "requests per client (fixed, so the workload is identical across alphas)")
		maxBatch = flag.Int("maxbatch", 32, "coalescing: max requests per rank per round")
		maxWait  = flag.Int64("maxwait", 1000, "coalescing: max microseconds the oldest request waits for company")
		useTCP   = flag.Bool("tcp", false, "serve the feature collectives over loopback TCP")
		ckptPath = flag.String("checkpoint", "", "serve a frozen snapshot restored from this checkpoint file (gnntrain -checkpoint-dir format); dataset, seed, batch, fanouts, K, and the wire codec are reconstructed from the file, overriding the corresponding flags (a non-empty -codec must name the checkpoint's codec)")
		seed     = flag.Uint64("seed", 7, "random seed")
	)
	// Shared run surface (-codec, -parallelism): -codec sets the cluster's
	// wire codec, which serving shares; with -checkpoint an empty codec
	// takes the checkpoint's recorded one.
	run := salientpp.RunConfig{Parallelism: 2}
	run.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if err := run.Validate(); err != nil {
		log.Fatal(err)
	}

	if runtime.NumCPU() == 1 {
		log.Printf("warning: single-CPU machine; coalesced rounds serialize with the clients")
	}
	alphaList, err := parseAlphas(*alphas)
	if err != nil {
		log.Fatalf("-alphas: %v", err)
	}

	scale := experiments.DefaultScale()
	scale.PapersN = *papers
	scale.Batch = *batch
	scale.Workers = run.Parallelism
	scale.Seed = *seed
	scale.Codec = run.Codec
	res, err := experiments.ServeBench(scale, experiments.ServeConfig{
		Alphas: alphaList, Clients: *clients, RequestsPerClient: *requests,
		MaxBatch: *maxBatch, MaxWaitMicros: *maxWait, UseTCP: *useTCP,
		Checkpoint: *ckptPath,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(experiments.RenderServeBench(res))
}

// parseAlphas parses a comma-separated list of non-negative replication
// factors; empty entries are skipped.
func parseAlphas(s string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		a, err := strconv.ParseFloat(tok, 64)
		if err != nil || a < 0 {
			return nil, fmt.Errorf("bad alpha entry %q", tok)
		}
		out = append(out, a)
	}
	return out, nil
}
