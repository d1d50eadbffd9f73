// Command vipsim reproduces the paper's Figure 2: it compares the seven
// static caching policies ("deg.", "1-hop", "wPR", "#paths", "sim.",
// "VIP", "oracle") by the remote feature communication volume they leave
// on a partitioned graph, across fanout settings and replication factors.
//
// Example:
//
//	vipsim -n 200000 -k 8 -batch 64 -epochs 5
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"salientpp/internal/dataset"
	"salientpp/internal/experiments"
	"salientpp/internal/pipeline"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vipsim: ")
	var (
		n       = flag.Int("n", 100000, "vertices in the papers-sim graph")
		k       = flag.Int("k", 8, "number of partitions")
		batch   = flag.Int("batch", 64, "minibatch size per machine")
		epochs  = flag.Int("epochs", 5, "evaluation epochs to average over")
		alphas  = flag.String("alphas", "0.05,0.10,0.20,0.50,1.00", "replication factors")
		fanouts = flag.String("fanouts", "15,10,5;10,10,10;5,5,5", "fanout panels (';'-separated)")
		seed    = flag.Uint64("seed", 1, "random seed")
		workers = flag.Int("workers", 2, "sampler workers")
	)
	flag.Parse()

	ds, err := dataset.PapersSim(*n, false, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fanoutSets, err := parseFanoutSets(*fanouts)
	if err != nil {
		log.Fatal(err)
	}
	alphaVals, err := parseFloats(*alphas)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("dataset %s: N=%d M=%d, %d-way partition, batch %d\n",
		ds.Name, ds.NumVertices(), ds.Graph.NumEdges(), *k, *batch)

	pl, err := pipeline.Place(ds, nil, *k, nil, *batch, false, *seed, *workers)
	if err != nil {
		log.Fatal(err)
	}
	res, err := experiments.Fig2(pl, experiments.Fig2Config{
		K: *k, Batch: *batch, FanoutSets: fanoutSets, Alphas: alphaVals,
		EvalEpochs: *epochs, SimEpochs: 2, Seed: *seed, Workers: *workers,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Render())
}

func parseFanoutSets(s string) ([][]int, error) {
	var out [][]int
	for _, part := range strings.Split(s, ";") {
		fs, err := parseInts(part)
		if err != nil {
			return nil, err
		}
		out = append(out, fs)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", tok, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", tok, err)
		}
		out = append(out, v)
	}
	return out, nil
}
