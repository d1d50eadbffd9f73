// Slow network: what the paper's Figure 9 setting looks like once both of
// SALIENT++'s communication levers are applied. The VIP cache decides how
// many remote feature rows move; the wire codec (fp32/fp16/int8) decides
// how many bytes each remaining row costs. On a fast interconnect the
// codec is invisible in wall clock — on a token-bucket-shaped slow link it
// is the difference between a communication-bound and a compute-bound
// epoch.
//
// The example trains one real epoch per codec on a 2-machine in-process
// cluster (identical seeds, so every codec fetches exactly the same remote
// rows), measures the actual encoded bytes the transports shipped, and
// replays those bytes through the discrete token-bucket link model of
// internal/simnet at 1 and 4 Gbps — the tc-tbf emulation the paper uses —
// to obtain the wire seconds each codec would cost per epoch.
//
// Run with:
//
//	go run ./examples/slow-network
package main

import (
	"fmt"
	"log"

	"salientpp/internal/dataset"
	"salientpp/internal/metrics"
	"salientpp/internal/pipeline"
	"salientpp/internal/simnet"
)

// seed pins the dataset, partition, VIP analysis, and sampling streams so
// every codec row of the table describes the same epoch.
const seed = 13

func main() {
	log.SetFlags(0)

	ds, err := dataset.Generate(dataset.SyntheticConfig{
		Name: "papers-sim", NumVertices: 12000, AvgDegree: 28.8,
		FeatureDim: 128, NumClasses: 32,
		TrainFrac: 0.10, ValFrac: 0.02, TestFrac: 0.05,
		FeatureNoise: 0.6, Materialize: true, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	const (
		k     = 2
		alpha = 0.16
	)
	fmt.Printf("%s, N=%d, K=%d, α=%.2f VIP cache — one real epoch per wire codec\n\n",
		ds.Name, ds.NumVertices(), k, alpha)

	type row struct {
		codec  string
		remote int64
		wire   int64
		bytes  int64
		wall   float64
		loss   float64
	}
	var rows []row
	for _, codec := range []string{"fp32", "fp16", "int8"} {
		cl, err := pipeline.NewCluster(ds, pipeline.ClusterConfig{
			K: k, Alpha: alpha, VIPReorder: true,
			Hidden: 32, Layers: 2, Codec: codec,
			Train: pipeline.Config{
				Fanouts: []int{10, 5}, BatchSize: 64, PipelineDepth: 10,
				SamplerWorkers: 2, Parallelism: 2, LR: 1e-3, Seed: seed,
			},
			ModelSeed: seed + 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		stats, err := cl.TrainEpochAll(0)
		if err != nil {
			cl.Close()
			log.Fatal(err)
		}
		r := row{codec: codec}
		var lossN int
		for _, s := range stats {
			r.bytes += s.BytesSent
			r.remote += int64(s.Gather.RemoteFetch)
			r.wire += int64(s.Gather.RemoteFetch - s.Gather.Reused)
			if s.Batches > 0 {
				r.loss += s.Loss
				lossN++
			}
			if w := s.Duration.Seconds(); w > r.wall {
				r.wall = w
			}
		}
		if lossN > 0 {
			r.loss /= float64(lossN)
		}
		rows = append(rows, r)
		cl.Close()
	}

	// Replay each epoch's measured wire bytes through the token-bucket
	// link model (50µs latency, TBF-shaped like tc): the time the last
	// byte of the epoch's feature communication arrives on a 1 or 4 Gbps
	// interconnect.
	wire := func(bytes int64, gbps float64) float64 {
		link := simnet.NewLink(gbps, 50e-6).WithTBF(gbps)
		return link.Transfer(0, bytes)
	}

	t := metrics.NewTable(
		"Wire codec sweep: identical epochs, measured encoded bytes, modeled slow-network wire seconds",
		"codec", "remote rows", "rows on wire", "MB on wire", "wire s @1Gbps", "wire s @4Gbps", "epoch wall (s)", "loss")
	base := rows[0]
	for _, r := range rows {
		t.AddRow(
			r.codec,
			r.remote,
			r.wire,
			fmt.Sprintf("%.2f (%.0f%%)", float64(r.bytes)/1e6, 100*float64(r.bytes)/float64(base.bytes)),
			fmt.Sprintf("%.4f", wire(r.bytes, 1)),
			fmt.Sprintf("%.4f", wire(r.bytes, 4)),
			fmt.Sprintf("%.3f", r.wall),
			fmt.Sprintf("%.4f", r.loss))
	}
	fmt.Println(t.String())
	fmt.Println()
	fmt.Println("Reading the table: remote rows are identical by construction — the codec")
	fmt.Println("compresses traffic, it never changes what is fetched. Rows on wire are the")
	fmt.Println("remote rows a round did not copy from the round before it. Wire seconds scale")
	fmt.Println("linearly with bytes, so fp16's ~2x and int8's ~3.5x reductions carry")
	fmt.Println("straight through; at paper scale (100-1000x these features) the 1 Gbps")
	fmt.Println("wire time dominates the epoch, and the reduction is the wall-clock win.")
	fmt.Println("The loss column shows the quantization cost stays in the noise. See the")
	fmt.Println("README's \"Communication efficiency\" section for when int8 is safe.")
}
