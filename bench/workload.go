package main

import (
	"sort"
	"time"

	"salientpp/internal/dataset"
	"salientpp/internal/dist"
	"salientpp/internal/pipeline"
	"salientpp/internal/rng"
	"salientpp/internal/serve"
	"salientpp/internal/simnet"
)

// Inputs every workload shares: the papers-sim analog split over two
// ranks, trained and served with the system defaults (fp32 codecs and
// precision, VIP reordering, the whole shard on the device).
const (
	ranks      = 2
	batchSize  = 128
	featureDim = 128
	numClasses = 32
	avgDegree  = 28.8
	learnRate  = 1e-3

	// featureNoise is calibrated once so that validation accuracy after
	// the epochs each training workload runs lands between 0.70 and 0.95.
	// At the generator's usual 0.6 the loss reaches 0.002 by the third
	// epoch and an accuracy check could never fire.
	featureNoise = 2.0

	// Serving admission and load shape.
	maxBatch     = 32
	maxWait      = time.Millisecond
	latencyLimit = 25 * time.Millisecond
	failLatency  = 2 * latencyLimit // what a failed request costs in a percentile
	// admissionDeadline is serve.Config.Deadline: ten times the latency
	// limit, so admission control and its round-time estimate run but shed
	// only on collapse. At the limit itself one round stalled past 100 ms (a
	// neighbour's burst on the reference box does it within a minute)
	// lifts the estimate over the deadline; every later request is then
	// shed at the door, no round runs, and the estimate never comes down.
	admissionDeadline = 10 * latencyLimit
	callers           = 8       // closed loop: callers each waiting for its reply
	maxInFlight       = 256     // open loop: requests beyond this many waiting fail
	segments          = 5       // a serving value is the median over this many segments
	streamLen         = 1 << 17 // precomputed requests per stream, reused cyclically

	setupRepeats = 3 // set-ups built per run; setup_s is their median
)

var fanouts = []int{15, 10, 5}

// linkSpec shapes every collective of a comm group through one shared
// simnet link, so a remote row costs real time.
type linkSpec struct {
	Gbps       float64 `json:"gbps"`
	LatencySec float64 `json:"latency_s"`
	TBF        bool    `json:"tbf"`
}

func (l *linkSpec) chaos() *dist.Chaos {
	link := simnet.NewLink(l.Gbps, l.LatencySec)
	if l.TBF {
		link = link.WithTBF(l.Gbps)
	}
	return dist.NewChaos(dist.ChaosConfig{Link: link})
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string
	Why  string

	serving bool
	hidden  int
	alpha   float64
	// link, when set, puts the measured comm group on loopback TCP behind
	// the shaped link: the training comms of a training workload, the
	// serving comms of a serving workload.
	link *linkSpec

	// Training: epochs measured at least, and epochs trained before the
	// validation accuracy is taken (fixed, so accuracy repeats for a seed
	// however many epochs fit in the measured time).
	minEpochs, accEpochs int

	// Serving: epochs trained before the snapshot, the cache mode, the
	// online refresh cadence, the open-loop rate, and the request stream.
	prepEpochs    int
	online        bool
	refreshRounds int
	openRPS       float64
	drift         bool

	// accFloor fails the run when accuracy falls under it.
	accFloor float64
}

var workloads = []*workload{
	{
		Name:   "train.compute",
		Why:    "hidden 256 on the in-process transport: nn forward+backward is the step and dist under a tenth, so kernel work shows here and comm work moves nothing",
		hidden: 256, alpha: 0.16, minEpochs: 2, accEpochs: 3, accFloor: 0.70,
	},
	{
		Name:   "train.comm",
		Why:    "hidden 64 over loopback TCP shaped to 0.25 Gb/s: dist.gather is most of the step and compute hides under it, so cache hit rate, wire bytes and gather overlap show here",
		hidden: 64, alpha: 0.08, link: &linkSpec{Gbps: 0.25, LatencySec: 100e-6, TBF: true},
		minEpochs: 4, accEpochs: 5, accFloor: 0.55,
	},
	{
		Name:    "serve.zipf",
		Why:     "zipf(1.1) requests, static cache, in-process transport: serve admission, sample and the nn forward dominate and the cache only reads; control for serve.drift",
		serving: true, hidden: 256, alpha: 0.16, prepEpochs: 2, openRPS: 400, accFloor: 0.60,
	},
	{
		Name:    "serve.drift",
		Why:     "rotating hot set, online cache, TCP behind a 1 Gb/s link: cache installs compete with rounds for CPU and a miss costs link time, so hit rate bought with install cost shows",
		serving: true, hidden: 64, alpha: 0.08, link: &linkSpec{Gbps: 1, LatencySec: 100e-6},
		prepEpochs: 6, online: true, refreshRounds: 8, openRPS: 300, drift: true, accFloor: 0.45,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// scale sizes a run. "full" is what BENCHMARK.json measures; "smoke" is a
// seconds-long pass over the same code for go test.
type scale struct {
	name          string
	vertices      int
	replayBatches int  // serving batches the traced replay runs
	floors        bool // whether the accuracy floors apply (nothing learns at smoke size)
}

var scales = map[string]scale{
	"full":  {name: "full", vertices: 60000, replayBatches: 400, floors: true},
	"smoke": {name: "smoke", vertices: 4000, replayBatches: 40},
}

// deployment is one built set-up: the cluster over the generated dataset,
// the communicators the cluster was given (captured through WrapComm so
// the traced replay can reduce gradients and count bytes itself), and for a
// serving workload the server.
type deployment struct {
	w    *workload
	seed uint64
	cl   *pipeline.Cluster
	feat []dist.Comm
	grad []dist.Comm
	srv  *serve.Server
}

func generate(sc scale, seed uint64) (*dataset.Dataset, error) {
	return dataset.Generate(dataset.SyntheticConfig{
		Name: "papers-sim", NumVertices: sc.vertices, AvgDegree: avgDegree,
		FeatureDim: featureDim, NumClasses: numClasses,
		TrainFrac: 0.10, ValFrac: 0.02, TestFrac: 0.05,
		FeatureNoise: featureNoise, Materialize: true, Seed: seed,
	})
}

// deploy builds the cluster (and, when serving, a server) over ds. The
// seed reaches the program only through the dataset and the Seed fields.
func deploy(w *workload, ds *dataset.Dataset, seed uint64) (*deployment, error) {
	d := &deployment{w: w, seed: seed, feat: make([]dist.Comm, ranks), grad: make([]dist.Comm, ranks)}
	var chaos *dist.Chaos
	if w.link != nil && !w.serving {
		chaos = w.link.chaos()
	}
	cl, err := pipeline.NewCluster(ds, pipeline.ClusterConfig{
		K: ranks, Alpha: w.alpha, GPUFraction: 1, VIPReorder: true,
		Hidden: w.hidden, Layers: len(fanouts), UseTCP: chaos != nil,
		Train: pipeline.Config{
			Fanouts: fanouts, BatchSize: batchSize, PipelineDepth: 10,
			SamplerWorkers: 2, Parallelism: 2, LR: learnRate, Seed: seed,
		},
		ModelSeed: seed + 1,
		WrapComm: func(rank int, feat, grad dist.Comm) (dist.Comm, dist.Comm) {
			if chaos != nil {
				feat, grad = chaos.WrapPair(feat, grad)
			}
			d.feat[rank], d.grad[rank] = feat, grad
			return feat, grad
		},
	})
	if err != nil {
		return nil, err
	}
	d.cl = cl
	if w.serving {
		if err := d.startServer(); err != nil {
			cl.Close()
			return nil, err
		}
	}
	return d, nil
}

// startServer snapshots the cluster's current weights into a new server.
func (d *deployment) startServer() error {
	cfg := serve.Config{
		MaxBatch: maxBatch, MaxWait: maxWait, Deadline: admissionDeadline, Seed: d.seed,
	}
	if d.w.link != nil {
		chaos := d.w.link.chaos()
		cfg.UseTCP = true
		cfg.WrapComm = func(_ int, c dist.Comm) dist.Comm { return chaos.Wrap(c) }
	}
	if d.w.online {
		cfg.Cache, cfg.CacheRefreshRounds = "online", d.w.refreshRounds
	}
	srv, err := serve.New(d.cl, cfg)
	if err != nil {
		return err
	}
	d.srv = srv
	return nil
}

func (d *deployment) stopServer() {
	if d.srv != nil {
		d.srv.Close() // always returns nil
		d.srv = nil
	}
}

func (d *deployment) close() {
	d.stopServer()
	d.cl.Close()
}

// timedSetups builds the whole set-up (dataset, cluster, server)
// setupRepeats times, closing all but the last, and returns the last with
// each build's wall time. The preparatory training of a serving workload is not part of
// it: the timed server snapshots untrained weights.
func timedSetups(w *workload, sc scale, seed uint64) (*deployment, []float64, error) {
	var d *deployment
	var walls []float64
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		ds, err := generate(sc, seed)
		if err != nil {
			return nil, nil, err
		}
		if d, err = deploy(w, ds, seed); err != nil {
			return nil, nil, err
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return d, walls, nil
}

// trainPerRank returns each rank's training vertices in the cluster's
// reordered ids, and the rounds of one epoch (the largest batch count).
func (d *deployment) trainPerRank() (per [][]int32, rounds int) {
	per = make([][]int32, ranks)
	for _, v := range d.cl.Data.TrainIDs() {
		p := d.cl.Layout.Owner(v)
		per[p] = append(per[p], v)
	}
	for _, ids := range per {
		rounds = max(rounds, (len(ids)+batchSize-1)/batchSize)
	}
	return per, rounds
}

// requestStream returns the picker of one phase of the workload's request
// stream. Streams are precomputed from the seed; phase decorrelates the
// warm-up, closed, open and replay phases. Popularity follows degree — the
// most-cited papers are the most requested — so the few vertices that draw
// most requests do comparable work under every seed; mapped through a random
// permutation, their degrees alone moved throughput by a quarter from seed to
// seed.
func (d *deployment) requestStream(phase int) picker {
	n := d.cl.Data.NumVertices()
	r := rng.New(d.seed ^ 0x5e12e).Split(uint64(phase))
	deg := d.cl.Data.Graph.Degrees()
	byDegree := make([]int32, n) // falling degree, ties by id
	for i := range byDegree {
		byDegree[i] = int32(i)
	}
	sort.Slice(byDegree, func(a, b int) bool {
		va, vb := byDegree[a], byDegree[b]
		if deg[va] != deg[vb] {
			return deg[va] > deg[vb]
		}
		return va < vb
	})
	verts := make([]int32, streamLen)
	if !d.w.drift {
		// zipf(1.1) over the degree ranking.
		z := rng.NewZipf(r, 1.1, uint64(n))
		for i := range verts {
			verts[i] = byDegree[z.Uint64()]
		}
		return func(i int, _ float64) int32 { return verts[i%streamLen] }
	}
	// 90 % of requests hit a tiny hot set that moves to a disjoint slice of
	// the degree ranking (below its first hotStart hubs) six times per
	// phase; the rest are uniform. A negative entry -1-x is the x-th vertex
	// of the current hot slice.
	const rotations, hotStart = 6, 64
	hot := max(4, n/10000)
	for i := range verts {
		if r.Float64() < 0.9 {
			verts[i] = int32(-1 - r.Intn(hot))
		} else {
			verts[i] = int32(r.Intn(n))
		}
	}
	return func(i int, frac float64) int32 {
		v := verts[i%streamLen]
		if v >= 0 {
			return v
		}
		slice := phase*rotations + min(int(frac*rotations), rotations-1)
		return byDegree[(hotStart+slice*hot+int(-1-v))%n]
	}
}
