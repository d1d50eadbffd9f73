package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metricDecl mirrors one metric entry of BENCHMARK.json; the smoke test
// holds the two lists equal. Bound is the share of the base median by
// which an end-to-end metric may get worse before -compare calls it worse.
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// endToEnd is what a user of the system sees. One name covers both kinds
// of workload: training counts seeds and rounds, serving counts requests.
//
//   - throughput: training seeds per second (all ranks) from the median
//     epoch wall; good replies per second in the closed serving phase.
//   - latency_p50_ms: wall of one training round, from the median epoch;
//     median Predict wall in the closed serving phase, a failed request
//     entering at twice the 25 ms limit.
//   - accuracy: validation accuracy after the workload's fixed epoch
//     count; share of the vertices served whose reply named their label.
//   - setup_s: dataset generation + pipeline.NewCluster (+ serve.New),
//     median over the set-ups a run builds.
//
// The tail latency (serve.closed_p99_ms, train_epoch_s_max) is reported
// but not gated: same-commit runs on the reference box disagree on it by
// more than any bound the benchmark may set (README.md, measured spread).
var endToEnd = []metricDecl{
	{"throughput", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"accuracy", "share", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer comes from the traced pass: bench-side spans around the calls
// into each layer, and counts those calls already return. A metric reads 0
// on a workload that does not exercise its layer.
var perLayer = []metricDecl{
	{Name: "dataset.gen_s", Unit: "s", Better: "lower"},
	{Name: "partition.s", Unit: "s", Better: "lower"},
	{Name: "partition.cut_frac", Unit: "share", Better: "lower"},
	{Name: "vip.s", Unit: "s", Better: "lower"},
	{Name: "cache.rank_s", Unit: "s", Better: "lower"},
	{Name: "cache.build_s", Unit: "s", Better: "lower"},
	{Name: "sample.s_per_round", Unit: "s", Better: "lower"},
	{Name: "sample.inputs_per_round", Unit: "count", Better: "lower"},
	{Name: "sample.edges_per_round", Unit: "count", Better: "lower"},
	{Name: "dist.gather_s_per_round", Unit: "s", Better: "lower"},
	{Name: "dist.feat_bytes_per_round", Unit: "B", Better: "lower"},
	{Name: "dist.remote_rows_per_round", Unit: "count", Better: "lower"},
	{Name: "dist.bytes_per_remote_row", Unit: "B", Better: "lower"},
	{Name: "dist.grad_reduce_s_per_round", Unit: "s", Better: "lower"},
	{Name: "dist.peer_wait_s_per_round", Unit: "s", Better: "lower"},
	{Name: "dist.grad_bytes_per_round", Unit: "B", Better: "lower"},
	{Name: "cache.hit_rate", Unit: "share", Better: "higher"},
	{Name: "cache.installs", Unit: "count", Better: "lower"},
	{Name: "cache.churn_rows", Unit: "count", Better: "lower"},
	{Name: "nn.forward_s_per_round", Unit: "s", Better: "lower"},
	{Name: "nn.backward_s_per_round", Unit: "s", Better: "lower"},
	{Name: "nn.loss_s_per_round", Unit: "s", Better: "lower"},
	{Name: "nn.opt_s_per_round", Unit: "s", Better: "lower"},
	{Name: "nn.infer_s_per_round", Unit: "s", Better: "lower"},
	{Name: "nn.gflop_per_round", Unit: "GFLOP", Better: "lower"},
	{Name: "pipeline.efficiency", Unit: "share", Better: "higher"},
	{Name: "pipeline.hidden_s_per_epoch", Unit: "s", Better: "higher"},
	{Name: "serve.queue_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "serve.batch_mean", Unit: "count", Better: "higher"},
	{Name: "serve.rounds", Unit: "count", Better: "higher"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.degraded", Unit: "count", Better: "lower"},
	{Name: "serve.closed_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.open_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.open_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.open_fail_share", Unit: "share", Better: "lower"},
	{Name: "serve.open_slo_miss_share", Unit: "share", Better: "lower"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "trace.self_sum_share", Unit: "share", Better: "higher"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
}

// exactRepeat names the traced counts that must be identical between two
// runs of a training workload with the same seed: the replay samples and
// gathers the same seeded rounds against a deterministic cache.
var exactRepeat = []string{"dist.remote_rows_per_round", "dist.feat_bytes_per_round", "cache.hit_rate"}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment is recorded with every result so two files can be told apart.
type environment struct {
	Commit     string               `json:"commit"`
	GoVersion  string               `json:"go_version"`
	NumCPU     int                  `json:"nproc"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	Links      map[string]*linkSpec `json:"links"`
	Noise      float64              `json:"feature_noise"`
}

func currentEnvironment() environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Links: map[string]*linkSpec{}, Noise: featureNoise,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	for _, w := range workloads {
		if w.link != nil {
			env.Links[w.Name] = w.link
		}
	}
	return env
}

// record is the result of one run: one workload, one seed, traced or not.
// Metrics holds the declared metrics of its pass (end-to-end when Trace is
// 0, per-layer when 1); Secondary holds what is printed and stored but
// neither gated nor declared.
type record struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Trace     int              `json:"trace"`
	Scale     string           `json:"scale"`
	Seconds   float64          `json:"seconds"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Secondary map[string]value `json:"secondary,omitempty"`
	Problems  []string         `json:"problems,omitempty"`
	Env       environment      `json:"env"`
}

func newRecord(w *workload, sc scale, seed uint64, seconds float64, trace int) *record {
	return &record{
		Workload: w.Name, Seed: seed, Trace: trace, Scale: sc.name, Seconds: seconds,
		Correct: true, Metrics: map[string]value{}, Secondary: map[string]value{},
		Env: currentEnvironment(),
	}
}

// fail marks the run's outputs incorrect; the benchmark then exits non-zero.
func (r *record) fail(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *record) secondary(name string, v float64, unit string) {
	r.Secondary[name] = value{v, unit}
}

// declare fills Metrics from vals for every declared metric of the pass;
// a per-layer metric the workload did not produce reads 0.
func (r *record) declare(decls []metricDecl, vals map[string]float64) {
	for _, d := range decls {
		r.Metrics[d.Name] = value{vals[d.Name], d.Unit}
	}
}

// print writes every metric by name and unit, then, as the last line, the
// one JSON object the driver reads.
func (r *record) print(w io.Writer) error {
	out := bufio.NewWriter(w)
	line := func(kind string, m map[string]value) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(out, "%-14s %-10s %-30s %14.6g %s\n", r.Workload, kind, n, m[n].Value, m[n].Unit)
		}
	}
	fmt.Fprintf(out, "# %s seed=%d trace=%d scale=%s seconds=%g gomaxprocs=%d\n", r.Workload, r.Seed, r.Trace, r.Scale, r.Seconds, r.Env.GOMAXPROCS)
	line("secondary", r.Secondary)
	if r.Trace == 1 {
		line("per_layer", r.Metrics)
	} else {
		line("end_to_end", r.Metrics)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(out, "%-14s PROBLEM %s\n", r.Workload, p)
	}
	last, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", last)
	return out.Flush()
}

// peakRSSMB reads the process's peak resident set from /proc (0 elsewhere).
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(buf), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(l, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}
