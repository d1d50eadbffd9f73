package serve

import (
	"sync/atomic"
	"time"

	"salientpp/internal/dist"
	"salientpp/internal/metrics"
)

// Metrics is the server's live instrumentation: a request-latency
// histogram, a batch-occupancy histogram, and gather-classification
// counters. All updates are lock-free and allocation-free so recording
// them keeps the serving loop's zero-allocation guarantee.
type Metrics struct {
	// Latency records end-to-end request latency in seconds, across all
	// served requests; DegradedLatency records the degraded subset only,
	// so the cost of answering from cache + local shard is attributable
	// per outcome.
	Latency         *metrics.Histogram
	DegradedLatency *metrics.Histogram
	// BatchOccupancy records coalesced requests per non-empty round.
	BatchOccupancy *metrics.Histogram

	requests    atomic.Int64
	rounds      atomic.Int64
	emptyRounds atomic.Int64
	local       atomic.Int64
	cacheHits   atomic.Int64
	remote      atomic.Int64
	computeNS   atomic.Int64

	// Resilience counters: requests rejected by admission control,
	// requests answered degraded (and the rounds that produced them),
	// remote rows zero-filled in degraded rounds, gather deadline
	// expirations, and successful comm-group regroups.
	shed           atomic.Int64
	degraded       atomic.Int64
	degradedRounds atomic.Int64
	missingRows    atomic.Int64
	gatherTimeouts atomic.Int64
	regroups       atomic.Int64

	// Online cache layer: epochs installed across engines, the rows newly
	// admitted by those installs, and the wall time of the refreshes that
	// proposed them. All stay zero in static mode.
	cacheInstalls  atomic.Int64
	cacheChurn     atomic.Int64
	cacheRefreshNS atomic.Int64
}

func newMetrics(maxBatch int) *Metrics {
	if maxBatch < 2 {
		maxBatch = 2
	}
	return &Metrics{
		Latency:         metrics.NewLatencyHistogram(),
		DegradedLatency: metrics.NewLatencyHistogram(),
		BatchOccupancy:  metrics.NewCountHistogram(float64(maxBatch)),
	}
}

func (m *Metrics) observeRequest(st *Stats) {
	m.requests.Add(1)
	m.Latency.Observe(st.Total.Seconds())
	if st.Degraded {
		m.degraded.Add(1)
		m.DegradedLatency.Observe(st.Total.Seconds())
	}
}

func (m *Metrics) observeRound(batch int, g dist.GatherStats, compute time.Duration, degraded bool) {
	m.rounds.Add(1)
	if batch == 0 {
		m.emptyRounds.Add(1)
		return
	}
	if degraded {
		m.degradedRounds.Add(1)
		m.missingRows.Add(int64(g.Missing))
	}
	m.BatchOccupancy.Observe(float64(batch))
	m.computeNS.Add(int64(compute))
	m.local.Add(int64(g.Local))
	m.cacheHits.Add(int64(g.CacheHits))
	m.remote.Add(int64(g.RemoteFetch))
}

// Snapshot is a point-in-time aggregate of the serving metrics.
type Snapshot struct {
	Requests    int64 `json:"requests"`
	Rounds      int64 `json:"rounds"`
	EmptyRounds int64 `json:"empty_rounds"`

	// Latency quantiles and mean, in seconds.
	P50  float64 `json:"p50_latency_seconds"`
	P95  float64 `json:"p95_latency_seconds"`
	P99  float64 `json:"p99_latency_seconds"`
	Mean float64 `json:"mean_latency_seconds"`

	// MeanBatch is the mean coalesced batch size over non-empty rounds.
	MeanBatch float64 `json:"mean_batch"`

	// Gather classification totals across all rounds.
	Local         int64 `json:"local_rows"`
	CacheHits     int64 `json:"cache_hits"`
	RemoteFetches int64 `json:"remote_fetches"`
	// CacheHitRate is hits/(hits+remote): the fraction of would-be remote
	// accesses the cache absorbed.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// CacheInstalls counts online cache-epoch swaps across all engines and
	// CacheChurnRows the feature rows newly admitted by those swaps;
	// CacheRefreshSeconds is the summed wall time of the online refreshes
	// (propose and retarget, whether or not they installed), which each
	// engine runs between its rounds. All are zero under the default
	// static policy.
	CacheInstalls       int64   `json:"cache_installs"`
	CacheChurnRows      int64   `json:"cache_churn_rows"`
	CacheRefreshSeconds float64 `json:"cache_refresh_s"`
	// BytesSent is the cumulative feature-collective payload volume.
	BytesSent int64 `json:"bytes_sent"`
	// ComputeSeconds is the cumulative forward-pass time across non-empty
	// rounds.
	ComputeSeconds float64 `json:"compute_seconds"`

	// Resilience accounting. Shed counts requests rejected with ErrShed;
	// ShedRate is shed/(shed+served). Degraded counts requests answered
	// from cache + local shard only (DegradedRate is their fraction of
	// served requests), DegradedRounds the rounds that produced them, and
	// MissingRows the remote rows zero-filled in those rounds.
	// GatherTimeouts counts gather deadline expirations; Regroups counts
	// comm-group replacements that restored healthy serving.
	Shed           int64   `json:"shed"`
	ShedRate       float64 `json:"shed_rate"`
	Degraded       int64   `json:"degraded"`
	DegradedRate   float64 `json:"degraded_rate"`
	DegradedRounds int64   `json:"degraded_rounds"`
	MissingRows    int64   `json:"missing_rows"`
	GatherTimeouts int64   `json:"gather_timeouts"`
	Regroups       int64   `json:"regroups"`
	// Per-outcome latency: quantiles over the degraded subset only (zero
	// when no request was degraded). Degraded responses skip the remote
	// collectives, so under a stalled peer these stay bounded by the
	// gather timeout while the combined quantiles would hide the split.
	DegradedP50 float64 `json:"degraded_p50_latency_seconds"`
	DegradedP99 float64 `json:"degraded_p99_latency_seconds"`
}

func (m *Metrics) snapshot(bytes int64) Snapshot {
	hits := m.cacheHits.Load()
	remote := m.remote.Load()
	hitRate := 0.0
	if hits+remote > 0 {
		hitRate = float64(hits) / float64(hits+remote)
	}
	served := m.requests.Load()
	shed := m.shed.Load()
	degraded := m.degraded.Load()
	shedRate, degradedRate := 0.0, 0.0
	if served+shed > 0 {
		shedRate = float64(shed) / float64(served+shed)
	}
	if served > 0 {
		degradedRate = float64(degraded) / float64(served)
	}
	return Snapshot{
		Requests:            m.requests.Load(),
		Rounds:              m.rounds.Load(),
		EmptyRounds:         m.emptyRounds.Load(),
		P50:                 m.Latency.Quantile(0.50),
		P95:                 m.Latency.Quantile(0.95),
		P99:                 m.Latency.Quantile(0.99),
		Mean:                m.Latency.HistMean(),
		MeanBatch:           m.BatchOccupancy.HistMean(),
		Local:               m.local.Load(),
		CacheHits:           hits,
		RemoteFetches:       remote,
		CacheHitRate:        hitRate,
		CacheInstalls:       m.cacheInstalls.Load(),
		CacheChurnRows:      m.cacheChurn.Load(),
		CacheRefreshSeconds: float64(m.cacheRefreshNS.Load()) / 1e9,
		BytesSent:           bytes,
		ComputeSeconds:      float64(m.computeNS.Load()) / 1e9,
		Shed:                shed,
		ShedRate:            shedRate,
		Degraded:            degraded,
		DegradedRate:        degradedRate,
		DegradedRounds:      m.degradedRounds.Load(),
		MissingRows:         m.missingRows.Load(),
		GatherTimeouts:      m.gatherTimeouts.Load(),
		Regroups:            m.regroups.Load(),
		DegradedP50:         m.DegradedLatency.Quantile(0.50),
		DegradedP99:         m.DegradedLatency.Quantile(0.99),
	}
}
