package cache

// The online cache layer: where the Rankers of policy.go decide the cache
// once at setup, the Policy here watches the live gather stream and keeps
// proposing new cache epochs, closing the gap between a frozen prefix and
// a drifting request mix (the ROADMAP's "adaptive caching" item; PaGraph's
// degree/priority hybrid is the prior it blends in).

import (
	"fmt"
	"math"
	"sync/atomic"
)

// RoundAccess is one retired round's cache-relevant gather outcome, as
// classified by dist.GatherStats: the remote ids served from the cache and
// the remote ids that missed and were fetched (or, degraded, zero-filled),
// grouped per owning rank. Both alias the store's per-gather scratch —
// observers must fold them into their own state, never retain them.
type RoundAccess struct {
	// Hits are the cache-hit ids in access order.
	Hits []int32
	// Misses are the remote-fetch ids, one ascending list per owning rank.
	Misses [][]int32
}

// Policy is the online cache layer's decision interface. One Policy
// instance serves one install stream (one rank's store); calls are made
// from a single goroutine in round order.
//
// Determinism contract: Propose must be a pure function of the observation
// history (and construction parameters). Serving relies on this for
// bitwise cross-transport reproducibility — two runs that observe the same
// rounds install the same epochs.
type Policy interface {
	// Name is the policy's short label.
	Name() string
	// Observe folds one retired round's access outcome into the policy
	// state. Called once per round, including empty rounds (it advances
	// the policy's clock).
	Observe(a RoundAccess)
	// Propose returns the membership of the next cache epoch: at most
	// capacity ids in descending priority, each previously observed or
	// seeded at construction. The result may alias policy-internal
	// storage, valid until the next Observe or Propose.
	Propose(capacity int) []int32
}

// Static is the default online policy: it pins the setup-time ranking
// prefix forever. Observe is a no-op and Propose always returns the same
// prefix, so the installer never swaps an epoch and the store behaves
// bitwise identically to the historical frozen cache.
type Static struct {
	ids []int32
}

// NewStatic pins ids (the truncated setup ranking, slot order).
func NewStatic(ids []int32) *Static {
	return &Static{ids: append([]int32(nil), ids...)}
}

// Name implements Policy.
func (s *Static) Name() string { return "static" }

// Observe implements Policy (no-op).
func (s *Static) Observe(RoundAccess) {}

// Propose implements Policy: the pinned prefix, truncated to capacity.
func (s *Static) Propose(capacity int) []int32 {
	if capacity > len(s.ids) {
		capacity = len(s.ids)
	}
	if capacity < 0 {
		capacity = 0
	}
	return s.ids[:capacity]
}

// OnlineConfig tunes the drift-tracking scorer. The zero value gives the
// defaults noted per field.
type OnlineConfig struct {
	// HalfLife is the number of observed rounds over which an unrefreshed
	// vertex's empirical access frequency decays to half. Longer half-lives
	// smooth noise but track drift more slowly. <= 0 means 64.
	HalfLife int
}

const (
	// priorWeight scales the static prior against one fresh access: at 1.0
	// the top-ranked setup vertex scores like a vertex accessed once this
	// round, so the VIP head stays resident until the live mix actually
	// outvotes it.
	priorWeight = 1.0
	// degreeWeight scales the degree component inside the prior relative to
	// the setup-ranking component (PaGraph's hybrid).
	degreeWeight = 0.25
)

func (c OnlineConfig) withDefaults() OnlineConfig {
	if c.HalfLife <= 0 {
		c.HalfLife = 64
	}
	return c
}

// Online scores remote vertices by exponentially decayed access frequency
// (hits and misses both count — a cached vertex must keep earning its
// slot) blended with a static prior built from the setup ranking and
// vertex degree. Scores decay lazily (a per-vertex timestamp, not an O(N)
// sweep per round), so Observe costs O(accesses) and Propose
// O(candidates·log candidates) over the vertices ever observed or seeded.
//
// All state updates are single-goroutine and the candidate ordering is
// fully tie-broken (descending score, ascending id), so two runs observing
// the same access streams propose identical memberships.
type Online struct {
	cfg   OnlineConfig
	decay float64 // per-round multiplicative decay, 0.5^(1/HalfLife)
	round uint64

	freq  []float64 // decayed access frequency, valid as of last[v]
	last  []uint64  // round of v's most recent access
	seen  []bool    // v appears in cand
	prior []float64 // priorWeight·(rankPrior + degreeWeight·degPrior)
	cand  []int32   // every vertex ever seeded or observed (append order)
}

// NewOnline builds the scorer for a graph with n vertices. seedRanking is
// the setup-time ranking (descending priority; typically the full static
// ranking, at least the cached prefix) — it seeds the candidate set and
// the rank prior, so a cold scorer proposes roughly the static prefix.
// degrees, when non-nil, supplies per-vertex degrees for the hybrid prior.
func NewOnline(n int, seedRanking []int32, degrees []int32, cfg OnlineConfig) (*Online, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cache: online policy needs positive n, got %d", n)
	}
	cfg = cfg.withDefaults()
	o := &Online{
		cfg:   cfg,
		decay: math.Pow(0.5, 1/float64(cfg.HalfLife)),
		freq:  make([]float64, n),
		last:  make([]uint64, n),
		seen:  make([]bool, n),
		prior: make([]float64, n),
	}
	maxDeg := int32(1)
	for _, d := range degrees {
		if d > maxDeg {
			maxDeg = d
		}
	}
	for i, v := range seedRanking {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("cache: seed ranking vertex %d out of range [0,%d)", v, n)
		}
		if o.seen[v] {
			continue
		}
		o.seen[v] = true
		o.cand = append(o.cand, v)
		rankPrior := float64(len(seedRanking)-i) / float64(len(seedRanking))
		degPrior := 0.0
		if degrees != nil {
			degPrior = float64(degrees[v]) / float64(maxDeg)
		}
		o.prior[v] = priorWeight * (rankPrior + degreeWeight*degPrior)
	}
	return o, nil
}

// Name implements Policy.
func (o *Online) Name() string { return "online" }

// Observe implements Policy: every access (hit or miss) refreshes its
// vertex's decayed frequency by one.
func (o *Online) Observe(a RoundAccess) {
	o.round++
	for _, v := range a.Hits {
		o.bump(v)
	}
	for _, peer := range a.Misses {
		for _, v := range peer {
			o.bump(v)
		}
	}
}

func (o *Online) bump(v int32) {
	o.freq[v] = o.score(v) + 1
	o.last[v] = o.round
	if !o.seen[v] {
		o.seen[v] = true
		o.cand = append(o.cand, v)
	}
}

// score returns v's decayed frequency as of the current round, without the
// prior.
func (o *Online) score(v int32) float64 {
	f := o.freq[v]
	if f == 0 {
		return 0
	}
	if age := o.round - o.last[v]; age > 0 {
		f *= math.Pow(o.decay, float64(age))
	}
	return f
}

// Propose implements Policy: the top-capacity candidates by decayed
// frequency plus prior, ties broken by ascending id.
func (o *Online) Propose(capacity int) []int32 {
	rankByScore(o.cand, func(v int32) float64 { return o.score(v) + o.prior[v] })
	if capacity > len(o.cand) {
		capacity = len(o.cand)
	}
	if capacity < 0 {
		capacity = 0
	}
	return o.cand[:capacity]
}

// Installer drives one store's cache epochs: it owns the policy, the
// epoch builder, and the capacity, counts installs and membership churn,
// and is the single producer of new epochs for its store. The caller
// decides when to propose and performs the actual pointer swap on its
// store.
//
// Serving splits the steps: Propose on the observing goroutine (the policy
// is single-goroutine), the ids copied to a background goroutine that calls
// BuildFor off the gather path, and the observing goroutine installs the
// delivered epoch between rounds. Build and Release may run on different
// goroutines (the builder's pool is thread-safe); only one goroutine may
// build.
type Installer struct {
	policy   Policy
	builder  *EpochBuilder
	capacity int

	installs  atomic.Int64
	churnRows atomic.Int64
}

// NewInstaller wires a policy and builder for a cache of the given
// capacity (rows).
func NewInstaller(policy Policy, builder *EpochBuilder, capacity int) (*Installer, error) {
	if policy == nil || builder == nil {
		return nil, fmt.Errorf("cache: installer needs a policy and a builder")
	}
	if capacity < 0 {
		return nil, fmt.Errorf("cache: negative cache capacity %d", capacity)
	}
	return &Installer{policy: policy, builder: builder, capacity: capacity}, nil
}

// Observe forwards one round's access outcome to the policy.
func (in *Installer) Observe(a RoundAccess) { in.policy.Observe(a) }

// Propose returns the policy's next membership, at most capacity ids.
// Must be called from the observing goroutine; the result may alias
// policy-internal storage — copy it before handing it to a builder
// goroutine.
func (in *Installer) Propose() []int32 { return in.policy.Propose(in.capacity) }

// BuildFor materializes an epoch holding exactly ids, counting churn (the
// newly admitted ids) against cur. Returns (nil, 0, nil) when the
// membership is unchanged from cur's. Callable from a background builder
// goroutine; cur must stay the store's current epoch until the result is
// installed (one outstanding build per installer guarantees this).
func (in *Installer) BuildFor(ids []int32, cur *Epoch) (next *Epoch, churn int, err error) {
	for _, v := range ids {
		if cur == nil || cur.Index == nil || !cur.Index.Has(v) {
			churn++
		}
	}
	if churn == 0 && len(ids) == cur.Len() {
		return nil, 0, nil
	}
	next, err = in.builder.Build(ids)
	if err != nil {
		return nil, 0, err
	}
	in.installs.Add(1)
	in.churnRows.Add(int64(churn))
	return next, churn, nil
}

// Release hands a retired epoch back to the installer's builder.
func (in *Installer) Release(e *Epoch) { in.builder.Release(e) }

// Installs returns the number of epochs built so far.
func (in *Installer) Installs() int64 { return in.installs.Load() }

// ChurnRows returns the cumulative count of newly admitted cache rows
// across all installs.
func (in *Installer) ChurnRows() int64 { return in.churnRows.Load() }

// Live returns the builder's outstanding-epoch gauge.
func (in *Installer) Live() int64 { return in.builder.Live() }
