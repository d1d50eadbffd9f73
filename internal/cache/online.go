package cache

// The online cache layer: where the Rankers of policy.go decide the cache
// once at setup, Online watches the live gather stream and keeps proposing
// new cache epochs, closing the gap between a frozen prefix and a drifting
// request mix (the ROADMAP's "adaptive caching" item; PaGraph's
// degree/priority hybrid is the prior it blends in).

import (
	"fmt"
	"math"
)

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
// sweep per round; the decay factor of every age is looked up in a table),
// so Observe costs O(accesses) and Propose O(candidates + capacity·log
// capacity) over the vertices ever observed or seeded: it scores each
// candidate once and selects the top capacity rather than sorting them all.
//
// One Online serves one install stream (one rank's store), whose own
// partition interval it skips: the rank's own rows are never cached. Calls
// are made from a single goroutine in round order.
//
// Determinism contract: Propose is a pure function of the observation
// history and the construction parameters — the candidate ordering is fully
// tie-broken (descending score, ascending id) — so two runs observing the
// same access streams propose identical memberships. Serving relies on this
// for bitwise cross-transport reproducibility.
type Online struct {
	cfg   OnlineConfig
	decay float64 // per-round multiplicative decay, 0.5^(1/HalfLife)
	round uint64
	lo    int32 // the rank's own ids [lo, hi), which Observe skips
	hi    int32

	freq  []float64 // decayed access frequency, valid as of last[v]
	last  []uint64  // round of v's most recent access
	seen  []bool    // v appears in cand
	prior []float64 // priorWeight·(rankPrior + degreeWeight·degPrior)
	cand  []int32   // every vertex ever seeded or observed (in no set order)

	pow    []float64  // pow[a] = math.Pow(decay, a); see decayFactor
	scored []scoredID // Propose's scratch: one scored pair per candidate
}

// maxDecayAges caps the decay table at 1 MiB. math.Pow(decay, a) is
// exactly 0 from about 1 075·HalfLife rounds on (68 800 at the default
// HalfLife of 64), so the table reaches that point for every HalfLife up
// to 121.
const maxDecayAges = 1 << 17

// decayTable returns math.Pow(decay, a) for a = 0, 1, … up to and including
// the first age at which it is exactly 0, or maxDecayAges entries if that
// comes first.
func decayTable(decay float64, halfLife int) []float64 {
	pow := make([]float64, 0, min(1076*halfLife, maxDecayAges))
	for a := 0; a < maxDecayAges; a++ {
		p := math.Pow(decay, float64(a))
		pow = append(pow, p)
		if p == 0 {
			break
		}
	}
	return pow
}

// NewOnline builds the scorer for a graph with n vertices, for the rank
// that owns the ids [lo, hi). seedRanking is the setup-time ranking
// (descending priority; typically the full static ranking, at least the
// cached prefix) — it seeds the candidate set and the rank prior, so a cold
// scorer proposes roughly the static prefix. degrees, when non-nil,
// supplies per-vertex degrees for the hybrid prior.
func NewOnline(n int, lo, hi int32, seedRanking []int32, degrees []int32, cfg OnlineConfig) (*Online, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cache: online policy needs positive n, got %d", n)
	}
	if lo < 0 || lo > hi || int(hi) > n {
		return nil, fmt.Errorf("cache: owned interval [%d,%d) outside [0,%d)", lo, hi, n)
	}
	cfg = cfg.withDefaults()
	decay := math.Pow(0.5, 1/float64(cfg.HalfLife))
	o := &Online{
		cfg:   cfg,
		decay: decay,
		pow:   decayTable(decay, cfg.HalfLife),
		lo:    lo,
		hi:    hi,
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
		o.prior[v] = priorWeight * (rankPrior + float64(degreeWeight*degPrior)) // conversion: no arm64 FMA
	}
	return o, nil
}

// Observe folds one round into the scorer: ids are the ids the round
// gathered (its MFG input ids). Every id outside the rank's own interval —
// a cache hit or a remote fetch — refreshes its vertex's decayed frequency
// by one; the order of ids does not matter, because each access only
// bumps its own vertex and Propose breaks every tie. Called once per round,
// including empty rounds (it advances the scorer's clock). ids is read,
// never retained.
func (o *Online) Observe(ids []int32) {
	o.round++
	for _, v := range ids {
		if v < o.lo || v >= o.hi {
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
	return float64(f * o.decayFactor(o.round-o.last[v])) // conversion: no arm64 FMA
}

// decayFactor returns math.Pow(o.decay, age), bit for bit. Past the table
// it is 0 when the table ran to Pow's zero point, since Pow stays 0 for
// every older age (TestDecayFactorMatchesPow), and Pow itself when the
// table was capped first.
func (o *Online) decayFactor(age uint64) float64 {
	if age < uint64(len(o.pow)) {
		return o.pow[age]
	}
	if o.pow[len(o.pow)-1] == 0 {
		return 0
	}
	return math.Pow(o.decay, float64(age))
}

// Propose returns the membership of the next cache epoch: the
// top-capacity candidates by decayed frequency plus prior, ties broken by
// ascending id, in that order. It scores every candidate once and selects
// the top capacity (selectTop), so a refresh costs O(candidates) plus a
// sort of the proposal, and a warm one allocates nothing. The result
// aliases scorer storage, valid until the next Observe or Propose.
func (o *Online) Propose(capacity int) []int32 {
	capacity = max(0, min(capacity, len(o.cand)))
	s := o.scored[:0]
	for _, v := range o.cand {
		s = append(s, scoredID{o.score(v) + o.prior[v], v})
	}
	o.scored = s
	selectTop(s, capacity)
	for i, c := range s {
		o.cand[i] = c.id
	}
	return o.cand[:capacity]
}
