package cache

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// refOnline is the online scorer with the refresh Online replaced: the
// same observation state, decayed by math.Pow on every call, and a Propose
// that fully sorts the candidates with a comparator scoring both ids.
// Online.Propose must return exactly its slices.
type refOnline struct {
	decay  float64
	round  uint64
	lo, hi int32
	freq   []float64
	last   []uint64
	seen   []bool
	prior  []float64
	cand   []int32
}

// newRefOnline copies the seeded state of a freshly built o.
func newRefOnline(o *Online) *refOnline {
	return &refOnline{
		decay: o.decay,
		lo:    o.lo,
		hi:    o.hi,
		freq:  make([]float64, len(o.freq)),
		last:  make([]uint64, len(o.last)),
		seen:  slices.Clone(o.seen),
		prior: slices.Clone(o.prior),
		cand:  slices.Clone(o.cand),
	}
}

func (r *refOnline) observe(ids []int32) {
	r.round++
	for _, v := range ids {
		if v < r.lo || v >= r.hi {
			r.freq[v] = r.score(v) + 1
			r.last[v] = r.round
			if !r.seen[v] {
				r.seen[v] = true
				r.cand = append(r.cand, v)
			}
		}
	}
}

func (r *refOnline) score(v int32) float64 {
	f := r.freq[v]
	if f == 0 {
		return 0
	}
	if age := r.round - r.last[v]; age > 0 {
		f *= math.Pow(r.decay, float64(age))
	}
	return f
}

func (r *refOnline) propose(capacity int) []int32 {
	slices.SortFunc(r.cand, func(a, b int32) int {
		if sa, sb := r.score(a)+r.prior[a], r.score(b)+r.prior[b]; sa != sb {
			return cmp.Compare(sb, sa)
		}
		return cmp.Compare(a, b)
	})
	if capacity > len(r.cand) {
		capacity = len(r.cand)
	}
	if capacity < 0 {
		capacity = 0
	}
	return r.cand[:capacity]
}

// TestProposeMatchesFullSortReference drives Online and the full-sort
// reference through long random streams and requires identical proposals,
// id for id and position for position, after every Observe and at every
// capacity from below zero to past the candidate count. The streams hold
// exact ties (ids that are always accessed together, equal priors, equal
// degrees), seed rankings with duplicates and with ids of the rank's own
// interval, and, at HalfLife 1, vertices left unaccessed long enough that
// their decay factor passes math.Pow's zero point.
func TestProposeMatchesFullSortReference(t *testing.T) {
	cases := []struct {
		name     string
		n        int
		lo, hi   int32
		seed     []int32
		degrees  bool
		halfLife int
		rounds   int
	}{
		{name: "halflife1-past-zero", n: 240, lo: 60, hi: 90, seed: []int32{5, 70, 5, 200, 71, 3, 3, 239, 0}, degrees: true, halfLife: 1, rounds: 1300},
		{name: "halflife4-unseeded", n: 200, lo: 0, hi: 0, halfLife: 4, rounds: 400},
		{name: "default-halflife", n: 300, lo: 250, hi: 300, seed: []int32{10, 260, 11, 12, 10, 299, 13}, degrees: true, rounds: 300},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var degrees []int32
			if tc.degrees {
				degrees = make([]int32, tc.n)
				for v := range degrees {
					degrees[v] = int32(v%3 + 1)
				}
			}
			o, err := NewOnline(tc.n, tc.lo, tc.hi, tc.seed, degrees, OnlineConfig{HalfLife: tc.halfLife})
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefOnline(o)
			rng := rand.New(rand.NewPCG(uint64(tc.n), uint64(tc.halfLife)))
			var ids []int32
			for round := 0; round < tc.rounds; round++ {
				ids = ids[:0]
				// A hot window drifting over the even ids of the lower
				// half, each accessed with its odd neighbour: the pair
				// ties on frequency and age, and on prior unless the seed
				// separates them.
				half := tc.n / 2
				base := round / 7 * 6 % half
				for i := 0; i < 6; i += 2 {
					v := int32((base + i) % half &^ 1)
					ids = append(ids, v, v+1)
				}
				// Uniform ids, including the own interval: over all ids in
				// the first 200 rounds, then over the lower half only, so
				// the upper half's ages grow past the zero point in a long
				// stream.
				extra, span := 8, tc.n
				if round >= 200 {
					extra, span = 2, half
				}
				for range extra {
					ids = append(ids, int32(rng.IntN(span)))
				}
				rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
				o.Observe(ids)
				ref.observe(ids)

				want := ref.propose(len(ref.cand) + 5)
				n := len(want)
				for _, c := range []int{-1, 0, 1, n / 3, rng.IntN(n + 1), n - 1, n, n + 5} {
					got := o.Propose(c)
					w := want[:max(0, min(c, n))]
					if !slices.Equal(got, w) {
						t.Fatalf("round %d, capacity %d: Propose = %v, reference %v", round, c, got, w)
					}
				}
			}
			if tc.halfLife == 1 {
				zero := uint64(len(o.pow) - 1) // the first age Pow rounds to 0
				past := 0
				for _, v := range o.cand {
					if o.freq[v] > 0 && o.round-o.last[v] >= zero {
						past++
					}
				}
				if past < 20 {
					t.Fatalf("only %d candidates aged past the decay's zero point at age %d", past, zero)
				}
			}
		})
	}
}

// TestDecayFactorMatchesPow: the decay table gives math.Pow(decay, age) bit
// for bit at every age it holds; where it ends at Pow's zero point, Pow
// stays exactly 0 to four times that age, so the 0 decayFactor returns past
// the table is Pow's value too; where it is capped first, decayFactor falls
// back to Pow.
func TestDecayFactorMatchesPow(t *testing.T) {
	// At HalfLife 16 Pow's first zero is at age 17 201, one past
	// 1 075·HalfLife: the table is sized by Pow, not by that estimate.
	for _, h := range []int{1, 4, 16, 64, 200} {
		o, err := NewOnline(1, 0, 0, nil, nil, OnlineConfig{HalfLife: h})
		if err != nil {
			t.Fatal(err)
		}
		size := len(o.pow)
		for a := range size {
			if got, want := o.decayFactor(uint64(a)), math.Pow(o.decay, float64(a)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("HalfLife %d, age %d: table %v, math.Pow %v", h, a, got, want)
			}
		}
		if o.pow[size-1] != 0 {
			if size != maxDecayAges {
				t.Fatalf("HalfLife %d: the table ends at %d ages, short of both its cap and Pow's zero point", h, size)
			}
			for a := uint64(size); a < uint64(size)+1000; a++ {
				if got, want := o.decayFactor(a), math.Pow(o.decay, float64(a)); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("HalfLife %d, age %d past the capped table: %v, math.Pow %v", h, a, got, want)
				}
			}
			continue
		}
		if size > 1076*h {
			t.Errorf("HalfLife %d: the table holds %d ages, past 1 076·HalfLife", h, size)
		}
		for a := size; a <= 4*size; a++ {
			if p := math.Pow(o.decay, float64(a)); p != 0 {
				t.Fatalf("HalfLife %d: math.Pow(decay, %d) = %v after the table's zero at age %d", h, a, p, size-1)
			}
			if f := o.decayFactor(uint64(a)); f != 0 {
				t.Fatalf("HalfLife %d: decayFactor(%d) = %v past the table, want 0", h, a, f)
			}
		}
	}
}

// BenchmarkOnlinePropose times one online refresh's proposal at the size
// of the benchmark's serve.drift workload: 60 000 vertices, 33 000
// candidates with spread ages, capacity 2 400, the default HalfLife. The
// candidate order is shuffled between calls (outside the timer), as the
// rounds between two refreshes reorder scores.
func BenchmarkOnlinePropose(b *testing.B) {
	const n, own, capacity = 60000, 27000, 2400
	rng := rand.New(rand.NewPCG(7, 7))
	seed := make([]int32, capacity)
	for i := range seed {
		seed[i] = int32(own + i*13%(n-own))
	}
	o, err := NewOnline(n, 0, own, seed, nil, OnlineConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]int32, 1000)
	for round := range 256 {
		for i := range ids {
			if i < 300 {
				ids[i] = int32(own + (round*37+i)%(n-own)) // a drifting hot window
			} else {
				ids[i] = int32(own + rng.IntN(n-own))
			}
		}
		o.Observe(ids)
	}
	shuffle := func(i, j int) { o.cand[i], o.cand[j] = o.cand[j], o.cand[i] }
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		rng.Shuffle(len(o.cand), shuffle)
		b.StartTimer()
		o.Propose(capacity)
	}
	b.ReportMetric(float64(len(o.cand)), "candidates")
}
