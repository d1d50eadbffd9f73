// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the SALIENT++ reproduction.
//
// The generator is xoshiro256** seeded through SplitMix64, the combination
// recommended by Blackman and Vigna. It is not cryptographically secure; it
// is chosen for speed, quality, and — critically for reproducible
// experiments — cheap splitting: every sampler worker, epoch, and minibatch
// derives an independent stream from a (seed, stream) pair, so results are
// identical regardless of goroutine scheduling.
package rng

import "math"

// RNG is a xoshiro256** generator. The zero value is not usable; construct
// instances with New or Split.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances a SplitMix64 state and returns the next output.
// It is used to expand seeds into full xoshiro state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Distinct seeds give independent
// streams; the same seed always gives the same stream.
func New(seed uint64) *RNG {
	var r RNG
	sm := seed
	r.s0 = splitmix64(&sm)
	r.s1 = splitmix64(&sm)
	r.s2 = splitmix64(&sm)
	r.s3 = splitmix64(&sm)
	return &r
}

// Split derives an independent generator from r identified by stream.
// Calling Split with the same stream on generators in the same state yields
// identical children, which makes parallel sampling deterministic: worker i
// uses parent.Split(uint64(i)).
func (r *RNG) Split(stream uint64) *RNG {
	c := new(RNG)
	r.SplitInto(stream, c)
	return c
}

// SplitInto writes the child stream Split(stream) would return into dst
// without allocating — the long-running serving loop derives one child per
// round this way, keeping its steady state allocation-free.
func (r *RNG) SplitInto(stream uint64, dst *RNG) {
	// Mix the parent state with the stream id through SplitMix64 so that
	// nearby stream ids yield unrelated child states.
	sm := r.s0 ^ (stream+1)*0x9e3779b97f4a7c15
	dst.s0 = splitmix64(&sm)
	sm ^= r.s1
	dst.s1 = splitmix64(&sm)
	sm ^= r.s2
	dst.s2 = splitmix64(&sm)
	sm ^= r.s3
	dst.s3 = splitmix64(&sm)
}

// State returns the generator's internal xoshiro256** state. Together with
// SetState it lets checkpoints capture and restore a stream mid-sequence so
// resumed runs draw exactly the numbers the uninterrupted run would have.
func (r *RNG) State() [4]uint64 {
	return [4]uint64{r.s0, r.s1, r.s2, r.s3}
}

// SetState overwrites the generator's internal state with one previously
// returned by State.
func (r *RNG) SetState(s [4]uint64) {
	r.s0, r.s1, r.s2, r.s3 = s[0], s[1], s[2], s[3]
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// It uses Lemire's multiply-shift rejection method, which avoids modulo
// bias without a division in the common case.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := mul64(x, bound)
		if lo < bound {
			// Rejection zone: recompute threshold only on the slow path.
			threshold := -bound % bound
			if lo < threshold {
				continue
			}
		}
		return int(hi)
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	lo1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + lo1>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// NormFloat64 returns a standard normal variate using the polar
// Box–Muller transform. One of the pair is discarded for simplicity.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := float64(u*u) + float64(v*v) // conversions: no arm64 FMA
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a uniformly random permutation of [0, n) as int32 values.
func (r *RNG) Perm(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	r.ShuffleInt32(p)
	return p
}

// ShuffleInt32 permutes s uniformly at random in place (Fisher–Yates).
func (r *RNG) ShuffleInt32(s []int32) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// SampleK fills dst with k distinct uniform values from [0, n) and returns
// it. It panics if k > n. For small k relative to n it uses Floyd's
// algorithm; otherwise it falls back to a partial Fisher–Yates shuffle.
// The result order is unspecified but deterministic given the RNG state.
func (r *RNG) SampleK(dst []int32, k, n int) []int32 {
	if k > n {
		panic("rng: SampleK with k > n")
	}
	dst = dst[:0]
	if k == 0 {
		return dst
	}
	// Floyd's algorithm needs a membership test; for the tiny k used by
	// neighborhood sampling (fanouts <= ~25) a linear scan over dst is
	// faster than a map and allocation-free.
	if k <= 64 || k*8 < n {
		for j := n - k; j < n; j++ {
			t := int32(r.Intn(j + 1))
			found := false
			for _, x := range dst {
				if x == t {
					found = true
					break
				}
			}
			if found {
				t = int32(j)
			}
			dst = append(dst, t)
		}
		return dst
	}
	perm := r.Perm(n)
	return append(dst, perm[:k]...)
}
