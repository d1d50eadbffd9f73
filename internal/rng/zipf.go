package rng

import "math"

// Zipf draws integers k in [0, n) with probability proportional to
// (1+k)^-s, s > 1 — the skewed access pattern of real inference traffic,
// where a small set of hot vertices absorbs most requests. It uses
// Hörmann's rejection-inversion method: invert the continuous envelope
// H(x) = ((1+x)^(1-s))/(1-s), then accept or reject the rounded candidate
// against the true mass, so sampling is O(1) per draw with no precomputed
// table regardless of n. Draws consume the supplied RNG stream, keeping
// workloads reproducible under the usual (seed, stream) splitting.
type Zipf struct {
	r              *RNG
	s              float64
	oneMinusS      float64
	oneMinusSInv   float64
	hImaxHalf      float64 // H(imax + 1/2)
	hHalfMinusMass float64 // H(1/2) - p(0): top of the inversion range
	guard          float64 // acceptance shortcut for the dense head
	imax           float64
}

// NewZipf returns a Zipf sampler over [0, n) with exponent s. It panics if
// s <= 1 or n == 0 (the envelope integral requires s > 1; use s = 1+ε for
// near-harmonic workloads).
func NewZipf(r *RNG, s float64, n uint64) *Zipf {
	if s <= 1 {
		panic("rng: Zipf exponent must be > 1")
	}
	if n == 0 {
		panic("rng: Zipf over an empty range")
	}
	z := &Zipf{
		r:            r,
		s:            s,
		oneMinusS:    1 - s,
		oneMinusSInv: 1 / (1 - s),
		imax:         float64(n - 1),
	}
	z.hImaxHalf = z.h(z.imax + 0.5)
	z.hHalfMinusMass = z.h(0.5) - 1 // p(0) = (1+0)^-s = 1
	z.guard = 1 - z.hInv(z.h(1.5)-math.Exp(-s*math.Log(2)))
	return z
}

// h is the envelope antiderivative H(x) = (1+x)^(1-s) / (1-s).
func (z *Zipf) h(x float64) float64 {
	return math.Exp(z.oneMinusS*math.Log1p(x)) * z.oneMinusSInv
}

// hInv is H⁻¹(y).
func (z *Zipf) hInv(y float64) float64 {
	return math.Expm1(math.Log(z.oneMinusS*y) * z.oneMinusSInv)
}

// Uint64 returns the next Zipf-distributed value in [0, n).
func (z *Zipf) Uint64() uint64 {
	for {
		u := z.hImaxHalf + float64(z.r.Float64()*(z.hHalfMinusMass-z.hImaxHalf)) // conversion: no arm64 FMA
		x := z.hInv(u)
		k := math.Floor(x + 0.5)
		if k-x <= z.guard {
			return uint64(k)
		}
		if u >= z.h(k+0.5)-math.Exp(-z.s*math.Log1p(k)) {
			return uint64(k)
		}
	}
}
