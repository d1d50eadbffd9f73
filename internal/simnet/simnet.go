// Package simnet models network links for the chaos harness's link
// shaping (dist.ChaosConfig.Link): fixed bandwidth with per-round latency,
// plus the token-bucket filter (TBF) queuing discipline the paper uses
// (via Linux tc) to emulate 4 and 8 Gbps networks in Figure 9.
package simnet

// TokenBucket is a classic token-bucket rate limiter over a simulated
// clock: tokens accrue at Rate bytes/second up to Burst bytes; a transfer
// departs when enough tokens have accrued.
type TokenBucket struct {
	Rate  float64 // bytes per second
	Burst float64 // bucket capacity in bytes

	tokens float64
	last   float64
}

// NewTokenBucket returns a full bucket.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if rate <= 0 {
		panic("simnet: token bucket rate must be positive")
	}
	if burst <= 0 {
		burst = rate * 1e-3 // default 1ms worth of burst, like tc tbf
	}
	return &TokenBucket{Rate: rate, Burst: burst, tokens: burst}
}

// Take consumes `bytes` tokens starting at time now (seconds) and returns
// the completion time. Calls must have nondecreasing now.
func (tb *TokenBucket) Take(now float64, bytes int64) float64 {
	if now > tb.last {
		tb.tokens += (now - tb.last) * tb.Rate
		if tb.tokens > tb.Burst {
			tb.tokens = tb.Burst
		}
		tb.last = now
	}
	need := float64(bytes)
	if need <= tb.tokens {
		tb.tokens -= need
		return now
	}
	wait := (need - tb.tokens) / tb.Rate
	tb.tokens = 0
	tb.last = now + wait
	return now + wait
}

// Link is a serialized transmission resource: one transfer at a time, each
// taking bytes/Bandwidth seconds (optionally shaped by a token bucket),
// plus Latency seconds of propagation appended to the completion time.
type Link struct {
	Bandwidth float64 // bytes per second
	Latency   float64 // seconds per message
	Shaper    *TokenBucket

	nextFree float64
}

// NewLink builds a link from gigabits-per-second and latency.
func NewLink(gbps, latencySec float64) *Link {
	return &Link{Bandwidth: gbps * 1e9 / 8, Latency: latencySec}
}

// WithTBF attaches a token-bucket shaper at the given Gbps (Figure 9's
// slow-network emulation) and returns the link.
func (l *Link) WithTBF(gbps float64) *Link {
	rate := gbps * 1e9 / 8
	l.Shaper = NewTokenBucket(rate, rate*2e-3)
	return l
}

// Transfer enqueues a transfer of `bytes` arriving at the link at time
// now; it returns the time the last byte arrives at the receiver.
func (l *Link) Transfer(now float64, bytes int64) float64 {
	start := now
	if l.nextFree > start {
		start = l.nextFree
	}
	var txDone float64
	if l.Bandwidth > 0 {
		txDone = start + float64(bytes)/l.Bandwidth
	} else {
		txDone = start
	}
	if l.Shaper != nil {
		shaped := l.Shaper.Take(start, bytes)
		if shaped > txDone {
			txDone = shaped
		}
	}
	l.nextFree = txDone
	return txDone + l.Latency
}

// Reset clears queuing state (token bucket refills).
func (l *Link) Reset() {
	l.nextFree = 0
	if l.Shaper != nil {
		l.Shaper.tokens = l.Shaper.Burst
		l.Shaper.last = 0
	}
}
