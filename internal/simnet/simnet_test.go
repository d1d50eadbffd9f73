package simnet

import (
	"math"
	"testing"
)

func TestTokenBucketBurstThenDrain(t *testing.T) {
	tb := NewTokenBucket(1000, 500) // 1000 B/s, 500 B burst
	// First 500 bytes go through instantly.
	if done := tb.Take(0, 500); done != 0 {
		t.Fatalf("burst transfer done at %v, want 0", done)
	}
	// Next 1000 bytes must wait a full second of refill.
	if done := tb.Take(0, 1000); math.Abs(done-1.0) > 1e-9 {
		t.Fatalf("drained transfer done at %v, want 1.0", done)
	}
}

func TestTokenBucketRefill(t *testing.T) {
	tb := NewTokenBucket(100, 100)
	tb.Take(0, 100) // empty the bucket
	// After 0.5s, 50 tokens accrued; taking 50 completes immediately.
	if done := tb.Take(0.5, 50); math.Abs(done-0.5) > 1e-9 {
		t.Fatalf("done=%v want 0.5", done)
	}
	// Bucket never exceeds burst.
	if done := tb.Take(100, 100); math.Abs(done-100) > 1e-9 {
		t.Fatalf("done=%v want 100", done)
	}
	if done := tb.Take(100, 150); done <= 100 {
		t.Fatalf("over-burst transfer should wait, done=%v", done)
	}
}

func TestTokenBucketPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTokenBucket(0, 1)
}

func TestLinkSerialization(t *testing.T) {
	l := NewLink(8e-9, 0.1) // 1 byte/sec bandwidth for easy math
	if math.Abs(l.Bandwidth-1) > 1e-12 {
		t.Fatalf("bandwidth=%v", l.Bandwidth)
	}
	// Two 1-byte transfers at t=0: the second queues behind the first.
	d1 := l.Transfer(0, 1)
	d2 := l.Transfer(0, 1)
	if math.Abs(d1-1.1) > 1e-9 {
		t.Fatalf("d1=%v want 1.1 (1s tx + 0.1s latency)", d1)
	}
	if math.Abs(d2-2.1) > 1e-9 {
		t.Fatalf("d2=%v want 2.1 (queued)", d2)
	}
	if math.Abs(l.nextFree-2.0) > 1e-9 {
		t.Fatalf("nextFree=%v want 2.0", l.nextFree)
	}
}

func TestLinkLatencyOnly(t *testing.T) {
	l := NewLink(100, 0.001)
	done := l.Transfer(5, 0)
	if math.Abs(done-5.001) > 1e-9 {
		t.Fatalf("zero-byte transfer done=%v want 5.001", done)
	}
}

func TestLinkWithTBFSlowsBulk(t *testing.T) {
	fast := NewLink(25, 0)
	slow := NewLink(25, 0).WithTBF(4)
	const bytes = 100 << 20 // 100 MiB
	df := fast.Transfer(0, bytes)
	ds := slow.Transfer(0, bytes)
	if ds <= df {
		t.Fatalf("TBF-shaped transfer (%v) not slower than unshaped (%v)", ds, df)
	}
	// Shaped rate should be ~4Gbps: 100MiB at 4Gbps ≈ 0.21s.
	want := float64(bytes) / (4e9 / 8)
	if ds < want*0.9 || ds > want*1.2 {
		t.Fatalf("shaped completion %v, want ≈%v", ds, want)
	}
}

func TestLinkReset(t *testing.T) {
	l := NewLink(1, 0).WithTBF(1)
	l.Transfer(0, 1<<20)
	l.Reset()
	if l.nextFree != 0 {
		t.Fatal("reset did not clear queue")
	}
	if l.Shaper.tokens != l.Shaper.Burst {
		t.Fatal("reset did not refill bucket")
	}
}
