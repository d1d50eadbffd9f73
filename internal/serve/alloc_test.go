package serve

import (
	"testing"
	"time"
)

// TestServeAllocationFree is the allocation-regression guard for the warm
// serving loop: pooled requests, reused round scratch, the in-place
// per-round RNG split, pooled MFG arenas, the store's pooled gather
// output, the frozen model's arena, and lock-free histogram observation.
// A single-rank deployment keeps the assertion deterministic — cross-rank
// payloads pay exactly one transport-owned copy per collective, the
// documented floor (see TestGatherAllocationFree in internal/dist).
func TestServeAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates on the goroutine handoffs the serving loop crosses by design")
	}
	// The deadline variant keeps the same guarantee with admission control,
	// the snapshot-time shed filter, the round-time median, the adaptive
	// batch controller, and the per-collective gather deadline all active —
	// resilience bookkeeping must cost zero allocations on the warm path.
	cfgs := map[string]Config{
		"fixed":    {MaxBatch: 4, MaxWait: -1, Seed: 2},
		"deadline": {MaxBatch: 4, MaxWait: -1, Seed: 2, Deadline: time.Minute},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			cl := serveCluster(t, 1, 0, false)
			defer cl.Close()
			// MaxWait < 0: fire a round as soon as a request arrives, so the
			// measured loop is Predict → round → reply with no timer involved.
			srv, err := New(cl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			out := make([]float32, srv.Classes())
			verts := []int32{3, 200, 731, 48}
			step := func() {
				for _, v := range verts {
					if _, err := srv.Predict(v, out); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < 5; i++ {
				step() // warm every pool and high-water-mark buffer
			}
			allocs := testing.AllocsPerRun(50, step)
			if allocs != 0 {
				t.Fatalf("warm serving loop allocated %.2f times per %d requests, want 0", allocs, len(verts))
			}
		})
	}
}

// BenchmarkPredict measures single-client closed-loop serving latency on
// one rank; run with -benchmem to confirm 0 B/op at steady state.
func BenchmarkPredict(b *testing.B) {
	cl := serveCluster(b, 1, 0, false)
	defer cl.Close()
	srv, err := New(cl, Config{MaxBatch: 4, MaxWait: -1, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	out := make([]float32, srv.Classes())
	if _, err := srv.Predict(1, out); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Predict(int32(i%1000), out); err != nil {
			b.Fatal(err)
		}
	}
}
