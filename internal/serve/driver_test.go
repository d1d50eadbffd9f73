package serve

import (
	"sync"
	"testing"
	"time"
)

// TestServeCodecReducesBytes: serving shares its cluster's wire codec.
// The same request set fetches the same remote rows from an fp32 and an
// int8 cluster, while the int8 cluster's serving group ships materially
// fewer bytes.
func TestServeCodecReducesBytes(t *testing.T) {
	run := func(codec string) (remote, bytes int64) {
		cl := serveClusterCodec(t, 2, 0, false, codec) // α=0: every foreign row goes remote
		defer cl.Close()
		srv, err := New(cl, Config{MaxBatch: 16, MaxWait: 50 * time.Millisecond, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		out := make([]float32, srv.Classes())
		for v := int32(0); v < 64; v += 4 {
			if _, err := srv.Predict(v, out); err != nil {
				t.Fatal(err)
			}
		}
		snap := srv.Snapshot()
		return snap.RemoteFetches, snap.BytesSent
	}
	fpRemote, fpBytes := run("fp32")
	i8Remote, i8Bytes := run("int8")
	if fpRemote == 0 {
		t.Fatal("workload produced no remote fetches; codec not exercised")
	}
	if i8Remote != fpRemote {
		t.Fatalf("codec changed remote fetches: %d vs %d", i8Remote, fpRemote)
	}
	if float64(i8Bytes) > 0.6*float64(fpBytes) {
		t.Fatalf("int8 serving shipped %d bytes vs fp32's %d, want a material reduction", i8Bytes, fpBytes)
	}
}

// TestServeMetricsRecordedBeforeReply pins that a round's metrics land
// before its requests are answered: a Snapshot taken as soon as Predict
// returns must already count that round's remote fetches.
func TestServeMetricsRecordedBeforeReply(t *testing.T) {
	cl := serveCluster(t, 2, 0, false) // α=0: every foreign row goes remote
	defer cl.Close()
	srv, err := New(cl, Config{MaxBatch: 16, MaxWait: time.Millisecond, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	out := make([]float32, srv.Classes())
	var want int64
	for v := int32(0); v < 64; v += 4 {
		st, err := srv.Predict(v, out)
		if err != nil {
			t.Fatal(err)
		}
		want += int64(st.RemoteFetch)
		if got := srv.Snapshot().RemoteFetches; got != want {
			t.Fatalf("after vertex %d: snapshot counts %d remote fetches, replies %d", v, got, want)
		}
	}
	if want == 0 {
		t.Fatal("workload produced no remote fetches; nothing was checked")
	}
}

// TestDriverScansO1 is the driver-efficiency regression test: queue scans
// are the driver's per-wake cost, so their count is the busy-loop gauge.
//
//  1. A lone queued request must cost O(1) scans — one discovering it on
//     arrival, one settling after its round — no matter how long its
//     MaxWait admission window stays open.
//  2. A second sub-MaxBatch request arriving inside the window must add
//     zero scans: it cannot move the deadline earlier, so the driver must
//     not wake for it, and the token it raised must not wake the driver
//     into an empty re-scan after the round either. The pre-restructure
//     driver failed this: the stale arrival token plus the self-signal
//     hop cost an extra empty wake+scan per round.
//  3. An idle driver must not scan at all.
func TestDriverScansO1(t *testing.T) {
	cl := serveCluster(t, 2, 0.2, false)
	defer cl.Close()
	const maxWait = 250 * time.Millisecond
	srv, err := New(cl, Config{MaxBatch: 8, MaxWait: maxWait, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	out := make([]float32, srv.Classes())

	// Warm one full round so pools and scratch are established and the
	// driver has settled back to idle.
	if _, err := srv.Predict(3, out); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	// (3) Idle: no traffic, no scans.
	idleBefore := srv.scans.Load()
	time.Sleep(150 * time.Millisecond)
	if got := srv.scans.Load() - idleBefore; got != 0 {
		t.Fatalf("idle driver performed %d scans in 150ms, want 0", got)
	}

	// (1) Lone request: exactly one discovery scan and one settling scan,
	// with the full MaxWait window in between.
	before := srv.scans.Load()
	if _, err := srv.Predict(5, out); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond) // let the post-round scan land
	if got := srv.scans.Load() - before; got > 2 {
		t.Fatalf("lone request cost %d scans, want ≤ 2 (busy loop between arrival and deadline?)", got)
	}

	// (2) A trailing sub-MaxBatch request inside the admission window:
	// still ≤ 2 scans for the whole round trip. The second request's
	// arrival token must not buy a wake of its own — not during the
	// window (the deadline is unchanged) and not after the round (the
	// round already served it).
	before = srv.scans.Load()
	var wg sync.WaitGroup
	predict := func(v int32) {
		defer wg.Done()
		buf := make([]float32, srv.Classes())
		if _, err := srv.Predict(v, buf); err != nil {
			t.Error(err)
		}
	}
	wg.Add(2)
	go predict(5)
	time.Sleep(maxWait / 4) // inside the first request's admission window
	go predict(9)
	wg.Wait()
	time.Sleep(80 * time.Millisecond)
	if got := srv.scans.Load() - before; got > 2 {
		t.Fatalf("windowed request pair cost %d scans, want ≤ 2 (stale-token wake after the round?)", got)
	}
}
