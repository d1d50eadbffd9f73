package dist

import (
	"runtime"
	"testing"
	"time"

	"salientpp/internal/cache"
	"salientpp/internal/tensor"
)

// waitGoroutines polls until the goroutine count drops back to at most
// baseline+slack, failing the test otherwise — the same leak-regression
// pattern as pipeline/failure_test.go.
func waitGoroutines(t *testing.T, baseline, slack int, context string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("%s leaked goroutines: %d > baseline %d\n%s",
				context, runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// testAbortUnblocksGather blocks a Gather mid-collective (the peer never
// issues its matching call) and fires the abort channel installed with
// SetAbort: the in-flight gather must unwind promptly instead of
// deadlocking — the guarantee an online-serving loop relies on at
// shutdown.
func testAbortUnblocksGather(t *testing.T, mk func(k int) ([]Comm, error)) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	const n, dim = 32, 4
	comms, err := mk(2)
	if err != nil {
		t.Fatal(err)
	}
	defer comms[0].Close()
	defer comms[1].Close()
	layout, err := NewLayout([]int64{0, n / 2, n})
	if err != nil {
		t.Fatal(err)
	}
	local := tensor.New(n/2, dim)
	st, err := NewStore(comms[0], layout, dim, local, nil)
	if err != nil {
		t.Fatal(err)
	}
	abort := make(chan struct{})
	st.SetAbort(abort)

	// Request a remote row so the gather really blocks on rank 1, which
	// never answers.
	ids := []int32{n/2 + 1}
	done := make(chan error, 1)
	go func() {
		_, _, err := st.Gather(ids)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("gather finished without a peer: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(abort)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("aborted gather returned no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("gather still blocked 5s after abort: SetAbort did not unwind the collective")
	}
	// The group is torn down: future collectives fail instead of hanging.
	if _, _, err := st.Gather(ids); err == nil {
		t.Fatal("gather on an aborted group succeeded")
	}
	// Leak regression: both aborted gathers must hand their pooled output
	// matrices back (before the failGather cleanup they leaked from the
	// store pool), and every transport goroutine — abort watcher included
	// — must unwind once the group is closed.
	if live := st.Live(); live != 0 {
		t.Fatalf("aborted gathers leaked %d pooled matrices", live)
	}
	comms[0].Close()
	comms[1].Close()
	waitGoroutines(t, baseline, 2, "abort path")
}

func TestSetAbortUnblocksGatherLocal(t *testing.T) { testAbortUnblocksGather(t, NewLocalGroup) }
func TestSetAbortUnblocksGatherTCP(t *testing.T)   { testAbortUnblocksGather(t, NewTCPGroup) }

// TestSetAbortDetach verifies that replacing the abort channel detaches
// the previous watcher: firing the old channel afterwards must not tear
// the group down.
func TestSetAbortDetach(t *testing.T) {
	comms, err := NewLocalGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	defer comms[0].Close()
	old := make(chan struct{})
	comms[0].SetAbort(old)
	comms[0].SetAbort(nil)
	close(old)
	time.Sleep(10 * time.Millisecond) // give a leaked watcher time to misbehave
	if _, err := comms[0].AllToAll([][]byte{nil}); err != nil {
		t.Fatalf("group torn down by a detached abort channel: %v", err)
	}
}

// TestSiblingSharesDataNotScratch checks the concurrent read path: a
// sibling store over a second communicator group returns identical rows
// and classification while the original store keeps gathering.
func TestSiblingSharesDataNotScratch(t *testing.T) {
	const n, dim = 64, 8
	mkStore := func(comms []Comm) *Store {
		layout, err := NewLayout([]int64{0, n})
		if err != nil {
			t.Fatal(err)
		}
		local := tensor.New(n, dim)
		for i := range local.Data {
			local.Data[i] = float32(i)
		}
		st, err := NewStore(comms[0], layout, dim, local, nil)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	comms, err := NewLocalGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	defer comms[0].Close()
	st := mkStore(comms)
	comms2, err := NewLocalGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	defer comms2[0].Close()
	sib, err := st.Sibling(comms2[0])
	if err != nil {
		t.Fatal(err)
	}

	ids := []int32{1, 40, 63, 0}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 50; i++ {
			out, _, err := st.Gather(ids)
			if err != nil {
				done <- err
				return
			}
			st.Release(out)
		}
		done <- nil
	}()
	for i := 0; i < 50; i++ {
		out, stats, err := sib.Gather(ids)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Local != len(ids) {
			t.Fatalf("sibling misclassified: %+v", stats)
		}
		for r, v := range ids {
			for c := 0; c < dim; c++ {
				if out.At(r, c) != float32(int(v)*dim+c) {
					t.Fatalf("sibling row %d wrong", r)
				}
			}
		}
		sib.Release(out)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestSiblingStartsOnSetupEpoch: a sibling classifies against the store's
// setup epoch, not against whatever epoch the store has installed since —
// a training store's scheduled epochs are transient and recycled.
func TestSiblingStartsOnSetupEpoch(t *testing.T) {
	const n, dim = 8, 3
	layout, err := NewLayout([]int64{0, n / 2, n})
	if err != nil {
		t.Fatal(err)
	}
	epochOf := func(v int32) *cache.Epoch {
		idx, err := cache.Build([]int32{v}, n)
		if err != nil {
			t.Fatal(err)
		}
		rows := tensor.New(1, dim)
		for j := range rows.Data {
			rows.Data[j] = float32(int(v)*10 + j)
		}
		return &cache.Epoch{Index: idx, Rows: rows}
	}
	setup, other := epochOf(5), epochOf(6)
	st, err := NewStore(&echoComm{}, layout, dim, tensor.New(n/2, dim), setup)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.InstallEpoch(other); err != nil {
		t.Fatal(err)
	}
	sib, err := st.Sibling(&echoComm{})
	if err != nil {
		t.Fatal(err)
	}
	if sib.Epoch() != setup || sib.SetupEpoch() != setup || st.Epoch() != other {
		t.Fatalf("sibling on gen %d, parent on gen %d: want the setup epoch and the installed one", sib.CacheGen(), st.CacheGen())
	}
	out, stats := sib.GatherLocal([]int32{5, 6})
	defer sib.Release(out)
	if stats.CacheHits != 1 || stats.Missing != 1 {
		t.Fatalf("sibling classified %+v, want vertex 5 a hit and 6 missing", stats)
	}
	if err := accountingErr(2, stats); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < dim; j++ {
		if out.At(0, j) != float32(50+j) {
			t.Fatalf("sibling row for vertex 5 col %d = %v, want the setup row", j, out.At(0, j))
		}
	}
}
