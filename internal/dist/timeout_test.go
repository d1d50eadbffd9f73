package dist

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"salientpp/internal/tensor"
)

// testAllToAllTimeout pins the SetTimeout contract on a transport: a
// collective blocked on a silent peer fails with ErrTimeout within the
// bound (never hangs), and the group is poisoned afterwards.
func testAllToAllTimeout(t *testing.T, mk func(k int) ([]Comm, error)) {
	t.Helper()
	comms, err := mk(2)
	if err != nil {
		t.Fatal(err)
	}
	defer comms[0].Close()
	defer comms[1].Close()
	comms[0].SetTimeout(60 * time.Millisecond)

	done := make(chan error, 1)
	go func() {
		// Rank 1 never issues its matching collective.
		_, err := comms[0].AllToAll([][]byte{nil, []byte("payload")})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("blocked AllToAll returned %v, want ErrTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AllToAll ignored its 60ms timeout for 5s")
	}
	// A timeout poisons the group on both transports; a retry must fail
	// fast rather than exchange bytes with a stream in an unknown state.
	errCh := make(chan error, 1)
	go func() {
		_, err := comms[0].AllToAll([][]byte{nil, []byte("retry")})
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("AllToAll succeeded on a timed-out group")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AllToAll on a timed-out group hung")
	}
}

func TestAllToAllTimeoutLocal(t *testing.T) { testAllToAllTimeout(t, NewLocalGroup) }
func TestAllToAllTimeoutTCP(t *testing.T)   { testAllToAllTimeout(t, NewTCPGroup) }

// TestGatherTimeoutUnblocksStore is the serving-path version: a Gather
// blocked on a stalled peer fails with ErrTimeout within the bound and
// hands its pooled output back.
func TestGatherTimeoutUnblocksStore(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const n, dim = 32, 4
	comms, err := NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer comms[0].Close()
	defer comms[1].Close()
	layout, err := NewLayout([]int64{0, n / 2, n})
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(comms[0], layout, dim, tensor.New(n/2, dim), nil)
	if err != nil {
		t.Fatal(err)
	}
	comms[0].SetTimeout(60 * time.Millisecond)

	done := make(chan error, 1)
	go func() {
		_, _, err := st.Gather([]int32{n/2 + 1}) // remote row; rank 1 never answers
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("stalled gather returned %v, want ErrTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("gather ignored its 60ms timeout for 5s")
	}
	if live := st.Live(); live != 0 {
		t.Fatalf("timed-out gather leaked %d pooled matrices", live)
	}
	comms[0].Close()
	comms[1].Close()
	waitGoroutines(t, baseline, 2, "gather timeout")
}

// TestTCPHelloReadTimeout is the half-open-peer regression: a dialer that
// connects but never identifies itself must fail the handshake within the
// setup bound instead of wedging the accept side forever (before the fix,
// readHello's io.ReadFull had no deadline).
func TestTCPHelloReadTimeout(t *testing.T) {
	saved := tcpSetupTimeout
	tcpSetupTimeout = 100 * time.Millisecond
	defer func() { tcpSetupTimeout = saved }()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	rogue, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rogue.Close() // connected, but never writes its hello byte
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	done := make(chan error, 1)
	go func() {
		_, err := readHello(conn)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("readHello succeeded without a hello byte")
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("readHello failed with %v, want a deadline error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("readHello hung on a half-open peer: the setup deadline is not applied")
	}
}

// TestGatherLocalZeroFillsMissing checks the degraded gather: local and
// cached rows resolve normally, unreachable remote rows zero-fill even
// when the pooled output matrix holds a previous batch's values, and
// Missing counts exactly the zero-filled rows.
func TestGatherLocalZeroFillsMissing(t *testing.T) {
	const n, dim = 16, 4
	comms, err := NewLocalGroup(2)
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
	for i := range local.Data {
		local.Data[i] = float32(i + 1)
	}
	st, err := NewStore(comms[0], layout, dim, local, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Dirty the pool: a local-only gather fills the matrix with nonzero
	// features, then releases it for reuse.
	out, _ := st.GatherLocal([]int32{0, 1, 2})
	st.Release(out)

	ids := []int32{1, int32(n/2) + 3, 3} // local, missing-remote, local
	out, stats := st.GatherLocal(ids)
	defer st.Release(out)
	if stats.Missing != 1 || stats.Local != 2 {
		t.Fatalf("classification: %+v", stats)
	}
	if err := accountingErr(len(ids), stats); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < dim; c++ {
		if got := out.At(1, c); got != 0 {
			t.Fatalf("missing row not zero-filled: out[1][%d] = %v (stale pool bytes?)", c, got)
		}
		if out.At(0, c) != local.At(1, c) || out.At(2, c) != local.At(3, c) {
			t.Fatal("local rows wrong")
		}
	}
}
