//go:build !race

package dist

import "testing"

// TestTCPAllToAllRecyclesReceiveBuffers: a warm two-rank AllToAll of
// 512 KiB each way reads every frame into its peer's kept buffer, so what
// it allocates per call is the writers' bookkeeping, not the payload. It
// lives here because the race runtime makes allocation counts unreliable.
func TestTCPAllToAllRecyclesReceiveBuffers(t *testing.T) {
	comms, err := NewTCPGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()
	payload := make([]byte, 512<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	sends := [2][][]byte{{nil, payload}, {payload, nil}}
	op := func() error {
		errc := make(chan error, 1)
		go func() {
			_, err := comms[1].AllToAll(sends[1])
			errc <- err
		}()
		recv, err := comms[0].AllToAll(sends[0])
		if err2 := <-errc; err == nil {
			err = err2
		}
		if err == nil && len(recv[1]) != len(payload) {
			t.Errorf("received %d bytes, sent %d", len(recv[1]), len(payload))
		}
		return err
	}
	if err := op(); err != nil { // warm: the receive buffers grow to fit
		t.Fatal(err)
	}
	var opErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N && opErr == nil; i++ {
			opErr = op()
		}
	})
	if opErr != nil {
		t.Fatal(opErr)
	}
	if got := res.AllocedBytesPerOp(); got >= 4<<10 {
		t.Fatalf("warm 512 KiB AllToAll allocated %d bytes per op (%d objects), want < 4 KiB", got, res.AllocsPerOp())
	}
}
