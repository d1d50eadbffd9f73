package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// ErrTimeout marks a collective that exceeded the deadline installed with
// SetTimeout. Callers distinguish it from hard transport failures with
// errors.Is: a timed-out member may still be alive (a stalled NIC, a slow
// peer), so a serving loop treats it as "degrade and regroup" rather than
// "rank dead". A timeout nonetheless poisons the group on both transports
// — a TCP deadline can strike mid-frame, leaving the stream unframeable,
// and a timed-out channel exchange leaves mailboxes half-full — so the
// member tears its group down and the caller must build a fresh one; the
// sentinel only identifies why.
var ErrTimeout = errors.New("dist: collective deadline exceeded")

// ErrClosed marks a collective that failed because its group was torn down
// — by Close, by a peer's death cascading through the transport, or by the
// chaos harness killing a wrapped rank. Together with ErrTimeout it is the
// "the group is gone, the survivors may regroup" signal: an elastic
// training driver treats both as recoverable membership events (probe the
// ranks, shrink the group, resume from the last common checkpoint), while
// any other error — a shape mismatch, a checkpoint-write failure — aborts
// the run. Use errors.Is; see Recoverable.
var ErrClosed = errors.New("dist: group closed")

// Recoverable reports whether err is a comm-group failure an elastic
// driver may respond to with a membership change (timeout or group
// teardown) rather than a hard programming or I/O error that must abort
// the run.
func Recoverable(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrClosed)
}

// Comm is one rank's handle on a communicator group. Collectives are
// matched by call order: every rank must issue the same sequence of
// collective calls, exactly as NCCL requires. A Comm is not safe for
// concurrent use by multiple goroutines; the training loop dedicates one
// communicator per concern (features, gradients), mirroring the original
// system's separate NCCL streams.
type Comm interface {
	// Rank returns this member's index in [0, Size()).
	Rank() int
	// Size returns the group size K.
	Size() int
	// AllToAll exchanges one byte payload with every rank: send[dst] goes
	// to rank dst, and the result's entry [src] is what rank src sent
	// here. send[Rank()] is delivered locally without touching the
	// transport. len(send) must equal Size().
	//
	// Buffer ownership: send payloads are only read until AllToAll
	// returns, so callers may reuse them immediately. The returned slice
	// and its payloads remain valid only until the next collective on
	// this Comm — transports recycle receive buffers to keep the
	// steady-state gather path allocation-lean.
	AllToAll(send [][]byte) ([][]byte, error)
	// AllReduceSum replaces x, elementwise, with the sum over all ranks'
	// x. The reduction is ordered by rank, so all ranks compute
	// bitwise-identical results.
	AllReduceSum(x []float32) error
	// BytesSent returns the cumulative payload bytes this rank has sent to
	// other ranks (self-delivery is free, as on a real NIC).
	BytesSent() int64
	// Close aborts the whole group: every blocked or future collective on
	// any member fails with an error instead of deadlocking, the behavior
	// the training loop relies on for failure propagation (like an NCCL
	// abort).
	Close()
	// SetAbort installs an abort channel on this member: when the channel
	// closes, the whole group is torn down exactly as by Close, so every
	// blocked or future collective — including an in-flight feature gather
	// on a peer — fails promptly instead of deadlocking. This is how an
	// online-serving loop unwinds collectives on shutdown without a
	// matched "final round". Passing nil detaches the previous channel.
	// SetAbort must not race with collectives on the same member (install
	// it before the serving/training loop starts).
	SetAbort(abort <-chan struct{})
	// SetTimeout bounds every subsequent collective on this member: a call
	// that cannot complete within d fails with an error satisfying
	// errors.Is(err, ErrTimeout) instead of blocking on a stalled or dead
	// peer. Zero (the default) restores unbounded collectives. Like
	// SetAbort, it must not race with collectives on the same member.
	// Training pipelines leave it unset; the serving path installs its
	// gather budget here so one stalled rank costs a bounded round, not a
	// hang.
	SetTimeout(d time.Duration)
}

// watchAbort spawns the watcher goroutine backing SetAbort: when abort
// closes, closeGroup runs; when stop closes first (a later SetAbort call
// detaching the channel), the watcher exits without side effects. Both
// transports share this helper because their Close methods already
// implement prompt group-wide teardown.
func watchAbort(abort <-chan struct{}, stop <-chan struct{}, closeGroup func()) {
	go func() {
		select {
		case <-abort:
			closeGroup()
		case <-stop:
		}
	}()
}

// NewGroup returns K connected communicators on the loopback TCP transport
// when tcp is set, else on the in-process transport.
func NewGroup(k int, tcp bool) ([]Comm, error) {
	if tcp {
		return NewTCPGroup(k)
	}
	return NewLocalGroup(k)
}

// reduceScratch is one comm's reusable allReduceSum buffers, so a warm
// all-reduce allocates nothing.
type reduceScratch struct {
	payload []byte
	peer    []float32
	send    [][]byte
}

// allReduceSum is every transport's AllReduceSum: an all-gather over c's
// AllToAll followed by a local reduction in rank order, so every rank's
// float32 result is bitwise identical.
func allReduceSum(c Comm, s *reduceScratch, x []float32) error {
	s.payload = f32ToBytes(s.payload[:0], x)
	if s.send == nil {
		s.send = make([][]byte, c.Size())
	}
	for i := range s.send {
		s.send[i] = s.payload
	}
	recv, err := c.AllToAll(s.send)
	if err != nil {
		return err
	}
	clear(x)
	for src, b := range recv {
		s.peer = bytesToF32(s.peer, b)
		if len(s.peer) != len(x) {
			return fmt.Errorf("dist: AllReduceSum length mismatch: rank %d sent %d values, want %d", src, len(s.peer), len(x))
		}
		for i, v := range s.peer {
			x[i] += v
		}
	}
	return nil
}

// f32ToBytes appends the little-endian IEEE-754 encoding of xs to buf.
func f32ToBytes(buf []byte, xs []float32) []byte {
	for _, v := range xs {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	return buf
}

// bytesToF32 decodes a payload produced by f32ToBytes into dst (resized as
// needed) and returns it.
func bytesToF32(dst []float32, b []byte) []float32 {
	n := len(b) / 4
	if cap(dst) < n {
		dst = make([]float32, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return dst
}
