package dist

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// localGroup is the in-process transport: a K×K mesh of buffered channels.
// Matched collectives mean each directed mailbox holds at most one
// in-flight payload, so capacity-1 channels never deadlock; a send only
// blocks until the receiver finishes its previous collective.
type localGroup struct {
	k     int
	box   [][]chan []byte // box[src][dst]
	done  chan struct{}
	once  sync.Once
	bytes []atomic.Int64 // per-rank cumulative sent payload
}

// NewLocalGroup returns K connected in-process communicators.
func NewLocalGroup(k int) ([]Comm, error) {
	if k <= 0 {
		return nil, fmt.Errorf("dist: group size %d", k)
	}
	g := &localGroup{
		k:     k,
		box:   make([][]chan []byte, k),
		done:  make(chan struct{}),
		bytes: make([]atomic.Int64, k),
	}
	for src := 0; src < k; src++ {
		g.box[src] = make([]chan []byte, k)
		for dst := 0; dst < k; dst++ {
			g.box[src][dst] = make(chan []byte, 1)
		}
	}
	comms := make([]Comm, k)
	for r := 0; r < k; r++ {
		comms[r] = &localComm{g: g, rank: r}
	}
	return comms, nil
}

// localComm is one rank's endpoint of a localGroup.
type localComm struct {
	g    *localGroup
	rank int
	// recvBuf and reduce are reused across collectives to avoid per-call
	// allocation; a Comm serves one goroutine at a time, and results are
	// documented valid only until the next collective.
	recvBuf   [][]byte
	reduce    reduceScratch
	stopWatch chan struct{} // cancels the SetAbort watcher

	// timeout bounds each collective (SetTimeout); timer is reused across
	// calls so a deadline-bounded warm gather still allocates nothing.
	timeout time.Duration
	timer   *time.Timer
}

func (c *localComm) Rank() int { return c.rank }
func (c *localComm) Size() int { return c.g.k }

func (c *localComm) BytesSent() int64 { return c.g.bytes[c.rank].Load() }

func (c *localComm) Close() {
	c.g.once.Do(func() { close(c.g.done) })
}

func (c *localComm) SetAbort(abort <-chan struct{}) {
	if c.stopWatch != nil {
		close(c.stopWatch)
		c.stopWatch = nil
	}
	if abort == nil {
		return
	}
	c.stopWatch = make(chan struct{})
	watchAbort(abort, c.stopWatch, c.Close)
}

func (c *localComm) SetTimeout(d time.Duration) { c.timeout = d }

// armTimeout returns the deadline channel for one collective, arming the
// reused timer; nil when no timeout is installed (a nil channel never
// fires, so the selects below degrade to the historical two-way form).
func (c *localComm) armTimeout() <-chan time.Time {
	if c.timeout <= 0 {
		return nil
	}
	if c.timer == nil {
		c.timer = time.NewTimer(c.timeout)
	} else {
		c.timer.Reset(c.timeout)
	}
	return c.timer.C
}

// disarmTimeout stops the reused timer and drains a concurrently fired
// tick so the next Reset starts clean.
func (c *localComm) disarmTimeout() {
	if c.timer != nil && !c.timer.Stop() {
		select {
		case <-c.timer.C:
		default:
		}
	}
}

func (c *localComm) AllToAll(send [][]byte) ([][]byte, error) {
	g := c.g
	if len(send) != g.k {
		return nil, fmt.Errorf("dist: AllToAll with %d payloads for %d ranks", len(send), g.k)
	}
	// One deadline covers the whole collective, matching the TCP
	// transport's SetDeadline-per-call semantics.
	deadline := c.armTimeout()
	defer c.disarmTimeout()
	for dst := 0; dst < g.k; dst++ {
		if dst == c.rank {
			continue
		}
		// Copy at send time: the receiver owns its payload outright and
		// the sender is free to reuse its buffers immediately, the same
		// ownership contract a socket write gives the TCP transport.
		msg := append([]byte(nil), send[dst]...)
		select {
		case g.box[c.rank][dst] <- msg:
			g.bytes[c.rank].Add(int64(len(msg)))
		case <-g.done:
			return nil, fmt.Errorf("%w during AllToAll send (rank %d)", ErrClosed, c.rank)
		case <-deadline:
			// A timed-out collective leaves mailboxes half-exchanged, so the
			// group can never match another collective: tear it down, exactly
			// as a TCP deadline mid-frame poisons that transport's stream.
			c.Close()
			return nil, fmt.Errorf("%w: AllToAll send after %v (rank %d)", ErrTimeout, c.timeout, c.rank)
		}
	}
	if c.recvBuf == nil {
		c.recvBuf = make([][]byte, g.k)
	}
	recv := c.recvBuf
	recv[c.rank] = send[c.rank]
	for src := 0; src < g.k; src++ {
		if src == c.rank {
			continue
		}
		select {
		case recv[src] = <-g.box[src][c.rank]:
		case <-g.done:
			return nil, fmt.Errorf("%w during AllToAll recv (rank %d)", ErrClosed, c.rank)
		case <-deadline:
			c.Close() // see the send-side timeout: a partial exchange is unmatchable
			return nil, fmt.Errorf("%w: AllToAll recv from rank %d after %v (rank %d)", ErrTimeout, src, c.timeout, c.rank)
		}
	}
	return recv, nil
}

func (c *localComm) AllReduceSum(x []float32) error { return allReduceSum(c, &c.reduce, x) }
