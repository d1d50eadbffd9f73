package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// tcpSetupTimeout bounds every step of the NewTCPGroup handshake: dialing
// a listener, writing the one-byte hello, and reading it on the accept
// side. Without it a SYN-blackholed address or a half-open peer (connected
// but never identifying itself) hangs group construction forever — the
// regression the setup-timeout tests pin. A package variable so tests can
// shrink it.
var tcpSetupTimeout = 10 * time.Second

// tcpComm is one rank of a loopback TCP mesh. Every pair of ranks shares
// one TCP connection; messages are length-prefixed frames. Because each
// rank issues its collectives in order and frames preserve per-direction
// FIFO order, collectives match without tags — the same argument that
// matches the channel transport.
type tcpComm struct {
	rank  int
	k     int
	conns []net.Conn // conns[peer]; nil at self
	bytes atomic.Int64
	mu    sync.Mutex
	state error // sticky failure after Close or transport error
	// Reusable collective buffers; a Comm serves one goroutine at a
	// time and AllToAll's writers drain before it returns, so reuse
	// across calls is safe.
	recvBuf   [][]byte
	frames    []frameBufs // frames[peer]
	reduce    reduceScratch
	stopWatch chan struct{} // cancels the SetAbort watcher

	// timeout bounds each collective (SetTimeout); hadDeadline tracks
	// whether connection deadlines are currently armed so clearing them
	// costs syscalls only once after a SetTimeout(0).
	timeout     time.Duration
	hadDeadline bool
}

// NewTCPGroup builds a fully connected loopback TCP group of size k. It
// moves real bytes through the kernel, exercising serialization and
// framing exactly as a multi-host deployment would.
func NewTCPGroup(k int) ([]Comm, error) {
	if k <= 0 {
		return nil, fmt.Errorf("dist: group size %d", k)
	}
	if k > 256 {
		// The hello handshake identifies ranks with one byte.
		return nil, fmt.Errorf("dist: TCP group size %d exceeds the 256-rank handshake limit", k)
	}
	comms := make([]*tcpComm, k)
	for r := 0; r < k; r++ {
		comms[r] = &tcpComm{rank: r, k: k, conns: make([]net.Conn, k), frames: make([]frameBufs, k)}
	}
	// Rank i listens; ranks j > i dial in and identify themselves with a
	// one-byte hello carrying their rank. teardown releases every listener
	// and connection on any setup failure so the blocked accept goroutines
	// unblock and nothing leaks.
	listeners := make([]net.Listener, k)
	teardown := func() {
		for _, ln := range listeners {
			if ln != nil {
				ln.Close()
			}
		}
		for _, c := range comms {
			for _, conn := range c.conns {
				if conn != nil {
					conn.Close()
				}
			}
		}
	}
	for i := 0; i < k-1; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			teardown()
			return nil, fmt.Errorf("dist: listen: %w", err)
		}
		listeners[i] = ln
	}
	var wg sync.WaitGroup
	errCh := make(chan error, k)
	for i := 0; i < k-1; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < k-1-i; n++ {
				conn, err := listeners[i].Accept()
				if err != nil {
					errCh <- err
					return
				}
				rank, err := readHello(conn)
				if err != nil {
					conn.Close()
					errCh <- err
					return
				}
				comms[i].conns[int(rank)] = conn
			}
		}(i)
	}
	dialErr := func(err error) ([]Comm, error) {
		// Unblock the accept goroutines first, then wait for them before
		// touching the conns they may still be writing.
		for _, ln := range listeners {
			if ln != nil {
				ln.Close()
			}
		}
		wg.Wait()
		teardown()
		return nil, err
	}
	for j := 1; j < k; j++ {
		for i := 0; i < j; i++ {
			// DialTimeout, not Dial: a SYN-blackholed listener address must
			// fail setup within the bound, not hang it on kernel retries.
			conn, err := net.DialTimeout("tcp", listeners[i].Addr().String(), tcpSetupTimeout)
			if err != nil {
				return dialErr(fmt.Errorf("dist: dial: %w", err))
			}
			conn.SetWriteDeadline(time.Now().Add(tcpSetupTimeout))
			if _, err := conn.Write([]byte{byte(j)}); err != nil {
				conn.Close()
				return dialErr(fmt.Errorf("dist: hello: %w", err))
			}
			conn.SetWriteDeadline(time.Time{})
			comms[j].conns[i] = conn
		}
	}
	wg.Wait()
	for i := 0; i < k-1; i++ {
		listeners[i].Close()
	}
	select {
	case err := <-errCh:
		teardown()
		return nil, fmt.Errorf("dist: accept: %w", err)
	default:
	}
	out := make([]Comm, k)
	for r := 0; r < k; r++ {
		out[r] = comms[r]
	}
	return out, nil
}

// readHello reads a dialer's one-byte rank identification under the setup
// deadline, so a half-open peer — connected but silent — fails the
// handshake within the bound instead of wedging the accept goroutine.
func readHello(conn net.Conn) (byte, error) {
	conn.SetReadDeadline(time.Now().Add(tcpSetupTimeout))
	var hello [1]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return 0, fmt.Errorf("dist: hello read: %w", err)
	}
	conn.SetReadDeadline(time.Time{})
	return hello[0], nil
}

func (c *tcpComm) Rank() int        { return c.rank }
func (c *tcpComm) Size() int        { return c.k }
func (c *tcpComm) BytesSent() int64 { return c.bytes.Load() }

// Close tears down this rank's connections. Peers blocked on reads fail
// with connection errors, propagating the abort through the group.
func (c *tcpComm) Close() {
	c.mu.Lock()
	if c.state == nil {
		c.state = fmt.Errorf("%w (rank %d)", ErrClosed, c.rank)
	}
	c.mu.Unlock()
	for _, conn := range c.conns {
		if conn != nil {
			conn.Close()
		}
	}
}

// SetAbort installs an abort channel: when it closes, this rank's
// connections are torn down (as by Close), so peers blocked mid-collective
// fail with connection errors and the abort propagates through the group —
// real bytes in flight unwind exactly like a multi-host deployment losing
// a member.
func (c *tcpComm) SetAbort(abort <-chan struct{}) {
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

func (c *tcpComm) failed() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

func (c *tcpComm) SetTimeout(d time.Duration) { c.timeout = d }

// armDeadlines installs (or, after SetTimeout(0), clears) one absolute
// deadline across every connection, covering all of the collective's
// concurrent writes and sequential reads.
func (c *tcpComm) armDeadlines() {
	switch {
	case c.timeout > 0:
		dl := time.Now().Add(c.timeout)
		for _, conn := range c.conns {
			if conn != nil {
				conn.SetDeadline(dl)
			}
		}
		c.hadDeadline = true
	case c.hadDeadline:
		for _, conn := range c.conns {
			if conn != nil {
				conn.SetDeadline(time.Time{})
			}
		}
		c.hadDeadline = false
	}
}

// wrapTimeout converts a deadline-exceeded transport error into the
// portable ErrTimeout sentinel; other errors pass through.
func wrapTimeout(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	return err
}

// frameBufs is one peer's framing storage, reused across collectives: the
// receive buffer, which keeps its capacity, and the header and vector a
// send is written from.
type frameBufs struct {
	recv []byte
	hdr  [4]byte
	iov  [2][]byte
	out  net.Buffers
}

// writeFrame sends one length-prefixed payload, header and payload in one
// vectored write.
func (f *frameBufs) writeFrame(conn net.Conn, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("dist: %d-byte payload exceeds the %d-byte frame limit", len(payload), maxFrame)
	}
	binary.LittleEndian.PutUint32(f.hdr[:], uint32(len(payload)))
	f.iov = [2][]byte{f.hdr[:], payload}
	f.out = f.iov[:]
	_, err := f.out.WriteTo(conn)
	return err
}

func (c *tcpComm) AllToAll(send [][]byte) ([][]byte, error) {
	if err := c.failed(); err != nil {
		return nil, err
	}
	if len(send) != c.k {
		return nil, fmt.Errorf("dist: AllToAll with %d payloads for %d ranks", len(send), c.k)
	}
	c.armDeadlines()
	// Writers run concurrently so two ranks exchanging large payloads
	// cannot deadlock on full socket buffers.
	var wg sync.WaitGroup
	errCh := make(chan error, 2*c.k)
	for dst := 0; dst < c.k; dst++ {
		if dst == c.rank {
			continue
		}
		wg.Add(1)
		go func(dst int) {
			defer wg.Done()
			if err := c.frames[dst].writeFrame(c.conns[dst], send[dst]); err != nil {
				errCh <- err
				return
			}
			c.bytes.Add(int64(len(send[dst])))
		}(dst)
	}
	if c.recvBuf == nil {
		c.recvBuf = make([][]byte, c.k)
	}
	recv := c.recvBuf
	recv[c.rank] = send[c.rank]
	for src := 0; src < c.k; src++ {
		if src == c.rank {
			continue
		}
		msg, err := decodeFrame(c.conns[src], c.frames[src].recv)
		if err != nil {
			errCh <- err
			break
		}
		c.frames[src].recv = msg
		recv[src] = msg
	}
	wg.Wait()
	select {
	case err := <-errCh:
		err = wrapTimeout(err)
		if !errors.Is(err, ErrTimeout) {
			// A non-timeout transport failure means the stream (and with it
			// the group) is gone — most often a peer died and its Close
			// cascaded here. Mark it ErrClosed so elastic callers classify it
			// as a membership event rather than a hard error.
			err = fmt.Errorf("%w: transport failure (rank %d): %v", ErrClosed, c.rank, err)
		}
		c.mu.Lock()
		if c.state == nil {
			c.state = err
		}
		c.mu.Unlock()
		// A deadline can strike mid-frame; the streams are unframeable from
		// here, so tear the group down promptly rather than leaving peers to
		// discover it via their own timeouts.
		c.Close()
		return nil, err
	default:
	}
	return recv, nil
}

func (c *tcpComm) AllReduceSum(x []float32) error { return allReduceSum(c, &c.reduce, x) }
