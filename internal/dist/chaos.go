package dist

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"salientpp/internal/rng"
)

// Chaos is a reusable fault-injection harness for communicator groups: a
// shared, seeded schedule of stalls, rank deaths, and slowdowns that any
// number of Comm wrappers (Wrap) consult on every collective. It grew out
// of the ad-hoc killComm wrappers behind ClusterConfig.WrapComm (PR 4's
// crash-recovery tests) into something serving tests can drive: because
// the schedule state lives here — not in any one wrapper — it survives the
// serving layer discarding a poisoned comm group and re-wrapping a fresh
// one, so "the rank is still stalled" holds across regroups exactly as a
// wedged NIC would.
//
// Faults compose: a collective first checks the death schedule, then the
// stall gate, then the seeded slow-peer delay, then the optional simnet
// link shaping, and only then reaches the real transport.
type Chaos struct {
	cfg   ChaosConfig
	calls atomic.Int64 // collective counter shared by every wrapper
	start time.Time    // clock origin for the simnet link

	mu      sync.Mutex
	stalled bool
	clearCh chan struct{} // closed by Clear; waiters block on it while stalled

	// killed, once set, makes every wrapped collective fail permanently
	// (see Kill) — the manual counterpart of DropAtCall for faults that
	// must land at an external event (a checkpoint file appearing, a
	// wall-clock mark) rather than at a collective count.
	killed atomic.Bool

	linkMu sync.Mutex // simnet.Link is single-threaded; serialize wrappers
}

// ChaosConfig is a seeded fault schedule. Zero values disable each fault.
type ChaosConfig struct {
	// Seed drives the slow-peer coin flips; wrappers derive per-rank
	// streams from it so a schedule is reproducible across runs.
	Seed uint64
	// StallAtCall, when > 0, trips the stall gate once the shared
	// collective counter reaches it (equivalent to calling Stall then) —
	// every wrapped comm blocks as if its NIC wedged, until Clear, its
	// member's timeout, or Close.
	StallAtCall int64
	// DropAtCall, when > 0, kills the wrapped rank from that collective
	// on: the wrapper closes its group and fails every call, permanently —
	// a crashed machine, not a transient stall.
	DropAtCall int64
	// SlowEveryN, when > 0, makes roughly one in N collectives sleep
	// SlowDelay before proceeding (seeded, per-wrapper stream).
	SlowEveryN int
	SlowDelay  time.Duration
	// Link, when set, charges every collective's send bytes to a simnet
	// link (bandwidth + latency + optional token-bucket shaping) and
	// sleeps until the simulated completion time, so a chaos schedule can
	// also model a uniformly slow network rather than a misbehaving rank.
	Link linkShaper
}

// linkShaper is the subset of simnet.Link the chaos harness uses,
// abstracted so dist does not depend on simnet's concrete type (the
// experiments layer passes a *simnet.Link directly — it satisfies this).
type linkShaper interface {
	Transfer(now float64, bytes int64) float64
}

// NewChaos returns a harness over the given schedule.
func NewChaos(cfg ChaosConfig) *Chaos {
	return &Chaos{cfg: cfg, start: time.Now()}
}

// Stall trips the stall gate manually: every wrapped collective blocks
// until Clear (or its member's timeout/Close). Idempotent.
func (c *Chaos) Stall() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.stalled {
		c.stalled = true
		c.clearCh = make(chan struct{})
	}
}

// Clear releases the stall gate; blocked collectives proceed into their
// real transport. Idempotent.
func (c *Chaos) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stalled {
		c.stalled = false
		close(c.clearCh)
	}
}

// Kill trips the death gate manually: from now on every wrapped collective
// closes its group and fails permanently, exactly as DropAtCall would at a
// collective count. Like the rest of the schedule the state lives in the
// harness, so the rank stays dead across regroups and re-wraps — a crashed
// machine does not come back because the survivors built a new group.
// Idempotent.
func (c *Chaos) Kill() { c.killed.Store(true) }

// Calls returns the shared collective counter (for tests asserting a
// schedule actually fired).
func (c *Chaos) Calls() int64 { return c.calls.Load() }

// stallGate returns the channel a stalled wrapper must wait on, or nil
// when the gate is open.
func (c *Chaos) stallGate() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.stalled {
		return nil
	}
	return c.clearCh
}

// Wrap returns inner with the harness's fault schedule applied to every
// collective. Wrap any member of a group, or several members of several
// groups — the schedule is shared. The wrapper honors the member's
// SetTimeout during a stall (the stall models a wedged NIC: the deadline
// still fires), and a stall that trips the deadline closes the inner
// group, matching both transports' timeout-poisons-the-group contract.
func (c *Chaos) Wrap(inner Comm) Comm {
	return &ChaosComm{
		inner:     inner,
		chaos:     c,
		rng:       rng.New(c.cfg.Seed).Split(uint64(inner.Rank())),
		closeOnce: new(sync.Once),
		closed:    make(chan struct{}),
	}
}

// WrapPair wraps one rank's feature and gradient communicators under a
// shared fate: a death, stall-timeout, or Close on either wrapper closes
// both inner groups, exactly as a dying machine takes all of its sockets
// with it. This is what the training path needs — the pipeline issues
// gathers on one communicator and gradient all-reduces on the other, and
// killing only one of them would leave peers deadlocked in unmatched
// collectives on the survivor. The schedule (counter, stall gate, death
// gate) is the harness's, shared with every other wrapper it has issued.
func (c *Chaos) WrapPair(feat, grad Comm) (Comm, Comm) {
	f := c.Wrap(feat).(*ChaosComm)
	g := c.Wrap(grad).(*ChaosComm)
	f.buddy, g.buddy = grad, feat
	// One close state for the pair: poisoning either half unblocks a stall
	// wait on the other, so a sibling never waits out a gate its machine
	// already died under.
	g.closeOnce, g.closed = f.closeOnce, f.closed
	return f, g
}

// ChaosComm is one wrapped communicator; see Chaos.Wrap.
type ChaosComm struct {
	inner   Comm
	chaos   *Chaos
	rng     *rng.RNG
	timeout time.Duration

	// buddy, when set by WrapPair, is the sibling communicator (the other
	// half of the rank's feat/grad pair) closed alongside this one.
	buddy Comm

	// closeOnce and closed are shared between the two halves of a WrapPair
	// (pointer/channel identity), so either half's poison unblocks both.
	closeOnce *sync.Once
	closed    chan struct{} // unblocks a stall wait when the member closes
	stopWatch chan struct{} // cancels the SetAbort watcher
}

// Rank delegates to the wrapped member.
func (c *ChaosComm) Rank() int { return c.inner.Rank() }

// Size delegates to the wrapped member.
func (c *ChaosComm) Size() int { return c.inner.Size() }

// BytesSent delegates to the wrapped member; chaos faults charge no bytes.
func (c *ChaosComm) BytesSent() int64 { return c.inner.BytesSent() }

// Close closes the wrapped member (and, for a WrapPair sibling, the other
// half of the pair) and unblocks any collective waiting out a stall on
// this member.
func (c *ChaosComm) Close() {
	c.closeOnce.Do(func() { close(c.closed) })
	c.inner.Close()
	if c.buddy != nil {
		c.buddy.Close()
	}
}

// SetTimeout bounds collectives on the wrapped member and also caps how
// long an injected stall may hold a call before the group is poisoned,
// mirroring a transport-level timeout.
func (c *ChaosComm) SetTimeout(d time.Duration) {
	c.timeout = d
	c.inner.SetTimeout(d)
}

// SetAbort mirrors the transports' abort contract and additionally
// unblocks a collective waiting out a stall (the inner member's own abort
// cannot see it — the stalled call never reached the transport).
func (c *ChaosComm) SetAbort(abort <-chan struct{}) {
	if c.stopWatch != nil {
		close(c.stopWatch)
		c.stopWatch = nil
	}
	c.inner.SetAbort(abort)
	if abort == nil {
		return
	}
	c.stopWatch = make(chan struct{})
	watchAbort(abort, c.stopWatch, c.Close)
}

// inject runs the fault schedule ahead of one collective; a nil return
// means the call may proceed to the inner transport.
func (c *ChaosComm) inject() error {
	cfg := &c.chaos.cfg
	n := c.chaos.calls.Add(1)
	if c.chaos.killed.Load() || (cfg.DropAtCall > 0 && n >= cfg.DropAtCall) {
		c.chaos.killed.Store(true)
		c.Close()
		return fmt.Errorf("%w: chaos killed rank %d at collective %d", ErrClosed, c.inner.Rank(), n)
	}
	if cfg.StallAtCall > 0 && n >= cfg.StallAtCall {
		c.chaos.Stall()
	}
	if gate := c.chaos.stallGate(); gate != nil {
		var deadline <-chan time.Time
		var timer *time.Timer
		if c.timeout > 0 {
			timer = time.NewTimer(c.timeout)
			defer timer.Stop()
			deadline = timer.C
		}
		select {
		case <-gate:
			// Stall cleared in time: fall through to the real collective. If
			// peers already timed out meanwhile, the inner call fails on
			// their closed group — either way, no hang.
		case <-c.closed:
			return fmt.Errorf("%w during chaos stall (rank %d)", ErrClosed, c.inner.Rank())
		case <-deadline:
			// The member's deadline fired while the "NIC" was wedged: poison
			// the group exactly as a transport-level timeout would.
			c.Close()
			return fmt.Errorf("%w: chaos stall on rank %d exceeded %v", ErrTimeout, c.inner.Rank(), c.timeout)
		}
	}
	if cfg.SlowEveryN > 0 && c.rng.Intn(cfg.SlowEveryN) == 0 {
		time.Sleep(cfg.SlowDelay)
	}
	return nil
}

// shape charges bytes to the simnet link and sleeps to its verdict.
func (c *ChaosComm) shape(send [][]byte) {
	if c.chaos.cfg.Link == nil {
		return
	}
	var bytes int64
	for dst, p := range send {
		if dst != c.inner.Rank() {
			bytes += int64(len(p))
		}
	}
	c.chaos.linkMu.Lock()
	now := time.Since(c.chaos.start).Seconds()
	fin := c.chaos.cfg.Link.Transfer(now, bytes)
	c.chaos.linkMu.Unlock()
	if d := time.Duration((fin - now) * float64(time.Second)); d > 0 {
		time.Sleep(d)
	}
}

// AllToAll runs the fault schedule (drop, stall, slowdown, link shaping)
// ahead of the wrapped member's collective.
func (c *ChaosComm) AllToAll(send [][]byte) ([][]byte, error) {
	if err := c.inject(); err != nil {
		return nil, err
	}
	c.shape(send)
	return c.inner.AllToAll(send)
}

// AllReduceSum runs the fault schedule ahead of the wrapped member's
// reduce (link shaping applies only to AllToAll payloads).
func (c *ChaosComm) AllReduceSum(x []float32) error {
	if err := c.inject(); err != nil {
		return err
	}
	return c.inner.AllReduceSum(x)
}
