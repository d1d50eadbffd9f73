// Package serve implements online GNN inference over the SALIENT++ stack:
// an embeddable server that accepts per-vertex prediction requests,
// coalesces concurrent requests into sampled micro-batches, and runs them
// through the existing sampler → cache-aware partitioned Gather → frozen
// GraphSAGE forward path.
//
// Architecture (one round):
//
//	clients ──Predict──▶ per-rank admission queues (routed by vertex owner)
//	                               │
//	             driver fires a round when any rank reaches MaxBatch
//	             or the oldest queued request has waited MaxWait
//	                               │
//	     all K engines execute the round in lockstep (matched collectives):
//	     dedup+sort seeds → sample MFG → Store.Gather → Frozen.Forward
//	                               │
//	     per-request logits copied out, latency recorded, buffers recycled
//
// Rounds are lockstep across ranks because Gather's two collectives (request
// ids out, feature rows back) must stay matched — a rank with an empty
// queue gathers an empty id list, the same padding discipline the training
// pipeline uses. Within a round the K engines run concurrently.
//
// The steady-state serving loop is allocation-free: requests are pooled,
// seeds/batches reuse high-water-mark scratch, the MFG comes from the
// sampler arena, gathered features from the store's tensor pool, and model
// intermediates from the frozen snapshot's arena (all released when the
// round retires). guarded by TestServeAllocationFree.
package serve

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"salientpp/internal/cache"
	"salientpp/internal/dist"
	"salientpp/internal/nn"
	"salientpp/internal/pipeline"
	"salientpp/internal/rng"
	"salientpp/internal/sample"
	"salientpp/internal/tensor"
)

// ErrClosed is returned by Predict once the server is shut down.
var ErrClosed = errors.New("serve: server closed")

// ErrShed is returned by Predict when admission control decides the
// request cannot meet its Config.Deadline budget — the queue is too deep,
// or the request would expire before its round completes. Shedding is
// always explicit: the caller gets this error immediately (or as the
// request's reply), never a silent drop, so an overloaded server degrades
// into fast rejections instead of unbounded queueing.
var ErrShed = errors.New("serve: request shed: deadline budget cannot be met")

// Config controls the coalescing admission policy and the inference
// sampling setup.
type Config struct {
	// MaxBatch caps the coalesced requests per rank per round; a rank
	// reaching it fires the round immediately. Defaults to 64.
	MaxBatch int
	// MaxWait bounds how long the oldest queued request waits for company
	// before a round fires anyway. 0 means the 500µs default; negative
	// fires rounds as soon as any request arrives (lowest latency, least
	// batching).
	MaxWait time.Duration
	// Fanouts are the inference sampling fanouts; nil uses the cluster's
	// training fanouts.
	Fanouts []int
	// Seed drives inference sampling: round r on rank k samples with the
	// stream Seed→Split(k)→Split(r), so a given (round, seed set) is
	// reproducible offline.
	Seed uint64
	// UseTCP routes the serving gathers over loopback TCP instead of
	// in-process channels.
	UseTCP bool

	// Deadline is each request's end-to-end latency budget and turns on
	// admission control: a request that cannot complete within it — the
	// queue is too deep at Predict time, or its budget expires before its
	// round fires — fails with ErrShed instead of queueing unboundedly.
	// Deadline also activates adaptive batching: the driver grows the
	// effective per-rank batch (up to 8×MaxBatch) under backlog while
	// rounds run well inside the budget, and shrinks it back under SLO
	// pressure. Zero disables both (the historical fixed-MaxBatch policy).
	Deadline time.Duration
	// GatherTimeout bounds each serving round's feature collectives and
	// turns on degraded operation: when a gather times out (or otherwise
	// fails while the server is up), the round falls back to cache + local
	// shard only — missing remote rows zero-filled, replies flagged
	// Stats.Degraded — and the server probes for a fresh healthy comm
	// group in the background, restoring normal serving when peers
	// recover. Zero disables the timeout unless Deadline is set, in which
	// case it defaults to Deadline/2 (a request's budget must cover a
	// timed-out gather plus the local fallback).
	GatherTimeout time.Duration
	// WrapComm, when set, wraps each serving communicator at construction
	// AND after every regroup — the serving twin of
	// pipeline.ClusterConfig.WrapComm. Fault-injection harnesses
	// (dist.Chaos) install themselves here; because the wrapper is
	// re-applied to every fresh group, a schedule like "rank 1 is stalled"
	// keeps biting until the harness clears it, exactly as real broken
	// hardware would.
	WrapComm func(rank int, c dist.Comm) dist.Comm

	// Cache selects the serving cache mode. "" or "static" pins the cache
	// epoch the cluster handed over — no observation, no installs, bitwise
	// the historical behavior. "online" runs a drift-tracking
	// cache.Online policy per engine at the same capacity: every round's
	// hits and misses feed the scorer, and every CacheRefreshRounds rounds
	// the engine retargets its private working epoch to the scorer's
	// proposal in place, between its rounds, writing only the rows it
	// admits (hydrated through the cluster's codec).
	Cache string
	// CacheRefreshRounds is the online proposal cadence in rounds; 0 means
	// 32. Ignored unless Cache is "online".
	CacheRefreshRounds int
}

// maxBatchGrowth bounds adaptive batch growth: under a Deadline the
// effective per-rank batch never exceeds maxBatchGrowth×MaxBatch.
const maxBatchGrowth = 8

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxWait == 0 {
		c.MaxWait = 500 * time.Microsecond
	}
	if c.MaxWait < 0 {
		c.MaxWait = 0
	}
	if c.Deadline > 0 && c.GatherTimeout == 0 {
		c.GatherTimeout = c.Deadline / 2
	}
	if c.CacheRefreshRounds <= 0 {
		c.CacheRefreshRounds = 32
	}
	return c
}

// Stats is the per-request accounting Predict returns. Stage durations
// describe the micro-batch (round) that served the request; Queue and
// Total are specific to the request.
type Stats struct {
	// Round is the global round that served the request; BatchSize is how
	// many requests it coalesced on this rank.
	Round     uint64
	BatchSize int
	// Queue is the admission-queue wait before the round started.
	Queue time.Duration
	// Sample, Gather, and Compute are the round's stage times.
	Sample  time.Duration
	Gather  time.Duration
	Compute time.Duration
	// Total is enqueue-to-reply latency.
	Total time.Duration
	// RemoteFetch and CacheHits classify the round's feature accesses.
	RemoteFetch int
	CacheHits   int
	// Degraded marks a prediction computed without remote features: the
	// round's gather timed out (or the server was already regrouping), so
	// rows owned by unreachable peers were zero-filled. The logits are
	// well-defined but less accurate; Missing counts the zero-filled rows
	// of the round's batch.
	Degraded bool
	Missing  int
	// CacheGen is the install generation of the cache epoch that served
	// the round: 0 until the online policy's first install, and always 0
	// in static mode (serving starts on the cluster's setup epoch).
	CacheGen uint64
}

// request is a pooled in-flight prediction.
type request struct {
	vertex int32
	out    []float32
	stats  Stats
	err    error
	arrive time.Time
	done   chan struct{} // cap 1; reused across lives
}

// Server coalesces concurrent per-vertex prediction requests into sampled
// micro-batches over an in-process K-rank serving deployment. Predict is
// safe for any number of concurrent callers.
type Server struct {
	cfg      Config
	layout   *dist.Layout
	engines  []*engine
	classes  int
	numVerts int

	reqPool  sync.Pool
	arrivals chan struct{} // cap 1: "a request arrived somewhere"
	full     chan struct{} // cap 1: "some rank reached the effective batch cap"
	shutdown chan struct{}
	closed   sync.Once
	wg       sync.WaitGroup
	round    uint64

	// scans counts scanQueues calls — the driver-efficiency gauge the
	// busy-loop regression test reads. A lone queued request must cost
	// O(1) scans (one on arrival, one re-check after its round), not one
	// per timer tick of the admission window.
	scans atomic.Int64

	// parents are the training ranks' stores, retained so a regroup can
	// mint fresh siblings over a new comm group. Siblings inherit the
	// parent's wire codec, so cache hits and fetched rows share one
	// precision.
	parents []*dist.Store

	// Resilience state. maxBatch is the adaptive per-rank batch cap
	// (equal to cfg.MaxBatch when Deadline is off); roundNS is the median
	// of the last roundWindow round durations, feeding admission
	// estimates, and roundTimes/roundsSeen the ring it is taken over
	// (driver-only); healthy gates whether rounds run real gathers or the
	// degraded local fallback; gen numbers comm groups for the health-probe
	// frames.
	maxBatch   atomic.Int64
	roundNS    atomic.Int64
	roundTimes [roundWindow]int64
	roundsSeen int
	healthy    atomic.Bool
	regrouping atomic.Bool
	gen        atomic.Uint32
	newGroup   chan *commGroup // cap 1: a probed group awaiting install

	// cmu guards comms (swapped by install) and retiredBytes (wire bytes
	// accumulated from groups discarded by regroups) against Snapshot.
	cmu          sync.Mutex
	comms        []dist.Comm
	retiredBytes int64

	met *Metrics
}

// commGroup is one generation of serving communicators with the sibling
// stores built over them.
type commGroup struct {
	comms  []dist.Comm
	stores []*dist.Store
}

func (g *commGroup) close() {
	for _, c := range g.comms {
		c.Close()
	}
}

// New builds a serving deployment over a trained (or training) cluster:
// per rank, a sibling feature store sharing the read-only shard and cache
// over a fresh communicator group, a frozen snapshot of the rank's model,
// and an inference sampler. The cluster may keep training afterwards; the
// server's predictions come from the snapshot taken here.
func New(cl *pipeline.Cluster, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	k := len(cl.Ranks)
	if k == 0 {
		return nil, fmt.Errorf("serve: cluster has no ranks")
	}
	online := false
	switch cfg.Cache {
	case "", "static":
	case "online":
		online = true
	default:
		return nil, fmt.Errorf("serve: unknown cache mode %q (want static or online)", cfg.Cache)
	}
	fanouts := cfg.Fanouts
	if len(fanouts) == 0 {
		fanouts = cl.Ranks[0].Sampler().Fanouts()
	}
	s := &Server{
		cfg:      cfg,
		layout:   cl.Layout,
		numVerts: cl.Data.NumVertices(),
		arrivals: make(chan struct{}, 1),
		full:     make(chan struct{}, 1),
		shutdown: make(chan struct{}),
		newGroup: make(chan *commGroup, 1),
		met:      newMetrics(maxBatchGrowth * cfg.MaxBatch),
	}
	s.maxBatch.Store(int64(cfg.MaxBatch))
	s.healthy.Store(true)
	// fail closes the shutdown channel too, so abort watchers already
	// installed on sibling stores exit instead of leaking.
	fail := func(err error) (*Server, error) {
		s.closed.Do(func() { close(s.shutdown) })
		s.closeComms()
		return nil, err
	}
	var degrees []int32 // hybrid-prior input, computed once across engines
	for r := 0; r < k; r++ {
		s.parents = append(s.parents, cl.Ranks[r].Store())
		frozen := cl.Ranks[r].Model().Freeze()
		if frozen.NumLayers() != len(fanouts) {
			return fail(fmt.Errorf("serve: %d fanouts for a %d-layer model", len(fanouts), frozen.NumLayers()))
		}
		smp, err := sample.NewSampler(cl.Data.Graph, fanouts)
		if err != nil {
			return fail(err)
		}
		// Dedup scratch covers only this rank's partition interval:
		// Predict routes every request to its vertex's owner, so the
		// engine never indexes a foreign vertex, and total scratch across
		// engines stays O(N) instead of O(N·K).
		e := &engine{
			srv:    s,
			rank:   r,
			model:  frozen,
			worker: smp.NewWorker(rng.New(0)), // stream replaced every round
			base:   rng.New(cfg.Seed).Split(uint64(r)),
			lo:     int32(cl.Layout.Starts[r]),
			stamp:  make([]uint64, cl.Layout.PartSize(r)),
			rowOf:  make([]int32, cl.Layout.PartSize(r)),
			start:  make(chan roundMsg),
			ended:  make(chan struct{}, 1),
		}
		// Online mode: a scorer and a working copy of the parent's setup
		// epoch per engine, at its capacity, the scorer seeded with its
		// membership (the static VIP prefix) so a cold scorer proposes
		// roughly the cache it inherited. Admissions are hydrated through
		// the serving store's codec, as a fetch of them is decoded. A rank
		// whose parent caches nothing has nothing to adapt — it stays
		// static.
		if pep := s.parents[r].SetupEpoch(); online && pep.Len() > 0 {
			if degrees == nil {
				degrees = cl.Data.Graph.Degrees()
			}
			online, err := cache.NewOnline(s.numVerts, e.lo, int32(cl.Layout.Starts[r+1]), pep.IDs(), degrees, cache.OnlineConfig{})
			if err != nil {
				return fail(err)
			}
			e.online, e.capacity = online, pep.Len()
			e.refreshEvery = cfg.CacheRefreshRounds
			e.work.CopyFrom(pep)
			row := make([]float32, cl.Data.FeatureDim)
			e.row = func(v int32) []float32 {
				e.store.Codec().RoundTripRow(row, cl.Data.FeatureRow(v))
				return row
			}
		}
		s.engines = append(s.engines, e)
		s.classes = frozen.Classes()
	}
	// The initial comm group is trusted without a probe (its construction
	// just succeeded); regrown groups are probed before install.
	g, err := s.buildGroup(false)
	if err != nil {
		return fail(err)
	}
	s.comms = g.comms
	for r, e := range s.engines {
		e.store = g.stores[r]
		if e.online != nil {
			if _, err := e.store.InstallEpoch(&e.work); err != nil {
				return fail(err)
			}
		}
	}
	s.wg.Add(1 + k)
	for _, e := range s.engines {
		go e.loop()
	}
	go s.driver()
	return s, nil
}

// buildGroup assembles one generation of serving communicators — fresh
// transport group, WrapComm fault seam, gather timeout, sibling stores
// with the resolved codec, abort channel — and, when probe is
// set, validates it with one dist.Agree health round (frames without
// steps, stamped with a fresh generation) before returning it. The gather
// timeout bounds the probe, so a still-stalled rank fails it within the
// budget instead of wedging the regroup goroutine. Every comm of a failed
// build is closed; nothing leaks.
func (s *Server) buildGroup(probe bool) (*commGroup, error) {
	comms, err := dist.NewGroup(len(s.parents), s.cfg.UseTCP)
	if err != nil {
		return nil, err
	}
	g := &commGroup{comms: comms}
	for r := range comms {
		if s.cfg.WrapComm != nil {
			comms[r] = s.cfg.WrapComm(r, comms[r])
		}
		if s.cfg.GatherTimeout > 0 {
			comms[r].SetTimeout(s.cfg.GatherTimeout)
		}
	}
	if probe {
		gen := s.gen.Add(1)
		frames := make([]dist.MemberFrame, len(comms))
		for r := range frames {
			frames[r] = dist.MemberFrame{Gen: gen, Rank: int32(r)}
		}
		if _, err := dist.Agree(comms, frames); err != nil {
			g.close()
			return nil, fmt.Errorf("serve: probing comm group %d: %w", gen, err)
		}
	}
	for r := range comms {
		st, err := s.parents[r].Sibling(comms[r])
		if err != nil {
			g.close()
			return nil, err
		}
		st.SetAbort(s.shutdown)
		g.stores = append(g.stores, st)
	}
	return g, nil
}

// Classes returns the logit width Predict fills (len(out) must equal it).
func (s *Server) Classes() int { return s.classes }

// Metrics returns the server's live metrics registry.
func (s *Server) Metrics() *Metrics { return s.met }

// Snapshot returns an aggregate view of the metrics, including the bytes
// the serving collectives have moved so far (current comm group plus every
// group retired by a regroup).
func (s *Server) Snapshot() Snapshot {
	s.cmu.Lock()
	bytes := s.retiredBytes
	for _, c := range s.comms {
		bytes += c.BytesSent()
	}
	s.cmu.Unlock()
	return s.met.snapshot(bytes)
}

// Predict requests class logits for vertex v, blocking until the coalesced
// micro-batch containing the request completes. out receives the logits
// and must have length Classes(). Safe for concurrent use; the warm path
// performs no heap allocations.
func (s *Server) Predict(v int32, out []float32) (Stats, error) {
	if v < 0 || int(v) >= s.numVerts {
		return Stats{}, fmt.Errorf("serve: vertex %d outside [0,%d)", v, s.numVerts)
	}
	if len(out) != s.classes {
		return Stats{}, fmt.Errorf("serve: output buffer has %d slots for %d classes", len(out), s.classes)
	}
	r, _ := s.reqPool.Get().(*request)
	if r == nil {
		r = &request{done: make(chan struct{}, 1)}
	}
	r.vertex, r.out, r.err = v, out, nil
	r.stats = Stats{}
	r.arrive = time.Now()

	e := s.engines[s.layout.Owner(v)]
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		r.out = nil
		s.reqPool.Put(r)
		return Stats{}, ErrClosed
	}
	if s.shedAtDoor(len(e.pending)) {
		e.mu.Unlock()
		r.out = nil
		s.reqPool.Put(r)
		s.met.shed.Add(1)
		return Stats{}, ErrShed
	}
	cur := int(s.maxBatch.Load())
	e.pending = append(e.pending, r)
	isFull := len(e.pending) >= cur
	e.mu.Unlock()

	select {
	case s.arrivals <- struct{}{}:
	default:
	}
	if isFull {
		select {
		case s.full <- struct{}{}:
		default:
		}
	}

	<-r.done
	st, err := r.stats, r.err
	r.out = nil
	s.reqPool.Put(r)
	return st, err
}

// shedAtDoor is admission control (active only with a Deadline): with a
// round-time estimate in hand, a request that would sit behind
// ⌈queued/batch⌉ rounds plus its own cannot meet the budget — reject it
// now, while the caller can still retry elsewhere, rather than time it out
// after queueing. A request arriving at an empty queue is never shed: it
// is the probe. Only a finished round updates the estimate, so if one
// stalled round lifted it over the budget and every arrival were shed, no
// round would run and the estimate could never come back down.
func (s *Server) shedAtDoor(queued int) bool {
	if s.cfg.Deadline <= 0 || queued == 0 {
		return false
	}
	est := s.roundNS.Load()
	if est <= 0 {
		return false
	}
	ahead := int64(queued/int(s.maxBatch.Load())) + 1
	return time.Duration(ahead*est) > s.cfg.Deadline
}

// Close shuts the server down: queued and in-flight requests fail with
// ErrClosed (an in-flight Gather unwinds promptly through the abort
// channel installed on every serving store), the driver and engines exit,
// and the serving communicators are torn down. Safe to call more than
// once.
func (s *Server) Close() error {
	s.closed.Do(func() { close(s.shutdown) })
	s.wg.Wait()
	// A regrown group delivered by the prober but never installed must not
	// leak its comms.
	select {
	case g := <-s.newGroup:
		g.close()
	default:
	}
	s.closeComms()
	return nil
}

func (s *Server) closeComms() {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	for _, c := range s.comms {
		c.Close()
	}
}

// driver owns round formation: it waits for traffic, applies the
// MaxBatch/MaxWait admission policy, and fires lockstep rounds across all
// engines.
//
// The loop is deadline-driven: each iteration either blocks idle on the
// arrivals channel (no request queued anywhere) or knows, from the single
// scan that discovered the queued work, the oldest request's admission
// deadline — and arms the timer exactly once for it. Sub-MaxBatch
// arrivals during the window cannot move that deadline earlier, so they
// cost no wake and no re-scan; only a full batch (the full channel) fires
// the round early. After a round, the queues are re-derived with one scan
// whose result feeds the next admission decision directly — there is no
// self-signal hop back through the arrivals channel, and tokens raised by
// requests the round already served are drained rather than waking the
// driver into an empty re-scan. Net: a lone queued request costs O(1)
// scans (one on arrival, one settling after its round), pinned by
// TestDriverScansO1.
func (s *Server) driver() {
	defer s.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	stopTimer := func() {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
	var (
		oldest time.Time
		queued bool // a request is known queued; oldest is its arrival
		isFull bool
		total  int
	)
	for {
		if !queued {
			select {
			case <-s.shutdown:
				s.failPending()
				return
			case <-s.arrivals:
			}
			oldest, queued, isFull, total = s.scanQueues()
			if !queued {
				continue // raced with a round that served the arrival
			}
		}
		// Admission window: hold the round open until the oldest queued
		// arrival's deadline unless some rank is already full. One timer
		// arm per deadline.
		if !isFull && s.cfg.MaxWait > 0 {
			if wait := time.Until(oldest.Add(s.cfg.MaxWait)); wait > 0 {
				timer.Reset(wait)
				select {
				case <-s.shutdown:
					stopTimer()
					s.failPending()
					return
				case <-s.full:
					stopTimer()
				case <-timer.C:
				}
			}
		}
		round := s.round
		s.round++
		// The round mode is decided here, once, for all K engines: every
		// engine of a round must run the same collective schedule, so a
		// rank cannot decide unilaterally mid-round to skip its gather.
		msg := roundMsg{round: round, gather: s.healthy.Load() || s.cfg.GatherTimeout == 0}
		roundT0 := time.Now()
		for _, e := range s.engines {
			select {
			case e.start <- msg:
			case <-s.shutdown:
				// Engines that already received the round unwind through
				// the comm abort; their final ended signal parks in the
				// buffered channel.
				s.failPending()
				return
			}
		}
		for _, e := range s.engines {
			<-e.ended
		}
		s.observeRoundTime(time.Since(roundT0))
		// A probed healthy group delivered by the regroup goroutine is
		// installed here, between rounds, when no engine touches its store.
		select {
		case g := <-s.newGroup:
			s.installGroup(g)
		default:
		}
		if s.cfg.GatherTimeout > 0 && !s.healthy.Load() && s.regrouping.CompareAndSwap(false, true) {
			s.wg.Add(1)
			go s.regroup()
		}
		// Absorb signals raised by requests this round already served.
		// Draining before the scan is race-free: Predict appends to a
		// queue before signaling, so any request whose token is consumed
		// here is either visible to the scan below (and handled next
		// round) or signals again afterwards (and wakes the idle select).
		select {
		case <-s.full:
		default:
		}
		select {
		case <-s.arrivals:
		default:
		}
		oldest, queued, isFull, total = s.scanQueues()
		s.adaptBatch(total)
	}
}

// roundWindow is how many recent rounds the round-time estimate is the
// median of: one stalled round among them cannot move it, a sustained
// slowdown moves it within five rounds.
const roundWindow = 8

// observeRoundTime records one round's wall time and publishes the median
// of the last roundWindow rounds (the lower middle value when the window
// holds an even count) as the estimate the admission shed and the
// adaptive batch policy read. Only the driver calls it.
func (s *Server) observeRoundTime(d time.Duration) {
	s.roundTimes[s.roundsSeen%roundWindow] = int64(d)
	s.roundsSeen++
	n := min(s.roundsSeen, roundWindow)
	sorted := s.roundTimes
	slices.Sort(sorted[:n])
	s.roundNS.Store(sorted[(n-1)/2])
}

// adaptBatch is the driver's batch-size controller (active only with a
// Deadline): under SLO pressure — rounds consuming more than half the
// budget — it halves the effective batch so rounds finish inside the
// deadline again; under backlog with ample headroom it doubles the batch
// up to maxBatchGrowth×MaxBatch, trading per-request latency for drain
// rate.
func (s *Server) adaptBatch(totalQueued int) {
	if s.cfg.Deadline <= 0 {
		return
	}
	est := s.roundNS.Load()
	if est == 0 {
		return
	}
	cur := s.maxBatch.Load()
	limit := int64(maxBatchGrowth * s.cfg.MaxBatch)
	switch {
	case est > int64(s.cfg.Deadline)/2 && cur > 1:
		s.maxBatch.Store(cur / 2)
	case est < int64(s.cfg.Deadline)/4 && totalQueued > int(cur) && cur < limit:
		next := cur * 2
		if next > limit {
			next = limit
		}
		s.maxBatch.Store(next)
	}
}

// installGroup retires the current comm group (closing its comms and
// banking their wire-byte counters) and swaps in a freshly probed one,
// returning the server to healthy gathering. Called only by the driver,
// between rounds.
func (s *Server) installGroup(g *commGroup) {
	s.cmu.Lock()
	for _, c := range s.comms {
		s.retiredBytes += c.BytesSent()
		c.Close()
	}
	s.comms = g.comms
	s.cmu.Unlock()
	for r, e := range s.engines {
		// A fresh sibling starts on its parent's setup epoch; carry the
		// engine's working epoch over so a regroup doesn't roll the cache
		// back. It already passed validation at its first install, so
		// InstallEpoch cannot fail here.
		if e.online != nil {
			if _, err := g.stores[r].InstallEpoch(&e.work); err != nil {
				panic(fmt.Sprintf("serve: regroup epoch carry-over: %v", err))
			}
		}
		e.store = g.stores[r]
	}
	s.met.regroups.Add(1)
	s.healthy.Store(true)
	s.regrouping.Store(false)
}

// regroup is the background prober launched while the server is degraded:
// it repeatedly builds a candidate comm group and health-checks it,
// delivering the first group whose probe succeeds; the driver installs it
// between rounds. The gather timeout bounds each attempt and also paces
// the retries.
func (s *Server) regroup() {
	defer s.wg.Done()
	for {
		g, err := s.buildGroup(true)
		if err == nil {
			select {
			case s.newGroup <- g:
			case <-s.shutdown:
				g.close()
			}
			return
		}
		select {
		case <-s.shutdown:
			return
		case <-time.After(s.cfg.GatherTimeout):
		}
	}
}

// scanQueues reports the oldest queued arrival, whether any request is
// queued, whether any rank has a full batch waiting, and the total queued
// across ranks (the backlog signal the adaptive batch policy reads).
func (s *Server) scanQueues() (oldest time.Time, any, isFull bool, total int) {
	s.scans.Add(1)
	cur := int(s.maxBatch.Load())
	for _, e := range s.engines {
		e.mu.Lock()
		if n := len(e.pending); n > 0 {
			a := e.pending[0].arrive
			if !any || a.Before(oldest) {
				oldest = a
			}
			any = true
			total += n
			if n >= cur {
				isFull = true
			}
		}
		e.mu.Unlock()
	}
	return oldest, any, isFull, total
}

// failPending marks every engine closed and fails all queued requests.
// Engines executing a round keep going; their requests complete with the
// gather abort error instead.
func (s *Server) failPending() {
	for _, e := range s.engines {
		e.mu.Lock()
		e.stopped = true
		for i, r := range e.pending {
			r.err = ErrClosed
			r.done <- struct{}{}
			e.pending[i] = nil
		}
		e.pending = e.pending[:0]
		e.mu.Unlock()
	}
}

// engine is one rank's serving state: admission queue, sibling store,
// frozen model, sampler worker, and reusable round scratch.
type engine struct {
	srv    *Server
	rank   int
	store  *dist.Store
	model  *nn.Frozen
	worker *sample.Worker
	base   *rng.RNG

	mu      sync.Mutex
	pending []*request
	stopped bool

	// Round scratch, touched only by this engine's executor goroutine.
	// stamp and rowOf are indexed by v-lo: every request routed here is
	// owned by this rank, so the scratch spans one partition interval.
	lo       int32 // first vertex of this rank's partition interval
	batch    []*request
	seeds    []int32
	stamp    []uint64 // (v-lo) -> round+1 marker for batch dedup
	rowOf    []int32  // (v-lo) -> seed row in the current round
	roundRNG rng.RNG  // per-round sampling stream, derived in place

	// Online cache state (nil online in static mode). The executor
	// observes every round and, every refreshEvery rounds, retargets the
	// working epoch — installed in the store since New — to a proposal of
	// at most capacity ids.
	online       *cache.Online
	work         cache.Epoch
	row          func(v int32) []float32 // a dataset row through the store's codec
	capacity     int
	refreshEvery int
	sinceRefresh int

	start chan roundMsg
	ended chan struct{}
}

// refreshCache runs the online cache cycle once per round, after the
// gather: on the refresh cadence it retargets the working epoch to the
// scorer's proposal, writing only the admitted rows. It runs on the
// executor goroutine between this engine's gathers, so no gather reads
// the epoch while it changes, and a new membership is first read by the
// round after the refresh.
func (e *engine) refreshCache() {
	if e.sinceRefresh++; e.sinceRefresh < e.refreshEvery {
		return
	}
	e.sinceRefresh = 0
	start := time.Now()
	if churn, changed := e.work.Retarget(e.online.Propose(e.capacity), e.row); changed {
		e.srv.met.cacheInstalls.Add(1)
		e.srv.met.cacheChurn.Add(int64(churn))
	}
	e.srv.met.cacheRefreshNS.Add(int64(time.Since(start)))
}

// roundMsg is the driver's round order. gather tells every engine of the
// round, uniformly, whether to run the real collective Gather or the
// degraded local fallback — the mode is a round-level property because
// Gather's collectives must stay matched across all K ranks.
type roundMsg struct {
	round  uint64
	gather bool
}

// loop is the engine's executor goroutine: it runs rounds in lockstep with
// its peers until shutdown.
func (e *engine) loop() {
	defer e.srv.wg.Done()
	for {
		select {
		case <-e.srv.shutdown:
			return
		case m := <-e.start:
			e.run(m)
			e.ended <- struct{}{}
		}
	}
}

// noteUnhealthy records a live gather failure: the server flips to
// degraded mode (the driver stops ordering real gathers and starts
// probing for a fresh group) and the failure is classified in metrics.
func (e *engine) noteUnhealthy(err error) {
	s := e.srv
	if errors.Is(err, dist.ErrTimeout) {
		s.met.gatherTimeouts.Add(1)
	}
	s.healthy.Store(false)
}

// run executes one serving round on this rank: snapshot up to the
// effective batch cap of queued requests, coalesce them into a sorted
// deduplicated seed list, sample, gather (matched with every peer, even
// when empty) or fall back to the degraded local gather, forward, and
// reply. All buffers are recycled before returning.
func (e *engine) run(m roundMsg) {
	s := e.srv
	round := m.round
	roundStart := time.Now()

	e.mu.Lock()
	n := len(e.pending)
	if cur := int(s.maxBatch.Load()); n > cur {
		n = cur
	}
	e.batch = append(e.batch[:0], e.pending[:n]...)
	rem := copy(e.pending, e.pending[n:])
	for i := rem; i < len(e.pending); i++ {
		e.pending[i] = nil
	}
	e.pending = e.pending[:rem]
	e.mu.Unlock()

	if s.cfg.Deadline > 0 {
		// Snapshot-time shed: a request whose budget cannot cover this
		// round (queue wait so far plus the round-time estimate) would only
		// waste batch slots on a reply its caller has abandoned. The oldest
		// request is the round's probe (see shedAtDoor): only a budget its
		// own wait has already spent sheds it, never the estimate alone, so
		// a stale estimate is corrected by a served round. The filter
		// rewrites e.batch in place, keeping the warm path allocation-free.
		est := time.Duration(s.roundNS.Load())
		kept := e.batch[:0]
		for i, r := range e.batch {
			wait := roundStart.Sub(r.arrive)
			if wait+est > s.cfg.Deadline && (i > 0 || wait > s.cfg.Deadline) {
				r.err = ErrShed
				s.met.shed.Add(1)
				r.done <- struct{}{}
				continue
			}
			kept = append(kept, r)
		}
		for i := len(kept); i < len(e.batch); i++ {
			e.batch[i] = nil
		}
		e.batch = kept
		n = len(e.batch)
	}

	// Coalesce: concurrent requests for the same vertex share one seed.
	// Sorting makes the micro-batch (and therefore the sampled MFG and the
	// logits) a deterministic function of (round, vertex set), independent
	// of request arrival order.
	mark := round + 1
	e.seeds = e.seeds[:0]
	for _, r := range e.batch {
		if e.stamp[r.vertex-e.lo] != mark {
			e.stamp[r.vertex-e.lo] = mark
			e.seeds = append(e.seeds, r.vertex)
		}
	}
	slices.Sort(e.seeds)
	for i, v := range e.seeds {
		e.rowOf[v-e.lo] = int32(i)
	}

	e.base.SplitInto(round, &e.roundRNG)
	e.worker.SetRNG(&e.roundRNG)
	t0 := time.Now()
	mfg := e.worker.Sample(e.seeds)
	tSample := time.Since(t0)

	// A degraded round (driver-ordered, or a gather failure while the
	// server is up) serves from cache + local shard only: unreachable
	// remote rows are zero-filled and the reply is flagged.
	t0 = time.Now()
	var feats *tensor.Matrix
	var gstats dist.GatherStats
	var err error
	degraded := !m.gather
	if degraded {
		feats, gstats = e.store.GatherLocal(mfg.InputIDs())
	} else {
		feats, gstats, err = e.store.Gather(mfg.InputIDs())
		if err != nil && s.cfg.GatherTimeout > 0 {
			// Degrade in place — unless the failure is the shutdown abort
			// unwinding, in which case requests must fail, not silently get
			// a degraded answer from a server that is going away.
			select {
			case <-s.shutdown:
			default:
				e.noteUnhealthy(err)
				degraded, err = true, nil
				feats, gstats = e.store.GatherLocal(mfg.InputIDs())
			}
		}
	}
	tGather := time.Since(t0)
	// Feed the online policy every successful round — hits and misses both,
	// degraded rounds included (their zero-filled ids were still wanted, and
	// the policy clock must advance with the rounds).
	if e.online != nil && err == nil {
		e.online.Observe(mfg.InputIDs())
	}

	var tCompute time.Duration
	var logits *tensor.Matrix
	if err == nil && len(e.seeds) > 0 {
		t0 = time.Now()
		logits, err = e.model.Forward(mfg, feats)
		tCompute = time.Since(t0)
	}

	// Record the round before replying, so a Snapshot taken as soon as a
	// Predict returns already counts the round that answered it.
	if err == nil {
		s.met.observeRound(n, gstats, tCompute, degraded)
	}
	now := time.Now()
	for i, r := range e.batch {
		if err != nil {
			r.err = err
		} else {
			copy(r.out, logits.Row(int(e.rowOf[r.vertex-e.lo])))
			r.stats = Stats{
				Round: round, BatchSize: n,
				Queue:  roundStart.Sub(r.arrive),
				Sample: tSample, Gather: tGather, Compute: tCompute,
				Total:       now.Sub(r.arrive),
				RemoteFetch: gstats.RemoteFetch, CacheHits: gstats.CacheHits,
				Degraded: degraded, Missing: gstats.Missing,
				CacheGen: e.store.CacheGen(),
			}
			s.met.observeRequest(&r.stats)
		}
		r.done <- struct{}{}
		e.batch[i] = nil
	}
	e.batch = e.batch[:0]
	if feats != nil {
		e.store.Release(feats)
	}
	mfg.Release()
	e.model.ReleaseBatch()
	if e.online != nil {
		e.refreshCache()
	}
}
