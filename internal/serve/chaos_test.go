package serve

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"salientpp/internal/dist"
	"salientpp/internal/rng"
	"salientpp/internal/sample"
)

// chaosWrap installs a dist.Chaos harness on one rank of the serving
// deployment; every other rank gets the raw transport. Because WrapComm is
// re-applied after every regroup, the schedule keeps biting until cleared.
func chaosWrap(ch *dist.Chaos, victim int) func(int, dist.Comm) dist.Comm {
	return func(rank int, c dist.Comm) dist.Comm {
		if rank == victim {
			return ch.Wrap(c)
		}
		return c
	}
}

// TestServeStalledRankDegradesAndRecovers is the headline chaos test: with
// rank 1's NIC wedged (an injected stall), every request still completes
// within a bound — the stalled gather times out, the round degrades to
// cache + local shard, replies are flagged — and once the stall clears,
// the background prober installs a fresh comm group and serving returns to
// normal, with post-recovery predictions bitwise identical to an offline
// replay of the same round.
func TestServeStalledRankDegradesAndRecovers(t *testing.T) {
	cl := serveCluster(t, 2, 0.2, false)
	defer cl.Close()
	if _, err := cl.TrainEpochAll(0); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	const seed = 17
	ch := dist.NewChaos(dist.ChaosConfig{})
	srv, err := New(cl, Config{
		MaxBatch: 4, MaxWait: 200 * time.Microsecond, Seed: seed,
		GatherTimeout: 50 * time.Millisecond,
		WrapComm:      chaosWrap(ch, 1),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Pick a rank-0-owned vertex with remote neighbors so both the healthy
	// and the degraded path are meaningful.
	var v0 int32 = -1
	for v := int32(0); int(v) < cl.Data.NumVertices(); v++ {
		if cl.Layout.Owner(v) == 0 {
			v0 = v
			break
		}
	}
	if v0 < 0 {
		t.Fatal("no rank-0 vertex")
	}
	out := make([]float32, srv.Classes())

	// Phase 1: healthy serving.
	if st, err := srv.Predict(v0, out); err != nil || st.Degraded {
		t.Fatalf("healthy predict: stats %+v, err %v", st, err)
	}

	// Phase 2: wedge rank 1. Every request must still complete — the first
	// round eats the 50ms gather timeout, later rounds run degraded-local
	// and fast. 2s per request is an ample CI-safe bound that a hang (the
	// pre-PR behavior: a stalled peer blocked the collective forever)
	// cannot meet.
	ch.Stall()
	sawDegraded := false
	for i := 0; i < 30; i++ {
		done := make(chan error, 1)
		var st Stats
		go func() {
			var err error
			st, err = srv.Predict(v0, out)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("request %d during stall failed: %v", i, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("request %d hung during the stall: degraded serving is not bounded", i)
		}
		if st.Degraded {
			sawDegraded = true
			for _, x := range out {
				if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
					t.Fatal("degraded logits are non-finite")
				}
			}
		}
	}
	if !sawDegraded {
		t.Fatal("no request was served degraded while rank 1 was stalled")
	}
	mid := srv.Snapshot()
	if mid.Degraded == 0 || mid.DegradedRounds == 0 {
		t.Fatalf("snapshot shows no degraded serving during the stall: %+v", mid)
	}
	if mid.GatherTimeouts == 0 {
		t.Fatalf("stalled gather never counted a timeout: %+v", mid)
	}
	// The per-outcome histogram must have captured the degraded subset,
	// with sane quantile ordering.
	if mid.DegradedP99 <= 0 || mid.DegradedP99 < mid.DegradedP50 {
		t.Fatalf("degraded latency quantiles malformed: p50=%v p99=%v", mid.DegradedP50, mid.DegradedP99)
	}

	// Phase 3: clear the stall; the prober must find a healthy group and
	// the driver must reinstall normal serving.
	ch.Clear()
	deadline := time.Now().Add(10 * time.Second)
	var recovered Stats
	for {
		st, err := srv.Predict(v0, out)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Degraded {
			recovered = st
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("serving still degraded 10s after the stall cleared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if snap := srv.Snapshot(); snap.Regroups == 0 {
		t.Fatalf("recovery happened without a recorded regroup: %+v", snap)
	}

	// Phase 4: post-recovery serving is bitwise-normal. The recovered
	// request ran alone in its round, so an offline replay of that round's
	// seed stream over the parent stores must reproduce its logits exactly.
	if recovered.BatchSize != 1 {
		// Retry with a quiet server until the request is alone in a round.
		for i := 0; i < 50 && recovered.BatchSize != 1; i++ {
			if recovered, err = srv.Predict(v0, out); err != nil {
				t.Fatal(err)
			}
		}
	}
	if recovered.BatchSize != 1 {
		t.Fatalf("could not get a singleton round; batch %d", recovered.BatchSize)
	}
	smp, err := sample.NewSampler(cl.Data.Graph, []int{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	w := smp.NewWorker(rng.New(seed).Split(0).Split(recovered.Round))
	mfg := w.Sample([]int32{v0})
	peerDone := make(chan error, 1)
	go func() {
		_, _, err := cl.Ranks[1].Store().Gather(nil)
		peerDone <- err
	}()
	feats, _, err := cl.Ranks[0].Store().Gather(mfg.InputIDs())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-peerDone; err != nil {
		t.Fatal(err)
	}
	logits, err := cl.Ranks[0].Model().Forward(mfg, feats, false)
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range logits.Row(0) {
		if math.Float32bits(out[j]) != math.Float32bits(want) {
			t.Fatalf("post-recovery logit %d: served %v, offline %v (must be bitwise identical)",
				j, out[j], want)
		}
	}

	// Phase 5: nothing leaked across the degrade/regroup cycle.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for i, e := range srv.engines {
		if live := e.store.Live(); live != 0 {
			t.Fatalf("engine %d leaked %d pooled matrices", i, live)
		}
	}
	waitServeGoroutines(t, baseline)
}

// TestServeDeadRankStaysAvailable: an injected permanent rank death (every
// collective fails instantly from DropAtCall on, including the prober's
// health checks) must leave the server degraded but available — every
// request answered, none hung — and Close must still tear everything down
// while the prober is mid-retry.
func TestServeDeadRankStaysAvailable(t *testing.T) {
	cl := serveCluster(t, 2, 0.2, false)
	defer cl.Close()
	baseline := runtime.NumGoroutine()

	ch := dist.NewChaos(dist.ChaosConfig{DropAtCall: 1})
	srv, err := New(cl, Config{
		MaxBatch: 4, MaxWait: 200 * time.Microsecond, Seed: 9,
		GatherTimeout: 50 * time.Millisecond,
		WrapComm:      chaosWrap(ch, 1),
	})
	if err != nil {
		t.Fatal(err)
	}

	n := int32(cl.Data.NumVertices())
	out := make([]float32, srv.Classes())
	r := rng.New(4)
	degraded := 0
	for i := 0; i < 40; i++ {
		done := make(chan error, 1)
		var st Stats
		go func(v int32) {
			var err error
			st, err = srv.Predict(v, out)
			done <- err
		}(int32(r.Intn(int(n))))
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("request %d on the dead-rank server failed: %v", i, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("request %d hung on the dead-rank server", i)
		}
		if st.Degraded {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("no degraded replies despite a dead rank")
	}
	snap := srv.Snapshot()
	if snap.Regroups != 0 {
		t.Fatalf("a regroup succeeded against a permanently dead rank: %+v", snap)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitServeGoroutines(t, baseline)
}

// TestServeShutdownWhileStalled closes the server while a gather is parked
// inside an uncleared stall with a generous timeout: the abort channel
// must unwind it promptly, requests fail (not silently degrade), and
// nothing leaks.
func TestServeShutdownWhileStalled(t *testing.T) {
	cl := serveCluster(t, 2, 0.2, false)
	defer cl.Close()
	baseline := runtime.NumGoroutine()

	ch := dist.NewChaos(dist.ChaosConfig{})
	srv, err := New(cl, Config{
		MaxBatch: 2, MaxWait: -1, Seed: 6,
		GatherTimeout: 30 * time.Second, // never fires in this test
		WrapComm:      chaosWrap(ch, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	ch.Stall()

	var failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := make([]float32, srv.Classes())
			if _, err := srv.Predict(int32(c), out); err != nil {
				failed.Add(1)
			}
		}(c)
	}
	time.Sleep(50 * time.Millisecond) // let the round park in the stall
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung: the shutdown abort does not reach a stalled collective")
	}
	wg.Wait()
	if failed.Load() == 0 {
		t.Fatal("shutdown mid-stall failed no requests: a degraded reply leaked past Close")
	}
	for i, e := range srv.engines {
		if live := e.store.Live(); live != 0 {
			t.Fatalf("engine %d leaked %d pooled matrices", i, live)
		}
	}
	waitServeGoroutines(t, baseline)
}

// TestServeShedsWhenBudgetExceeded pins admission control: before any
// estimate exists no arrival is shed at the door, however deep the queue;
// with a round-time estimate that makes the budget hopeless, a request
// arriving behind a queue is shed at the door, but one arriving at an
// empty queue is admitted — it is the probe whose round refreshes the
// estimate; when the estimate falls back inside the budget, queued
// arrivals are admitted again. A live server's first request is served.
// The snapshot-time shed of a probe whose own queue wait passed Deadline
// is pinned by TestServeShedsProbeWhoseWaitPassedDeadline.
func TestServeShedsWhenBudgetExceeded(t *testing.T) {
	cl := serveCluster(t, 2, 0, false)
	defer cl.Close()
	// A budget no queue wait on a loaded test machine can spend: this
	// checks only that the door admits the first request.
	srv, err := New(cl, Config{
		MaxBatch: 4, MaxWait: -1, Seed: 2, Deadline: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	out := make([]float32, srv.Classes())
	if _, err := srv.Predict(0, out); err != nil {
		t.Fatalf("first request shed before any estimate existed: %v", err)
	}

	// The door rule itself, on a driver-free server so no finished round
	// can overwrite the scripted estimate.
	s := &Server{cfg: Config{MaxBatch: 4, Deadline: 5 * time.Millisecond}.withDefaults()}
	s.maxBatch.Store(4)
	for q := 0; q <= 1000; q++ {
		if s.shedAtDoor(q) {
			t.Fatalf("an arrival behind %d queued requests was shed before any estimate existed", q)
		}
	}
	s.roundNS.Store(int64(time.Second)) // hopeless: one round alone exceeds the budget
	if !s.shedAtDoor(1) || !s.shedAtDoor(9) {
		t.Fatal("a queued arrival under a hopeless estimate was admitted")
	}
	if s.shedAtDoor(0) {
		t.Fatal("an arrival at an empty queue was shed: nothing would ever refresh the estimate")
	}
	s.roundNS.Store(int64(time.Millisecond)) // recovered
	if s.shedAtDoor(3) {
		t.Fatal("a queued arrival was shed after the estimate recovered")
	}
	if !s.shedAtDoor(20) { // ⌈20/4⌉+1 = 6 rounds ahead > 5ms
		t.Fatal("a deep queue was admitted past the budget")
	}
	s.cfg.Deadline = 0
	if s.shedAtDoor(1000) {
		t.Fatal("admission control shed without a Deadline")
	}
}

// TestServeShedsProbeWhoseWaitPassedDeadline pins the snapshot-time shed
// of a round's probe: a request admitted at the door (empty queue, no
// estimate yet) that then waits behind a stalled round past Deadline is
// shed when its own round snapshots the queue, because its caller's budget
// is already spent; the stalled round's own request is still served.
func TestServeShedsProbeWhoseWaitPassedDeadline(t *testing.T) {
	cl := serveCluster(t, 2, 0.1, false)
	defer cl.Close()
	const deadline = 20 * time.Millisecond
	ch := dist.NewChaos(dist.ChaosConfig{})
	srv, err := New(cl, Config{
		MaxBatch: 4, MaxWait: -1, Seed: 9, Deadline: deadline,
		// The stalled round completes late instead of degrading.
		GatherTimeout: 10 * time.Second,
		WrapComm:      chaosWrap(ch, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer ch.Clear()

	ch.Stall()
	before := ch.Calls()
	first := make(chan error, 1)
	go func() {
		_, err := srv.Predict(1, make([]float32, srv.Classes()))
		first <- err
	}()
	// Once a collective has hit the stall gate, the first request's round
	// has snapshotted the queue: the next arrival waits behind it.
	for limit := time.Now().Add(5 * time.Second); ch.Calls() == before; {
		if time.Now().After(limit) {
			t.Fatal("the first request's round never reached a collective")
		}
		time.Sleep(time.Millisecond)
	}
	second := make(chan error, 1)
	go func() {
		_, err := srv.Predict(2, make([]float32, srv.Classes()))
		second <- err
	}()
	time.Sleep(3 * deadline)
	ch.Clear()
	if err := <-first; err != nil {
		t.Fatalf("the stalled round's request: %v", err)
	}
	if err := <-second; !errors.Is(err, ErrShed) {
		t.Fatalf("a probe that waited %v past a %v Deadline got %v, want ErrShed", 3*deadline, deadline, err)
	}
	if snap := srv.Snapshot(); snap.Shed != 1 {
		t.Fatalf("snapshot counts %d shed, want 1", snap.Shed)
	}
}

// TestServeShedRecoversAfterStall pins the escape from admission latch-up:
// a sustained stall — five rounds in a row each stalled 60ms past a 25ms
// Deadline, a majority of the median's window — lifts the round-time
// estimate over the budget. Before the fix every later arrival was shed at
// the door, so no round ran and the estimate never came down — a permanent
// outage from one noisy-neighbour stall. Now an arrival at an empty queue
// is the probe, so serving resumes within a bounded number of rounds, the
// estimate falls back inside the budget, and every offered request is
// accounted for as served, shed, or failed.
func TestServeShedRecoversAfterStall(t *testing.T) {
	cl := serveCluster(t, 2, 0.1, false)
	defer cl.Close()
	const deadline = 25 * time.Millisecond
	ch := dist.NewChaos(dist.ChaosConfig{})
	srv, err := New(cl, Config{
		MaxBatch: 4, MaxWait: -1, Seed: 8, Deadline: deadline,
		// A long gather timeout keeps the stalled round on the healthy path:
		// it completes late instead of degrading, which is what lifts the
		// estimate.
		GatherTimeout: 10 * time.Second,
		WrapComm:      chaosWrap(ch, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	out := make([]float32, srv.Classes())
	var offered, served, shed, failed int64
	predict := func(v int32) error {
		offered++
		_, err := srv.Predict(v, out)
		switch {
		case err == nil:
			served++
		case errors.Is(err, ErrShed):
			shed++
		default:
			failed++
		}
		return err
	}

	for i := 0; i < 5; i++ { // a healthy estimate, well inside the budget
		predict(int32(i))
	}
	for i := 0; i < 5; i++ {
		ch.Stall()
		unstall := time.AfterFunc(60*time.Millisecond, ch.Clear)
		if err := predict(int32(7 + i)); err != nil {
			unstall.Stop()
			t.Fatalf("request riding stalled round %d: %v", i, err)
		}
	}
	// The driver folds the stalled round in after replying; wait for it.
	for limit := time.Now().Add(5 * time.Second); time.Duration(srv.roundNS.Load()) <= deadline; {
		if time.Now().After(limit) {
			t.Fatalf("five 60ms rounds left the estimate at %v, inside the %v budget: the test no longer reproduces the latch",
				time.Duration(srv.roundNS.Load()), deadline)
		}
		time.Sleep(time.Millisecond)
	}

	// Recovery: each arrival finds an empty queue. Shedding must stop
	// within a bound, and the estimate must come back inside the budget.
	const bound, tail = 8, 40
	lastShed := -1
	for i := 0; i < bound+tail; i++ {
		if errors.Is(predict(int32(i%97)), ErrShed) {
			lastShed = i
		}
	}
	if lastShed >= bound {
		t.Fatalf("request %d after the stall was still shed (bound %d): admission is latched", lastShed, bound)
	}
	if est := time.Duration(srv.roundNS.Load()); est > deadline {
		t.Fatalf("estimate still %v after %d post-stall rounds, budget %v", est, bound+tail, deadline)
	}
	snap := srv.Snapshot()
	if failed != 0 || offered != served+shed+failed {
		t.Fatalf("offered %d != served %d + shed %d + failed %d", offered, served, shed, failed)
	}
	if snap.Requests != served || snap.Shed != shed {
		t.Fatalf("snapshot %d served / %d shed, callers saw %d / %d", snap.Requests, snap.Shed, served, shed)
	}
}

// TestServeAccountsEveryRequestUnderOverload pins explicit shedding under a
// real overload: a concurrent Predict burst against rounds slowed (a seeded
// 2ms delay on each of rank 1's collectives) past the 5ms Deadline. Every
// call must end in a reply or ErrShed — never another error, never a
// silent drop — and the snapshot must account for each call exactly once
// as served or shed.
func TestServeAccountsEveryRequestUnderOverload(t *testing.T) {
	cl := serveCluster(t, 2, 0.1, false)
	defer cl.Close()
	slow := dist.NewChaos(dist.ChaosConfig{Seed: 4, SlowEveryN: 1, SlowDelay: 2 * time.Millisecond})
	srv, err := New(cl, Config{
		MaxBatch: 4, MaxWait: -1, Seed: 4, Deadline: 5 * time.Millisecond,
		// A long gather timeout keeps every round on the healthy path, so
		// shedding is the only way a request can miss its budget.
		GatherTimeout: time.Minute,
		WrapComm:      chaosWrap(slow, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const callers, perCaller = 32, 8
	n := cl.Data.NumVertices()
	var served, shed atomic.Int64
	errCh := make(chan error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(13).Split(uint64(c))
			out := make([]float32, srv.Classes())
			for i := 0; i < perCaller; i++ {
				_, err := srv.Predict(int32(r.Intn(n)), out)
				switch {
				case err == nil:
					served.Add(1)
				case errors.Is(err, ErrShed):
					shed.Add(1)
				default:
					errCh <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("overloaded Predict failed with neither a reply nor ErrShed: %v", err)
	default:
	}
	snap := srv.Snapshot()
	t.Logf("%d calls: %d served, %d shed", callers*perCaller, snap.Requests, snap.Shed)
	if got := snap.Requests + snap.Shed; got != callers*perCaller {
		t.Fatalf("snapshot accounts %d served + %d shed = %d of %d calls", snap.Requests, snap.Shed, got, callers*perCaller)
	}
	if snap.Requests != served.Load() || snap.Shed != shed.Load() {
		t.Fatalf("snapshot %d served / %d shed, callers saw %d / %d", snap.Requests, snap.Shed, served.Load(), shed.Load())
	}
	if snap.Shed == 0 {
		t.Fatalf("a %d-call burst against slowed rounds shed nothing: the test no longer overloads", callers*perCaller)
	}
}

// TestRoundTimeEstimateIsWindowedMedian unit-tests the admission estimate:
// one 150ms outlier among 25ms rounds never lifts it, at any fill of the
// window, while a slowdown held for a majority of the window does; and
// recording a round allocates nothing.
func TestRoundTimeEstimateIsWindowedMedian(t *testing.T) {
	const fast, slow = 25 * time.Millisecond, 150 * time.Millisecond
	s := &Server{}
	est := func() time.Duration { return time.Duration(s.roundNS.Load()) }
	for i := 0; i < 3*roundWindow; i++ {
		d := fast
		if i == 1 || i == roundWindow+3 {
			d = slow
		}
		s.observeRoundTime(d)
		if est() != fast {
			t.Fatalf("round %d (%v): estimate %v, want %v", i, d, est(), fast)
		}
	}
	for i := 1; i <= roundWindow/2+1; i++ {
		s.observeRoundTime(slow)
		want := fast
		if i > roundWindow/2 {
			want = slow
		}
		if est() != want {
			t.Fatalf("after %d slow rounds: estimate %v, want %v", i, est(), want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { s.observeRoundTime(fast) }); allocs != 0 {
		t.Fatalf("recording a round allocated %.1f times, want 0", allocs)
	}
}

// TestAdaptiveBatchBounds unit-tests the driver's batch controller: halve
// under SLO pressure with a floor of 1, double under backlog with ample
// headroom up to 8×MaxBatch, hold otherwise.
func TestAdaptiveBatchBounds(t *testing.T) {
	s := &Server{cfg: Config{
		MaxBatch: 4, Deadline: 10 * time.Millisecond,
	}.withDefaults()}
	s.maxBatch.Store(4)

	// Rounds eating >Deadline/2: shrink, down to the floor.
	s.roundNS.Store(int64(8 * time.Millisecond))
	for _, want := range []int64{2, 1, 1} {
		s.adaptBatch(100)
		if got := s.maxBatch.Load(); got != want {
			t.Fatalf("shrink: batch %d, want %d", got, want)
		}
	}

	// Fast rounds + backlog: grow, capped at 8×MaxBatch.
	s.roundNS.Store(int64(time.Millisecond))
	for _, want := range []int64{2, 4, 8, 16, 32, 32} {
		s.adaptBatch(1000)
		if got := s.maxBatch.Load(); got != want {
			t.Fatalf("grow: batch %d, want %d", got, want)
		}
	}

	// Fast rounds without backlog: hold.
	s.adaptBatch(3)
	if got := s.maxBatch.Load(); got != 32 {
		t.Fatalf("hold: batch moved to %d", got)
	}

	// No deadline: the controller is inert.
	s2 := &Server{cfg: Config{MaxBatch: 4}.withDefaults()}
	s2.maxBatch.Store(4)
	s2.roundNS.Store(int64(time.Hour))
	s2.adaptBatch(1000)
	if got := s2.maxBatch.Load(); got != 4 {
		t.Fatalf("deadline-free batch moved to %d", got)
	}
}

// waitServeGoroutines waits for the goroutine count to settle back to the
// pre-server baseline, dumping stacks on timeout.
func waitServeGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("serving goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
