package serve

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"salientpp/internal/rng"
)

// testOnlineCacheSwapUnderLoad hammers an online-cache server from many
// goroutines with a drifting hot set, so every engine retargets its
// working epoch while its peers' gathers are in flight — the exact
// interleaving the -race CI job is pointed at. Afterwards it checks that
// installs actually happened, that every answer stayed finite, that every
// engine still serves from its working epoch, and that shutdown returns
// every pooled matrix.
func testOnlineCacheSwapUnderLoad(t *testing.T, useTCP bool) {
	cl := serveCluster(t, 2, 0.2, useTCP)
	defer cl.Close()
	srv, err := New(cl, Config{
		MaxBatch: 8, MaxWait: 200 * time.Microsecond, Seed: 3, UseTCP: useTCP,
		Cache: "online", CacheRefreshRounds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	const clients, perClient = 8, 40
	n := int32(cl.Data.NumVertices())
	var wg sync.WaitGroup
	var maxGen atomic.Uint64
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(41).Split(uint64(c))
			out := make([]float32, srv.Classes())
			for i := 0; i < perClient; i++ {
				// Drifting hot window: most requests hit a small rotating
				// slice of the vertex space so the online scorer keeps
				// re-proposing membership.
				hotBase := int32(i/8) * 37 % n
				v := (hotBase + int32(r.Intn(24))) % n
				if r.Float64() < 0.2 {
					v = int32(r.Intn(int(n)))
				}
				st, err := srv.Predict(v, out)
				if err != nil {
					errCh <- err
					return
				}
				for g := maxGen.Load(); st.CacheGen > g; g = maxGen.Load() {
					if maxGen.CompareAndSwap(g, st.CacheGen) {
						break
					}
				}
				for _, x := range out {
					if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
						errCh <- errors.New("non-finite logit under cache swaps")
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	snap := srv.Snapshot()
	if snap.Requests != clients*perClient {
		t.Fatalf("served %d requests, want %d", snap.Requests, clients*perClient)
	}
	if snap.CacheInstalls == 0 {
		t.Fatal("no cache epochs installed under drifting load")
	}
	if snap.CacheChurnRows == 0 {
		t.Fatal("installs reported but zero churn rows")
	}
	if maxGen.Load() == 0 {
		t.Fatal("no request ever observed an installed generation")
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for i, e := range srv.engines {
		if e.online == nil || e.store.Epoch() != &e.work {
			t.Fatalf("engine %d does not serve from its working epoch", i)
		}
		if live := e.store.Live(); live != 0 {
			t.Fatalf("engine %d leaked %d pooled matrices at shutdown", i, live)
		}
	}
}

func TestOnlineCacheSwapUnderLoad(t *testing.T)    { testOnlineCacheSwapUnderLoad(t, false) }
func TestOnlineCacheSwapUnderLoadTCP(t *testing.T) { testOnlineCacheSwapUnderLoad(t, true) }

// testOnlineCacheShutdownReleasesEpochs pulls the plug under refresh-every-
// round load: Close races rounds that retarget their engines' working
// epochs. Every client must unwind, every pooled matrix must come back,
// and no serving goroutine may linger.
func testOnlineCacheShutdownReleasesEpochs(t *testing.T, useTCP bool) {
	cl := serveCluster(t, 2, 0.2, useTCP)
	defer cl.Close()
	baseline := runtime.NumGoroutine()
	srv, err := New(cl, Config{
		MaxBatch: 4, MaxWait: 100 * time.Microsecond, Seed: 9, UseTCP: useTCP,
		Cache: "online", CacheRefreshRounds: 1, // retarget every round
	})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 6
	n := int32(cl.Data.NumVertices())
	served := make(chan struct{}, clients*1000)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(17).Split(uint64(c))
			out := make([]float32, srv.Classes())
			for {
				// Rotating hot set keeps proposals churning.
				v := (int32(r.Intn(32)) + int32(r.Intn(4))*400) % n
				if _, err := srv.Predict(v, out); err != nil {
					return
				}
				select {
				case served <- struct{}{}:
				default:
				}
			}
		}(c)
	}
	for i := 0; i < 30; i++ {
		<-served
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	unwound := make(chan struct{})
	go func() { wg.Wait(); close(unwound) }()
	select {
	case <-unwound:
	case <-time.After(10 * time.Second):
		t.Fatal("clients still blocked 10s after Close")
	}

	for i, e := range srv.engines {
		if live := e.store.Live(); live != 0 {
			t.Fatalf("engine %d: %d pooled matrices still live after Close", i, live)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			nb := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after Close: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:nb])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestOnlineCacheShutdownReleasesEpochs(t *testing.T) {
	testOnlineCacheShutdownReleasesEpochs(t, false)
}
func TestOnlineCacheShutdownReleasesEpochsTCP(t *testing.T) {
	testOnlineCacheShutdownReleasesEpochs(t, true)
}

// TestServeStaticCacheDefaultUnchanged pins the refactor's compatibility
// promise at the serving surface: a server with no cache mode configured
// and one with Cache: "static" must answer a same-seed sequential workload
// with bitwise-identical logits, never install an epoch, and never advance
// the cache generation — the versioned cache layer is invisible until
// opted into.
func TestServeStaticCacheDefaultUnchanged(t *testing.T) {
	cl := serveCluster(t, 2, 0.2, false)
	defer cl.Close()
	run := func(mode string) [][]float32 {
		srv, err := New(cl, Config{MaxBatch: 4, Seed: 6, Cache: mode})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		r := rng.New(23)
		n := int32(cl.Data.NumVertices())
		var outs [][]float32
		for i := 0; i < 40; i++ {
			out := make([]float32, srv.Classes())
			st, err := srv.Predict(int32(r.Intn(int(n))), out)
			if err != nil {
				t.Fatal(err)
			}
			if st.CacheGen != 0 {
				t.Fatalf("static serve advanced the cache generation to %d", st.CacheGen)
			}
			outs = append(outs, out)
		}
		snap := srv.Snapshot()
		if snap.CacheInstalls != 0 || snap.CacheChurnRows != 0 {
			t.Fatalf("static serve installed epochs: %+v", snap)
		}
		return outs
	}
	def, static := run(""), run("static")
	for i := range def {
		for j := range def[i] {
			if def[i][j] != static[i][j] {
				t.Fatalf("request %d logit %d: default %v != static %v", i, j, def[i][j], static[i][j])
			}
		}
	}
}

// TestServeRejectsUnknownCacheMode covers the config validation path.
func TestServeRejectsUnknownCacheMode(t *testing.T) {
	cl := serveCluster(t, 2, 0.2, false)
	defer cl.Close()
	if _, err := New(cl, Config{Cache: "lru"}); err == nil {
		t.Fatal("unknown cache mode accepted")
	}
}

// TestOnlineCacheBeatsStaticUnderDrift pins what the online cache layer is
// for: under a workload whose hot set moves, the drift-tracking policy's
// steady-state hit rate beats the pinned static cache at equal capacity.
// Window w draws every request from hot set w — a disjoint slice of a
// seeded vertex permutation, so each window's heat is genuinely new — and
// client streams are seeded per (window, client), so the static and online
// passes over the one cluster replay identical request sequences and only
// the policy differs. Window 0 is left out of the steady state: the online
// scorer starts cold on the static prefix.
func TestOnlineCacheBeatsStaticUnderDrift(t *testing.T) {
	const (
		alpha     = 0.05
		windows   = 5
		hotN      = 4
		clients   = 4
		perClient = 120
	)
	cl := serveCluster(t, 2, alpha, false)
	defer cl.Close()
	n := cl.Data.NumVertices()
	perm := rng.New(0xd41f7).Perm(n)

	// run serves the drift workload and returns the steady-state hit rate
	// and the cache epochs installed over the whole run.
	run := func(mode string) (hitRate float64, installs int64) {
		srv, err := New(cl, Config{
			MaxBatch: 32, MaxWait: time.Millisecond, Seed: 7,
			Cache: mode, CacheRefreshRounds: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		var warm Snapshot
		for w := 0; w < windows; w++ {
			var wg sync.WaitGroup
			errCh := make(chan error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					r := rng.New(0xdf1).Split(uint64(w)).Split(uint64(c))
					out := make([]float32, srv.Classes())
					for i := 0; i < perClient; i++ {
						v := perm[(w*hotN+r.Intn(hotN))%n]
						if _, err := srv.Predict(v, out); err != nil {
							errCh <- err
							return
						}
					}
				}(c)
			}
			wg.Wait()
			select {
			case err := <-errCh:
				t.Fatal(err)
			default:
			}
			if w == 0 {
				warm = srv.Snapshot()
			}
		}
		snap := srv.Snapshot()
		hits := snap.CacheHits - warm.CacheHits
		remote := snap.RemoteFetches - warm.RemoteFetches
		if hits+remote == 0 {
			t.Fatalf("%s pass recorded no remote-classified accesses", mode)
		}
		return float64(hits) / float64(hits+remote), snap.CacheInstalls
	}

	staticRate, staticInstalls := run("static")
	onlineRate, onlineInstalls := run("online")
	t.Logf("steady-state hit rate: online %.3f vs static %.3f (%d installs)", onlineRate, staticRate, onlineInstalls)
	if staticInstalls != 0 {
		t.Fatalf("static pass installed %d cache epochs", staticInstalls)
	}
	if onlineInstalls <= 0 {
		t.Fatal("online pass installed no cache epochs")
	}
	if onlineRate <= staticRate {
		t.Fatalf("online cache did not beat static under drift: online %.4f <= static %.4f", onlineRate, staticRate)
	}
}

// driftStream returns a sequential request stream of n vertices whose hot
// set moves every 8 requests, so an online cache keeps re-admitting.
func driftStream(numVerts, n int) []int32 {
	r := rng.New(0x5eed)
	verts := make([]int32, n)
	for i := range verts {
		verts[i] = int32((i/8*211 + r.Intn(6)) % numVerts)
	}
	return verts
}

// TestOnlineAdmissionsHydrateThroughCodec: an online cache admits rows as
// a fetch of them decodes them, so under fp16 a vertex reads the same
// features whether an admitted slot or the wire serves it. After installs
// on an fp16 cluster, every occupied slot of every engine's epoch holds
// the cluster codec's round trip of the dataset row.
func TestOnlineAdmissionsHydrateThroughCodec(t *testing.T) {
	cl := serveClusterCodec(t, 2, 0.2, false, "fp16")
	defer cl.Close()
	srv, err := New(cl, Config{MaxBatch: 4, MaxWait: -1, Seed: 4, Cache: "online", CacheRefreshRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float32, srv.Classes())
	for _, v := range driftStream(cl.Data.NumVertices(), 96) {
		if _, err := srv.Predict(v, out); err != nil {
			t.Fatal(err)
		}
	}
	if srv.Snapshot().CacheInstalls == 0 {
		t.Fatal("no installs: the stream does not exercise admissions")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	want := make([]float32, cl.Data.FeatureDim)
	admitted := 0
	for i, e := range srv.engines {
		ep := e.store.Epoch()
		for s, v := range ep.IDs() {
			if v < 0 {
				continue
			}
			if !srv.parents[i].SetupEpoch().Index.Has(v) {
				admitted++
			}
			e.store.Codec().RoundTripRow(want, cl.Data.FeatureRow(v))
			if !slices.Equal(ep.Rows.Row(s), want) {
				t.Fatalf("engine %d slot %d: row of %d is not its fp16 round trip", i, s, v)
			}
		}
	}
	if admitted == 0 {
		t.Fatal("no engine's epoch holds an online admission after Close")
	}
}

// TestCacheRefreshSecondsCounted: the wall time of the online refreshes
// shows in Snapshot.CacheRefreshSeconds once a refresh interval has passed,
// and a static server, which never refreshes, reports none.
func TestCacheRefreshSecondsCounted(t *testing.T) {
	cl := serveCluster(t, 2, 0.2, false)
	defer cl.Close()
	for _, mode := range []string{"online", "static"} {
		srv, err := New(cl, Config{MaxBatch: 4, MaxWait: -1, Seed: 9, Cache: mode, CacheRefreshRounds: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Sequential requests take one round each, and a round starts only
		// after every engine has ended the previous one, refresh included:
		// the third request's round follows the second round's refresh.
		out := make([]float32, srv.Classes())
		for _, v := range driftStream(cl.Data.NumVertices(), 3) {
			if _, err := srv.Predict(v, out); err != nil {
				t.Fatal(err)
			}
		}
		snap := srv.Snapshot()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if online := mode == "online"; online != (snap.CacheRefreshSeconds > 0) {
			t.Fatalf("%s server after %d rounds: CacheRefreshSeconds = %v", mode, snap.Rounds, snap.CacheRefreshSeconds)
		}
	}
}

// TestOnlineServeCrossTransportDeterminism: the round on which an online
// install is first read is a function of the round count alone, so an
// in-process and a loopback-TCP server fed the same sequential request
// stream answer every request alike — logits, cache generation, cache
// hits and remote fetches.
func TestOnlineServeCrossTransportDeterminism(t *testing.T) {
	cl := serveCluster(t, 2, 0.2, false)
	defer cl.Close()
	verts := driftStream(cl.Data.NumVertices(), 96)
	type answer struct {
		logits            []float32
		gen               uint64
		hits, remoteFetch int
	}
	run := func(useTCP bool) []answer {
		srv, err := New(cl, Config{MaxBatch: 4, MaxWait: -1, Seed: 8, UseTCP: useTCP, Cache: "online", CacheRefreshRounds: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		var got []answer
		for _, v := range verts {
			out := make([]float32, srv.Classes())
			st, err := srv.Predict(v, out)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, answer{out, st.CacheGen, st.CacheHits, st.RemoteFetch})
		}
		return got
	}
	local, tcp := run(false), run(true)
	if local[len(local)-1].gen == 0 {
		t.Fatal("no request saw an install: the stream does not exercise the online cache")
	}
	for i := range local {
		if !reflect.DeepEqual(local[i], tcp[i]) {
			t.Fatalf("request %d (vertex %d): in-process %+v != TCP %+v", i, verts[i], local[i], tcp[i])
		}
	}
}

// TestRetargetRewritesOnlyAdmittedSlots is the serving twin of the
// training cache's slot-stability test: a refresh writes only the slots
// it admits into, and every occupied slot holds its id's row (as the
// cluster's codec delivers it), at the index's slot for that id.
func TestRetargetRewritesOnlyAdmittedSlots(t *testing.T) {
	cl := serveCluster(t, 2, 0.2, false)
	defer cl.Close()
	srv, err := New(cl, Config{MaxBatch: 4, MaxWait: -1, Seed: 5, Cache: "online"})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float32, srv.Classes())
	for _, v := range driftStream(cl.Data.NumVertices(), 16) {
		if _, err := srv.Predict(v, out); err != nil {
			t.Fatal(err)
		}
	}
	// With the executors stopped, this goroutine drives the refreshes.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	n := int32(cl.Data.NumVertices())
	admitted := 0
	for i, e := range srv.engines {
		w, dim := &e.work, cl.Data.FeatureDim
		want := make([]float32, dim)
		for refresh := 0; refresh < 6; refresh++ {
			beforeIDs, beforeRows := slices.Clone(w.IDs()), slices.Clone(w.Rows.Data)
			hot := make([]int32, 40)
			for j := range hot {
				hot[j] = (int32(refresh*307+j*13) + n/3) % n
			}
			e.online.Observe(hot)
			e.sinceRefresh = e.refreshEvery - 1
			e.refreshCache()
			for s, v := range w.IDs() {
				row := w.Rows.Data[s*dim : (s+1)*dim]
				if v == beforeIDs[s] && !slices.Equal(row, beforeRows[s*dim:(s+1)*dim]) {
					t.Fatalf("engine %d refresh %d rewrote slot %d, which it does not admit into", i, refresh, s)
				}
				if v < 0 {
					continue
				}
				if v != beforeIDs[s] {
					admitted++
				}
				if slot, ok := w.Index.Slot(v); !ok || slot != int32(s) {
					t.Fatalf("engine %d: slot %d holds %d, whose index entry is %d,%v", i, s, v, slot, ok)
				}
				e.store.Codec().RoundTripRow(want, cl.Data.FeatureRow(v))
				if !slices.Equal(row, want) {
					t.Fatalf("engine %d: slot %d does not hold the row of %d", i, s, v)
				}
			}
		}
	}
	if admitted == 0 {
		t.Fatal("fixture drifted: no refresh admitted anything")
	}
}
