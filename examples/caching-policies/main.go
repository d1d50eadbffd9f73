// Caching policies: a miniature of the paper's Figure 2. Partition a
// power-law graph, then compare every static caching policy — degree,
// 1-hop halo, weighted reverse PageRank, path counting, simulated access
// frequencies, analytic VIP, and the retroactive oracle — by the remote
// communication volume each leaves at several replication factors.
//
// The second half leaves Figure 2's static world: the access
// distribution drifts (a small hot set rotates every window) and the
// frozen setup-time prefix is replayed against the online policy — a
// frequency-decayed scorer that re-proposes the cache membership as it
// watches the stream — at the same capacity. The setup prefix is optimal
// for window 0 and decays from there; the online cache re-learns each
// hot set within a window.
//
// Run with:
//
//	go run ./examples/caching-policies
package main

import (
	"fmt"
	"log"
	"sort"

	"salientpp/internal/cache"
	"salientpp/internal/dataset"
	"salientpp/internal/experiments"
	"salientpp/internal/metrics"
	"salientpp/internal/rng"
)

// seed pins the dataset, partition, and policy evaluation streams so
// repeated runs are identical.
const seed = 11

func main() {
	log.SetFlags(0)

	ds, err := dataset.PapersSim(30000, false, seed)
	if err != nil {
		log.Fatal(err)
	}
	const k = 4
	dep, err := experiments.Deploy(ds, k, experiments.ModelDims{Hidden: 256, Fanouts: []int{15, 10, 5}}, 64, false, seed, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s, %d-way partition, fanouts (15,10,5), batch 64\n\n", ds.Name, k)

	alphas := []float64{0.05, 0.20, 0.50}
	const evalEpochs = 4
	const evalSeed = 777

	// Measure each partition's access counts once; every policy and α is
	// then evaluated exactly on the same epochs.
	table := metrics.NewTable("per-epoch remote fetch volume (vertices); lower is better",
		"policy", "α=0.05", "α=0.20", "α=0.50")
	totals := map[string][]float64{}
	n := ds.NumVertices()
	var upper float64
	lower := make([]float64, len(alphas))

	policies := cache.Registry(2, evalEpochs, evalSeed)
	for part := 0; part < k; part++ {
		ctx := &cache.Context{
			G: dep.Data.Graph, Parts: dep.Parts, K: k, Part: int32(part),
			TrainIDs: dep.TrainIDs, Fanouts: []int{15, 10, 5}, BatchSize: 64,
			Seed: 5, Workers: 2,
		}
		w, err := cache.NewWorkload(ctx, evalEpochs, evalSeed)
		if err != nil {
			log.Fatal(err)
		}
		upper += w.PerEpoch(w.RemoteTotal())
		for ai, alpha := range alphas {
			lower[ai] += w.PerEpoch(w.OracleVolume(cache.CapacityForAlpha(alpha, n, k)))
		}
		for _, p := range policies {
			ranking, err := p.Rank(ctx)
			if err != nil {
				log.Fatal(err)
			}
			if totals[p.Name()] == nil {
				totals[p.Name()] = make([]float64, len(alphas))
			}
			for ai, alpha := range alphas {
				c, err := cache.FromRanking(ranking, cache.CapacityForAlpha(alpha, n, k), n)
				if err != nil {
					log.Fatal(err)
				}
				totals[p.Name()][ai] += w.PerEpoch(w.RemoteVolume(c))
			}
		}
	}

	table.AddRow("none (upper bound)", upper, upper, upper)
	for _, p := range policies {
		vols := totals[p.Name()]
		table.AddRow(p.Name(), vols[0], vols[1], vols[2])
	}
	table.AddRow("oracle (lower bound)", lower[0], lower[1], lower[2])
	fmt.Println(table.String())

	vip := totals["VIP"]
	fmt.Printf("\nVIP reduction vs no caching: %.1fx (α=0.05), %.1fx (α=0.20), %.1fx (α=0.50)\n",
		upper/vip[0], upper/vip[1], upper/vip[2])

	driftDemo()
}

// driftDemo pits the frozen setup-time prefix against the online policy
// under a drifting access stream. Both caches hold the same number of
// vertices; only the admission rule differs. The setup ranking is fitted
// to window 0's traffic (the best any static policy can do), then the
// hot set moves every window: the static hit rate collapses to the
// uniform background while the online scorer re-admits each new hot set
// after a few rounds of observation.
func driftDemo() {
	const (
		n        = 4096 // vertex space
		capacity = 64   // cache slots, both policies
		windows  = 5    // hot set rotates at each boundary
		rounds   = 40   // observation rounds per window
		perRound = 32   // accesses per round
		refresh  = 4    // online proposal cadence, rounds
	)
	fmt.Printf("\ndrift: %d vertices, capacity %d, hot set rotates every %d rounds\n\n",
		n, capacity, rounds)

	r := rng.New(seed)
	// 90% of traffic lands in a 32-vertex hot window, the rest uniform.
	draw := func(hotBase int32) int32 {
		if r.Float64() < 0.9 {
			return (hotBase + int32(r.Intn(capacity/2))) % n
		}
		return int32(r.Intn(n))
	}
	hotFor := func(window int) int32 { return int32(window) * 769 % n }

	// Setup-time ranking: exact access counts of a window-0 rehearsal —
	// a stand-in for the VIP analysis, and unbeatable for window 0.
	counts := make([]int64, n)
	for i := 0; i < windows*rounds*perRound; i++ {
		counts[draw(hotFor(0))]++
	}
	ranking := make([]int32, n)
	for v := range ranking {
		ranking[v] = int32(v)
	}
	sort.SliceStable(ranking, func(a, b int) bool { return counts[ranking[a]] > counts[ranking[b]] })

	static, err := cache.FromRanking(ranking, capacity, n)
	if err != nil {
		log.Fatal(err)
	}
	// The scorer's rank owns no vertex here: every access is remote.
	online, err := cache.NewOnline(n, 0, 0, ranking[:capacity], nil, cache.OnlineConfig{HalfLife: 16})
	if err != nil {
		log.Fatal(err)
	}
	onlineSet, installs := static, 0

	table := metrics.NewTable("hit rate per window; capacity equal",
		"window", "static (frozen prefix)", "online (decayed freq)")
	for w := 0; w < windows; w++ {
		var staticHits, onlineHits, total int64
		for round := 0; round < rounds; round++ {
			var drawn []int32
			for i := 0; i < perRound; i++ {
				v := draw(hotFor(w))
				total++
				drawn = append(drawn, v)
				if static.Has(v) {
					staticHits++
				}
				if onlineSet.Has(v) {
					onlineHits++
				}
			}
			// Exactly what a serving engine feeds its scorer each round:
			// the ids the round gathered.
			online.Observe(drawn)
			if (round+1)%refresh == 0 {
				next, err := cache.Build(online.Propose(capacity), n)
				if err != nil {
					log.Fatal(err)
				}
				if len(next.IDs()) != len(onlineSet.IDs()) || !sameMembers(next, onlineSet) {
					onlineSet = next
					installs++
				}
			}
		}
		table.AddRow(fmt.Sprintf("%d (hot base %d)", w, hotFor(w)),
			float64(staticHits)/float64(total), float64(onlineHits)/float64(total))
	}
	fmt.Println(table.String())
	fmt.Printf("\n%d epoch installs; serving is the online deployment, serve.Config{Cache: \"online\"}\n"+
		"(the bench/ workload serve.drift measures it). Training keeps the setup cache:\n"+
		"its seeds are uniform over the training set every epoch, so the VIP ranking\n"+
		"already is the access ranking an online scorer would converge to.\n", installs)
}

// sameMembers reports whether two cache indexes hold the same vertex set.
func sameMembers(a, b *cache.Cache) bool {
	for _, v := range a.IDs() {
		if !b.Has(v) {
			return false
		}
	}
	return true
}
