package partition

import "salientpp/internal/rng"

// refine performs FM-style boundary refinement: vertices move to a
// neighboring partition when doing so reduces the edge cut without
// violating balance, or when it strictly reduces constraint overflow
// (restoring feasibility after projection from a coarser level).
//
// Every accepted move strictly decreases the pair (total overflow, cut) in
// lexicographic order, so each pass terminates; passes stop early when no
// move is accepted.
func refine(w *wgraph, parts []int32, k int, eps float64, maxPasses int, r *rng.RNG) {
	n := w.n()
	nc := len(w.vwgt)
	totals := w.totals()

	caps := make([]float64, nc)
	for c := range caps {
		caps[c] = (1 + eps) * totals[c] / float64(k)
	}

	loads := make([][]float64, nc)
	for c := range loads {
		loads[c] = make([]float64, k)
		for v := 0; v < n; v++ {
			loads[c][parts[v]] += float64(w.vwgt[c][v])
		}
	}
	counts := make([]int, k)
	for v := 0; v < n; v++ {
		counts[parts[v]]++
	}

	// overflowDelta returns the change in total overflow if v moves
	// src→dst.
	overflowDelta := func(v int32, src, dst int32) float64 {
		var delta float64
		for c := 0; c < nc; c++ {
			wv := float64(w.vwgt[c][v])
			if wv == 0 {
				continue
			}
			before := over(loads[c][src], caps[c]) + over(loads[c][dst], caps[c])
			after := over(loads[c][src]-wv, caps[c]) + over(loads[c][dst]+wv, caps[c])
			delta += after - before
		}
		return delta
	}

	conn := make([]float32, k)
	stamp := make([]int, k)
	for i := range stamp {
		stamp[i] = -1
	}
	adjacent := make([]int32, 0, k) // partitions next to v, first seen first
	order := make([]int32, n)

	for pass := 0; pass < maxPasses; pass++ {
		moves := 0
		for i := range order {
			order[i] = int32(i)
		}
		r.ShuffleInt32(order) // the permutation r.Perm(n) would return
		for _, v := range order {
			src := parts[v]
			if counts[src] <= 1 {
				continue // never empty a partition
			}
			nbrs, wgts := w.neighbors(v)
			// Gather connection weight to each adjacent partition.
			round := int(v) + pass*n // unique stamp per (pass, vertex)
			adjacent = adjacent[:0]
			for i, u := range nbrs {
				p := parts[u]
				if stamp[p] != round {
					stamp[p] = round
					conn[p] = 0
					if p != src {
						adjacent = append(adjacent, p)
					}
				}
				conn[p] += wgts[i]
			}
			if len(adjacent) == 0 {
				continue
			}
			srcConn := float32(0)
			if stamp[src] == round {
				srcConn = conn[src]
			}
			// Pick the destination with the best (gain, -overflowDelta),
			// weighing each adjacent partition once: under the strict
			// test a repeat could never displace the best so far.
			bestDst := int32(-1)
			bestGain := float32(0)
			bestOD := 0.0
			for _, p := range adjacent {
				gain := conn[p] - srcConn
				od := overflowDelta(v, src, p)
				accept := (gain > 0 && od <= 0) || od < 0
				if !accept {
					continue
				}
				better := bestDst < 0 || gain > bestGain || (gain == bestGain && od < bestOD)
				if better {
					bestDst, bestGain, bestOD = p, gain, od
				}
			}
			if bestDst < 0 {
				continue
			}
			// Commit the move.
			for c := 0; c < nc; c++ {
				wv := float64(w.vwgt[c][v])
				loads[c][src] -= wv
				loads[c][bestDst] += wv
			}
			counts[src]--
			counts[bestDst]++
			parts[v] = bestDst
			moves++
		}
		if moves == 0 {
			break
		}
	}
}

func over(load, cap float64) float64 {
	if load > cap {
		return load - cap
	}
	return 0
}
