package cache

import (
	"fmt"
	"slices"
)

// Schedule is one rank's cache plan for one training epoch, computed from
// the epoch's realised remote accesses instead of their expectation.
//
// Training samples each round from a stream that is a pure function of
// (seed, rank, epoch, round), so a rank can derive, before the epoch runs,
// the remote ids I_g every round g will read. The training stream already
// inherits every id the previous round held (dist.Store.GatherNext), so
// the rows that cost wire in round g are Q_g = I_g ∖ I_{g−1} minus the
// cache. Plan runs Belady's MIN with bypass over Q: after round g−1
// completes, the cache C_{g+1} keeps the capacity rows of C_g ∪ I_{g−1}
// whose next use in Q is soonest (ties by ascending id) and drops rows
// never used again. C_0 = C_1 = the starting (setup) membership: the first
// completed round, 0, can only feed C_2, because round 1 is classified
// before round 0's rows arrive. A sequential epoch (pipeline depth 1)
// inherits nothing, so there Q_g = I_g: every remote access the cache
// misses costs wire.
type Schedule struct {
	// Members[g] is C_g, the membership round g is classified against.
	// Members[0] and Members[1] are the starting membership as given;
	// later rounds list ascending ids.
	Members [][]int32
	// Admit[g] (g ≥ 2) holds the positions in rounds[g−2] of the ids C_g
	// admits (C_g ∖ C_{g−1}), in ascending id order. Those rows are the
	// ones to copy out of round g−2's gathered matrix.
	Admit [][]int32
	// RemoteFetch[g] is round g's predicted remote accesses: the entries
	// of rounds[g] outside C_g.
	RemoteFetch []int
	// Wire[g] is round g's predicted rows on the wire: when the stream
	// inherits the previous round's ids, the remote accesses of round g
	// whose id round g−1 did not read (all of them for g = 0); otherwise
	// RemoteFetch[g].
	Wire []int
}

// Plan computes the epoch's schedule. rounds[g] lists round g's remote ids
// (ids in [0, n) that neither the rank's shard nor anything else but the
// cache can serve; order and duplicates are kept for the predicted
// counts), start is the starting membership and capacity bounds every
// later membership. inherit says whether each round inherits the ids the
// round before it read. Plan is pure: equal inputs give equal schedules.
func Plan(n int, rounds [][]int32, start []int32, capacity int, inherit bool) (*Schedule, error) {
	for _, ids := range append([][]int32{start}, rounds...) {
		for _, v := range ids {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("cache: planned vertex %d out of range [0,%d)", v, n)
			}
		}
	}
	capacity = max(capacity, 0)
	r := len(rounds)
	sc := &Schedule{
		Members:     make([][]int32, r),
		Admit:       make([][]int32, r),
		RemoteFetch: make([]int, r),
		Wire:        make([]int, r),
	}

	// Per-vertex round stamps are stored as round+1 so zeroed slices mean
	// "never".
	last := make([]int32, n)

	// Q's occurrence lists, one ascending run of rounds per vertex in CSR
	// form: v ∈ Q_h when round h reads v and, if rounds inherit, round h−1
	// did not.
	occStart := make([]int32, n+1)
	for h, ids := range rounds {
		for _, v := range ids {
			if last[v] == int32(h)+1 {
				continue // a duplicate within round h
			}
			if !inherit || last[v] != int32(h) {
				occStart[v+1]++
			}
			last[v] = int32(h) + 1
		}
	}
	for v := 0; v < n; v++ {
		occStart[v+1] += occStart[v]
	}
	occ := make([]int32, occStart[n])
	next := slices.Clone(occStart[:n]) // fill cursor, then next-use cursor
	clear(last)
	for h, ids := range rounds {
		for _, v := range ids {
			if last[v] == int32(h)+1 {
				continue
			}
			if !inherit || last[v] != int32(h) {
				occ[next[v]] = int32(h)
				next[v]++
			}
			last[v] = int32(h) + 1
		}
	}
	copy(next, occStart[:n])

	// nextUse returns v's first round ≥ from in Q, or -1. Queries arrive
	// with non-decreasing from, so each vertex's cursor only moves forward.
	nextUse := func(v int32, from int32) int32 {
		i, end := next[v], occStart[v+1]
		for i < end && occ[i] < from {
			i++
		}
		next[v] = i
		if i == end {
			return -1
		}
		return occ[i]
	}

	member := make([]int32, n) // g+1 when v ∈ C_g
	cand := make([]int32, n)   // g+1 when v is a candidate for C_{g+1}
	pos := make([]int32, n)    // v's position in rounds[g−1]
	clear(last)                // g when v ∈ I_{g−1}, while round g is counted
	perRound := make([]int, r) // candidates by next-use round
	type candidate struct{ v, next int32 }
	var cands []candidate
	var tie []int32
	cur := start
	for g, ids := range rounds {
		sc.Members[g] = cur
		stamp := int32(g) + 1
		for _, v := range cur {
			member[v] = stamp
		}
		for _, v := range ids {
			if member[v] == stamp {
				continue
			}
			sc.RemoteFetch[g]++
			if !inherit || g == 0 || last[v] != int32(g) {
				sc.Wire[g]++
			}
		}
		if g >= 1 && g+1 < r {
			// C_{g+1} from C_g ∪ I_{g−1}, by next use in Q at rounds ≥ g+1.
			cands = cands[:0]
			add := func(v int32) {
				if cand[v] == stamp {
					return
				}
				cand[v] = stamp
				if h := nextUse(v, int32(g)+1); h >= 0 {
					cands = append(cands, candidate{v, h})
					perRound[h]++
				}
			}
			for _, v := range cur {
				add(v)
			}
			for j, v := range rounds[g-1] {
				if cand[v] != stamp {
					pos[v] = int32(j)
				}
				add(v)
			}
			// Every candidate used before the cutoff round fits; the
			// cutoff round's candidates fill what is left by ascending id.
			cut, room := int32(r), capacity
			for h := g + 1; h < r; h++ {
				if perRound[h] >= room {
					cut = int32(h)
					break
				}
				room -= perRound[h]
			}
			clear(perRound[g+1:])
			nextC := make([]int32, 0, min(capacity, len(cands)))
			tie = tie[:0]
			for _, c := range cands {
				switch {
				case c.next < cut:
					nextC = append(nextC, c.v)
				case c.next == cut:
					tie = append(tie, c.v)
				}
			}
			if len(tie) > 0 {
				slices.Sort(tie)
				nextC = append(nextC, tie[:room]...)
			}
			slices.Sort(nextC)
			var admit []int32
			for _, v := range nextC {
				if member[v] != stamp {
					admit = append(admit, pos[v])
				}
			}
			sc.Members[g+1], sc.Admit[g+1] = nextC, admit
			cur = nextC
		}
		for _, v := range ids {
			last[v] = int32(g) + 1
		}
	}
	return sc, nil
}
