// Package cache implements the remote-feature caches of SALIENT++ and the
// seven ranking policies compared in the paper's Figure 2: "deg." (degree
// with reachability filter), "1-hop" (halo replication), "wPR" (weighted
// reverse PageRank), "#paths" (bounded path counting), "sim." (empirical
// access frequencies over simulated epochs), "VIP" (the analytic model of
// Proposition 1), and "oracle" (retroactive actual frequencies — the
// communication lower bound).
//
// All policies produce a per-partition ranking of remote vertices; the
// setup cache stores the top α·N/K of them (replication factor α, §3.2),
// built once as a generation-0 Epoch. The cache then moves one way: its
// owner rewrites a private working copy of that epoch in place, evicting
// rows and writing only the rows it admits into the freed slots by one
// slot rule (Cache.Admit). Training follows a per-epoch Belady plan
// (Plan); serving's online cache follows a drift-tracking scorer
// (Online, Epoch.Retarget).
package cache

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// Cache is a set of remote vertices whose features a machine replicates
// locally, each in a storage slot. Has and Slot read one dense id→slot
// index, so a lookup is a single array load. A cache from Build fills
// slots 0…Len()−1 in rank order; a working epoch empties and refills
// single slots in place (Evict, Put, Admit), so its slots may have holes.
type Cache struct {
	slot []int32 // slot[v] is v's slot+1; 0 when v is not cached
	ids  []int32 // ids[s] is the vertex in slot s; −1 for an empty slot
	size int     // non-empty slots
}

// Build creates a cache over a graph with n vertices holding exactly the
// given ids (rank order preserved; the slot of ids[i] is i).
func Build(ids []int32, n int) (*Cache, error) {
	c := &Cache{slot: make([]int32, n)}
	if err := c.fill(ids); err != nil {
		return nil, err
	}
	return c, nil
}

// fill makes c, which must hold nothing, hold exactly ids, reusing its
// index and ids slice. On error c is left holding nothing.
func (c *Cache) fill(ids []int32) error {
	c.ids = append(c.ids[:0], ids...)
	for i, v := range ids {
		var err error
		if v < 0 || int(v) >= len(c.slot) {
			err = fmt.Errorf("cache: vertex %d out of range [0,%d)", v, len(c.slot))
		} else if c.Has(v) {
			err = fmt.Errorf("cache: duplicate vertex %d", v)
		}
		if err != nil {
			c.ids = c.ids[:i]
			c.reset()
			return err
		}
		c.slot[v] = int32(i) + 1
	}
	c.size = len(ids)
	return nil
}

// reset empties c, keeping its storage for the next fill.
func (c *Cache) reset() {
	for _, v := range c.ids {
		if v >= 0 {
			c.slot[v] = 0
		}
	}
	c.ids, c.size = c.ids[:0], 0
}

// copyFrom makes c, indexed over the same vertex count, hold src's ids in
// src's slots.
func (c *Cache) copyFrom(src *Cache) {
	c.reset()
	c.ids = append(c.ids, src.ids...)
	for s, v := range c.ids {
		if v >= 0 {
			c.slot[v] = int32(s) + 1
		}
	}
	c.size = src.size
}

// Has reports whether v is cached.
func (c *Cache) Has(v int32) bool { return c.slot[v] != 0 }

// Slot returns the storage row of v and whether it is cached.
func (c *Cache) Slot(v int32) (int32, bool) {
	s := c.slot[v]
	return s - 1, s != 0
}

// Evict empties slot s, which must hold a vertex.
func (c *Cache) Evict(s int32) {
	c.slot[c.ids[s]] = 0
	c.ids[s] = -1
	c.size--
}

// Put caches v, which must not be cached, in the empty slot s.
func (c *Cache) Put(v, s int32) {
	if c.ids[s] >= 0 || c.slot[v] != 0 {
		panic(fmt.Sprintf("cache: put of vertex %d into slot %d holding %d", v, s, c.ids[s]))
	}
	c.ids[s] = v
	c.slot[v] = s + 1
	c.size++
}

// Admit caches ids — distinct, uncached, in any order; Admit sorts them
// ascending in place — and appends each one's slot to slots. This is the
// slot rule every cache move follows, training's plan and serving's
// retarget alike: admissions, taken in ascending id order, fill the empty
// slots in ascending slot order. c must have an empty slot for every id.
func (c *Cache) Admit(ids, slots []int32) []int32 {
	slices.Sort(ids)
	s := int32(0)
	for _, v := range ids {
		for c.ids[s] >= 0 {
			s++
		}
		c.Put(v, s)
		slots = append(slots, s)
	}
	return slots
}

// Len returns the number of cached vertices.
func (c *Cache) Len() int { return c.size }

// IDs returns the vertex in each slot, −1 for an empty slot (do not
// modify). For a cache from Build it is the cached ids in rank order.
func (c *Cache) IDs() []int32 { return c.ids }

// CapacityForAlpha returns the cache size implied by replication factor α:
// each of the K machines replicates α·N/K remote feature vectors, so that
// on average every feature vector is stored 1+α times (§3.2).
func CapacityForAlpha(alpha float64, n, k int) int {
	if alpha <= 0 {
		return 0
	}
	cap := int(alpha * float64(n) / float64(k))
	if cap < 0 {
		cap = 0
	}
	return cap
}

// FromRanking builds a cache from a descending-priority ranking, truncated
// to capacity.
func FromRanking(ranking []int32, capacity, n int) (*Cache, error) {
	if capacity > len(ranking) {
		capacity = len(ranking)
	}
	if capacity < 0 {
		capacity = 0
	}
	return Build(ranking[:capacity], n)
}

// rankByScore sorts candidate ids by descending score with ascending-id
// tie-breaks, giving deterministic rankings.
func rankByScore(ids []int32, score func(int32) float64) []int32 {
	slices.SortFunc(ids, func(a, b int32) int {
		if sa, sb := score(a), score(b); sa != sb {
			return cmp.Compare(sb, sa)
		}
		return cmp.Compare(a, b)
	})
	return ids
}

// scoredID is a candidate id with its score, computed once for a selection.
type scoredID struct {
	score float64
	id    int32
}

// compareScored is rankByScore's order on scored pairs: descending score,
// then ascending id. Over distinct ids it is total.
func compareScored(a, b scoredID) int {
	if a.score != b.score {
		return cmp.Compare(b.score, a.score)
	}
	return cmp.Compare(a.id, b.id)
}

// selectTop reorders s, whose ids are distinct, so that s[:k] holds its
// first k entries under compareScored, in that order; the rest follow in
// no particular order. The order is total, so s[:k] does not depend on the
// input order. Quickselect around median-of-three pivots makes it
// O(len(s) + k·log k) expected; a range that keeps resisting partitioning
// is sorted outright, which bounds the worst case at O(len(s)·log len(s)).
func selectTop(s []scoredID, k int) {
	lo, hi := 0, len(s)
	if k > 0 && k < hi {
		// Invariant: s[:lo] precedes s[lo:hi], which precedes s[hi:], and
		// lo <= k < hi.
		for budget := 2 * bits.Len(uint(hi)); hi-lo > 12 && budget > 0; budget-- {
			p := lo + partitionScored(s[lo:hi])
			if p == k {
				lo, hi = k, k
				break
			}
			if k < p {
				hi = p
			} else {
				lo = p + 1
			}
		}
		slices.SortFunc(s[lo:hi], compareScored)
	}
	slices.SortFunc(s[:k], compareScored)
}

// partitionScored partitions s (len >= 3) around the median of its first,
// middle and last entries and returns the pivot's final index: every entry
// before it precedes the pivot, every entry after it follows.
func partitionScored(s []scoredID) int {
	m, last := len(s)/2, len(s)-1
	if compareScored(s[m], s[0]) < 0 {
		s[m], s[0] = s[0], s[m]
	}
	if compareScored(s[last], s[0]) < 0 {
		s[last], s[0] = s[0], s[last]
	}
	if compareScored(s[m], s[last]) < 0 {
		s[m], s[last] = s[last], s[m]
	}
	pivot, i := s[last], 0
	for j := range last {
		if compareScored(s[j], pivot) < 0 {
			s[i], s[j] = s[j], s[i]
			i++
		}
	}
	s[i], s[last] = s[last], s[i]
	return i
}
