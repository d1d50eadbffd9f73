// Package cache implements the static remote-feature caches of SALIENT++
// and the seven ranking policies compared in the paper's Figure 2:
// "deg." (degree with reachability filter), "1-hop" (halo replication),
// "wPR" (weighted reverse PageRank), "#paths" (bounded path counting),
// "sim." (empirical access frequencies over simulated epochs), "VIP"
// (the analytic model of Proposition 1), and "oracle" (retroactive actual
// frequencies — the communication lower bound).
//
// All policies produce a per-partition ranking of remote vertices; the
// cache stores the top α·N/K of them (replication factor α, §3.2).
package cache

import (
	"fmt"
	"sort"
)

// Cache is a static set of remote vertices whose features a machine
// replicates locally. Membership tests are O(1) via a bitset; Slot returns
// the storage row of a cached vertex for feature lookup.
type Cache struct {
	bits  []uint64
	slots map[int32]int32
	ids   []int32
}

// Build creates a cache over a graph with n vertices holding exactly the
// given ids (rank order preserved; the slot of ids[i] is i).
func Build(ids []int32, n int) (*Cache, error) {
	c := &Cache{
		bits:  make([]uint64, (n+63)/64),
		slots: make(map[int32]int32, len(ids)),
	}
	if err := c.fill(ids, n); err != nil {
		return nil, err
	}
	return c, nil
}

// fill makes c, which must hold nothing, hold exactly ids, reusing its
// bitset, slot map and ids slice. On error c is left holding nothing.
func (c *Cache) fill(ids []int32, n int) error {
	c.ids = append(c.ids[:0], ids...)
	for i, v := range ids {
		var err error
		if v < 0 || int(v) >= n {
			err = fmt.Errorf("cache: vertex %d out of range [0,%d)", v, n)
		} else if c.Has(v) {
			err = fmt.Errorf("cache: duplicate vertex %d", v)
		}
		if err != nil {
			c.ids = c.ids[:i]
			c.reset()
			return err
		}
		c.bits[v/64] |= 1 << uint(v%64)
		c.slots[v] = int32(i)
	}
	return nil
}

// reset empties c, keeping its storage for the next fill.
func (c *Cache) reset() {
	for _, v := range c.ids {
		c.bits[v/64] = 0
	}
	clear(c.slots)
	c.ids = c.ids[:0]
}

// Empty returns a cache holding nothing.
func Empty(n int) *Cache {
	c, _ := Build(nil, n)
	return c
}

// Has reports whether v is cached.
func (c *Cache) Has(v int32) bool {
	return c.bits[v/64]&(1<<uint(v%64)) != 0
}

// Slot returns the storage row of v and whether it is cached.
func (c *Cache) Slot(v int32) (int32, bool) {
	s, ok := c.slots[v]
	return s, ok
}

// Len returns the number of cached vertices.
func (c *Cache) Len() int { return len(c.ids) }

// IDs returns the cached ids in rank order (do not modify).
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
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		sa, sb := score(a), score(b)
		if sa != sb {
			return sa > sb
		}
		return a < b
	})
	return ids
}
