package cache

import (
	"reflect"
	"slices"
	"testing"

	"salientpp/internal/rng"
)

// handRounds is a five-round script small enough to plan by hand (see
// TestPlanMatchesHandCount).
var handRounds = [][]int32{
	{1, 3, 4},
	{3, 5},
	{4, 6},
	{1, 4, 5},
	{2, 6},
}

// TestPlanMatchesHandCount checks Plan against a schedule worked by hand.
// Q (ids a round reads that the round before did not): Q0 {1,3,4}, Q1 {5},
// Q2 {4,6}, Q3 {1,5}, Q4 {2,6}. With capacity 2 and start {1,2}:
//   - C2 from C1 ∪ I0 = {1,2,3,4}: next uses 4→2, 1→3, 2→4, 3 never → {1,4}
//   - C3 from C2 ∪ I1 = {1,3,4,5}: 1→3, 5→3, 3 and 4 never → {1,5}
//   - C4 from C3 ∪ I2 = {1,4,5,6}: only 6 is used again → {6}
//
// Slots: 1 and 2 start in slots 0 and 1. C2 drops 2 and admits 4 into its
// slot 1; C3 drops 4 and admits 5 into slot 1; C4 drops 1 and 5 and admits
// 6 into the lower freed slot, 0.
func TestPlanMatchesHandCount(t *testing.T) {
	start := []int32{1, 2}
	sc, err := Plan(10, handRounds, start, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	want := &Schedule{
		Free:        [][]int32{nil, nil, {1}, {1}, {0, 1}},
		Admit:       [][]Admission{nil, nil, {{Pos: 2, Slot: 1}}, {{Pos: 1, Slot: 1}}, {{Pos: 1, Slot: 0}}},
		RemoteFetch: []int{2, 2, 1, 1, 1},
		Wire:        []int{2, 1, 1, 0, 1},
	}
	if !reflect.DeepEqual(sc, want) {
		t.Fatalf("plan\n got %+v\nwant %+v", sc, want)
	}
	wantMembers := [][]int32{{1, 2}, {1, 2}, {1, 4}, {1, 5}, {6}}
	if got := members(t, sc, handRounds, start, 2); !reflect.DeepEqual(got, wantMembers) {
		t.Fatalf("memberships %v, want %v", got, wantMembers)
	}
}

// TestPlanWithoutInheritance checks a sequential epoch, which inherits
// nothing, against the hand count: Q = I, with capacity 2 and start {1,2}:
//   - C2 from C1 ∪ I0 = {1,2,3,4}: next uses 4→2, 1→3, 2→4, 3 never → {1,4}
//   - C3 from C2 ∪ I1 = {1,3,4,5}: 1, 4 and 5 →3 tie, 3 never → {1,4}
//   - C4 from C3 ∪ I2 = {1,4,6}: only 6 is read again → {6}
//
// Every remote access costs wire.
func TestPlanWithoutInheritance(t *testing.T) {
	start := []int32{1, 2}
	sc, err := Plan(10, handRounds, start, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	want := &Schedule{
		Free:        [][]int32{nil, nil, {1}, nil, {0, 1}},
		Admit:       [][]Admission{nil, nil, {{Pos: 2, Slot: 1}}, nil, {{Pos: 1, Slot: 0}}},
		RemoteFetch: []int{2, 2, 1, 1, 1},
		Wire:        []int{2, 2, 1, 1, 1},
	}
	if !reflect.DeepEqual(sc, want) {
		t.Fatalf("plan\n got %+v\nwant %+v", sc, want)
	}
	wantMembers := [][]int32{{1, 2}, {1, 2}, {1, 4}, {1, 4}, {6}}
	if got := members(t, sc, handRounds, start, 2); !reflect.DeepEqual(got, wantMembers) {
		t.Fatalf("memberships %v, want %v", got, wantMembers)
	}
}

// TestPlanStaticSpecialCase: an epoch of two rounds never installs, so the
// plan is the static cache, and its counts are the static hand count.
func TestPlanStaticSpecialCase(t *testing.T) {
	rounds := [][]int32{{7, 1, 3, 9}, {3, 2, 7, 8}}
	sc, err := Plan(10, rounds, []int32{3, 8}, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	// Round 0 misses 7, 1, 9; round 1 misses 2 and 7, and inherits 7.
	if got, want := sc.RemoteFetch, []int{3, 2}; !slices.Equal(got, want) {
		t.Fatalf("remote fetch %v, want %v", got, want)
	}
	if got, want := sc.Wire, []int{3, 1}; !slices.Equal(got, want) {
		t.Fatalf("wire %v, want %v", got, want)
	}
	for g, m := range members(t, sc, rounds, []int32{3, 8}, 2) {
		if !slices.Equal(m, []int32{3, 8}) {
			t.Fatalf("round %d membership %v, want the start", g, m)
		}
	}
}

// TestPlanTieBreakAscendingID: candidates whose next use ties keep the
// lower ids, whatever order they arrive in.
func TestPlanTieBreakAscendingID(t *testing.T) {
	// 9, 4 and 6 are all next used (in Q) at round 3.
	rounds := [][]int32{{9, 6, 4}, {1}, {2}, {6, 9, 4}}
	for _, start := range [][]int32{nil, {9}, {6, 9}} {
		sc, err := Plan(10, rounds, start, 2, true)
		if err != nil {
			t.Fatal(err)
		}
		if got := members(t, sc, rounds, start, 2)[3]; !slices.Equal(got, []int32{4, 6}) {
			t.Fatalf("start %v: C3 = %v, want [4 6]", start, got)
		}
	}
}

// TestPlanDropsRowsNeverUsedAgain: with room to spare, a cached row with
// no later use in Q is dropped, and so is one whose only later reads the
// stream already inherits.
func TestPlanDropsRowsNeverUsedAgain(t *testing.T) {
	// 5 is never read again; 7 is read in rounds 2 and 3, but round 3
	// inherits it from round 2, so only its round-2 use counts.
	rounds := [][]int32{{1}, {2}, {7}, {7}, {3}}
	sc, err := Plan(10, rounds, []int32{5, 7}, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	m := members(t, sc, rounds, []int32{5, 7}, 4)
	if got := m[2]; !slices.Equal(got, []int32{7}) {
		t.Fatalf("C2 = %v, want [7]", got)
	}
	if got := m[3]; len(got) != 0 {
		t.Fatalf("C3 = %v, want empty: 7's round-3 read is inherited", got)
	}
}

// TestPlanEmptyFutureKeepsNothing: once no round reads anything, every
// planned membership is empty.
func TestPlanEmptyFutureKeepsNothing(t *testing.T) {
	rounds := [][]int32{{1, 2, 3}, {2, 3}, nil, nil, nil}
	sc, err := Plan(10, rounds, []int32{1, 2, 3}, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	m := members(t, sc, rounds, []int32{1, 2, 3}, 3)
	for g := 2; g < len(rounds); g++ {
		if len(m[g]) != 0 || len(sc.Admit[g]) != 0 {
			t.Fatalf("round %d keeps %v (admits %v) with no future reads", g, m[g], sc.Admit[g])
		}
	}
}

// TestPlanRejectsOutOfRange: ids outside [0, n) are an error, not a panic.
func TestPlanRejectsOutOfRange(t *testing.T) {
	if _, err := Plan(4, [][]int32{{1, 4}}, nil, 1, true); err == nil {
		t.Fatal("round id 4 accepted on a 4-vertex graph")
	}
	if _, err := Plan(4, nil, []int32{-1}, 1, true); err == nil {
		t.Fatal("start id -1 accepted")
	}
	if _, err := Plan(4, nil, []int32{2, 2}, 2, true); err == nil {
		t.Fatal("duplicate start id accepted")
	}
}

// members replays sc's slot changes from start, checking them as it goes,
// and returns every round's membership: the start as given for rounds 0
// and 1, ascending ids after. A round's freed slots must be occupied, and
// its admissions, in ascending id order, must fill the then-empty slots
// in ascending slot order without reaching max(capacity, len(start)).
func members(t *testing.T, sc *Schedule, rounds [][]int32, start []int32, capacity int) [][]int32 {
	t.Helper()
	slots := make([]int32, max(capacity, len(start)))
	for s := range slots {
		slots[s] = -1
	}
	copy(slots, start)
	out := make([][]int32, len(rounds))
	for g := range rounds {
		if g <= 1 {
			if len(sc.Free[g]) != 0 || len(sc.Admit[g]) != 0 {
				t.Fatalf("round %d changes slots: frees %v, admits %v", g, sc.Free[g], sc.Admit[g])
			}
			out[g] = start
			continue
		}
		for i, s := range sc.Free[g] {
			if slots[s] < 0 || i > 0 && s <= sc.Free[g][i-1] {
				t.Fatalf("round %d frees %v over slots %v", g, sc.Free[g], slots)
			}
			slots[s] = -1
		}
		empty := 0
		for _, a := range sc.Admit[g] {
			for empty < len(slots) && slots[empty] >= 0 {
				empty++
			}
			if empty == len(slots) || a.Slot != int32(empty) {
				t.Fatalf("round %d admits %v over slots %v: want the lowest empty slot", g, sc.Admit[g], slots)
			}
			v := rounds[g-2][a.Pos]
			if slices.Contains(slots, v) {
				t.Fatalf("round %d admits %d, which is cached", g, v)
			}
			slots[empty] = v
		}
		for _, v := range slots {
			if v >= 0 {
				out[g] = append(out[g], v)
			}
		}
		slices.Sort(out[g])
	}
	return out
}

// randomRounds draws an epoch of rounds over n vertices: each round reads
// a random subset, biased towards a hot set so rows recur.
func randomRounds(r *rng.RNG, n, rounds int) [][]int32 {
	out := make([][]int32, rounds)
	for g := range out {
		seen := map[int32]bool{}
		for i := r.Intn(n / 2); i > 0; i-- {
			v := int32(r.Intn(n))
			if r.Intn(2) == 0 {
				v = int32(r.Intn(n / 5))
			}
			if !seen[v] {
				seen[v] = true
				out[g] = append(out[g], v)
			}
		}
	}
	return out
}

// naiveStep is the definition of one planning step, written for clarity:
// the capacity candidates of cur ∪ prev with the soonest next use in Q at
// rounds ≥ from, ties by ascending id, rows never used again dropped.
// Without inheritance Q is every read.
func naiveStep(rounds [][]int32, cur, prev []int32, from, capacity int, inherit bool) []int32 {
	inQ := func(v int32, h int) bool {
		return slices.Contains(rounds[h], v) && (!inherit || h == 0 || !slices.Contains(rounds[h-1], v))
	}
	type cand struct {
		v    int32
		next int
	}
	var cs []cand
	for _, v := range slices.Concat(cur, prev) {
		if slices.ContainsFunc(cs, func(c cand) bool { return c.v == v }) {
			continue
		}
		for h := from; h < len(rounds); h++ {
			if inQ(v, h) {
				cs = append(cs, cand{v, h})
				break
			}
		}
	}
	slices.SortFunc(cs, func(a, b cand) int {
		if a.next != b.next {
			return a.next - b.next
		}
		return int(a.v - b.v)
	})
	var out []int32
	for i := 0; i < len(cs) && i < capacity; i++ {
		out = append(out, cs[i].v)
	}
	slices.Sort(out)
	return out
}

// TestPlanInvariantsRandom checks random epochs against the definition:
// every step equals the naive step, membership never exceeds capacity,
// admissions come only from C_g ∪ I_{g−1} and Admit names exactly the new
// members, and the predicted counts equal a direct count over the
// memberships. Trials alternate between inheriting and sequential epochs.
func TestPlanInvariantsRandom(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 80; trial++ {
		n := 20 + r.Intn(60)
		rounds := randomRounds(r, n, 1+r.Intn(12))
		capacity := r.Intn(n / 2)
		start := randomRounds(r, n, 1)[0]
		inherit := trial%2 == 0
		sc, err := Plan(n, rounds, start, capacity, inherit)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := Plan(n, rounds, start, capacity, inherit)
		if !reflect.DeepEqual(sc, again) {
			t.Fatalf("trial %d: Plan is not deterministic", trial)
		}
		m := members(t, sc, rounds, start, capacity)
		for g := range rounds {
			c := m[g]
			if g <= 1 {
				if !slices.Equal(c, start) {
					t.Fatalf("trial %d: C%d = %v, want the start %v", trial, g, c, start)
				}
			} else {
				if len(c) > capacity {
					t.Fatalf("trial %d: C%d holds %d rows, capacity %d", trial, g, len(c), capacity)
				}
				prev, src := m[g-1], rounds[g-2]
				if want := naiveStep(rounds, prev, src, g, capacity, inherit); !slices.Equal(c, want) {
					t.Fatalf("trial %d: C%d = %v, definition gives %v", trial, g, c, want)
				}
				var admitted []int32
				for _, a := range sc.Admit[g] {
					admitted = append(admitted, src[a.Pos])
				}
				var fresh []int32
				for _, v := range c {
					if !slices.Contains(prev, v) {
						if !slices.Contains(src, v) {
							t.Fatalf("trial %d: C%d admits %d from neither C%d nor I%d", trial, g, v, g-1, g-2)
						}
						fresh = append(fresh, v)
					}
				}
				if !slices.Equal(admitted, fresh) {
					t.Fatalf("trial %d: Admit[%d] names %v, new members are %v", trial, g, admitted, fresh)
				}
			}
			remote, wire := 0, 0
			for _, v := range rounds[g] {
				if slices.Contains(c, v) {
					continue
				}
				remote++
				if !inherit || g == 0 || !slices.Contains(rounds[g-1], v) {
					wire++
				}
			}
			if sc.RemoteFetch[g] != remote || sc.Wire[g] != wire {
				t.Fatalf("trial %d round %d: predicted remote %d wire %d, direct count %d and %d",
					trial, g, sc.RemoteFetch[g], sc.Wire[g], remote, wire)
			}
		}
	}
}
