package ckpt

import (
	"fmt"
	"sort"
)

// Shrink re-layout: restoring a K-rank checkpoint onto the K′ survivors of
// a membership change, without re-partitioning or VIP re-analysis.
//
// Every checkpoint carries the full topology (vertex permutation, layout
// boundaries, per-vertex partition assignment, per-rank cache contents),
// so a dead rank's shard is recoverable as pure metadata surgery: merge
// its layout interval into a survivor's, remap the partition assignment,
// and re-slice the cache lists. Feature rows are always rehydrated from
// the dataset on restore (checkpoints store cache membership, not bytes),
// so no feature data moves here. Weights, Adam moments, and residuals are
// identical across ranks by construction (synchronous data parallelism),
// which is why dropping a rank's model state loses nothing.

// ShrinkLayout merges a K-way contiguous layout onto the given survivors
// (strictly increasing old-rank indices): each dead rank's interval is
// absorbed by the nearest survivor at or below it (the lowest survivor
// additionally absorbs any dead ranks before it), keeping the merged
// intervals contiguous and in order. Returns the K′+1 new boundaries.
func ShrinkLayout(starts []int64, survivors []int) ([]int64, error) {
	k := len(starts) - 1
	if k < 1 {
		return nil, fmt.Errorf("ckpt: shrink of a %d-boundary layout", len(starts))
	}
	if err := validateSurvivors(survivors, k); err != nil {
		return nil, err
	}
	out := make([]int64, len(survivors)+1)
	out[0] = 0
	for i := 1; i < len(survivors); i++ {
		out[i] = starts[survivors[i]]
	}
	out[len(survivors)] = starts[k]
	return out, nil
}

// ShrinkState restores a K-rank checkpoint onto its K′ surviving ranks:
// the topology is re-laid out with ShrinkLayout, partition assignments are
// remapped, each survivor's cache list is filtered of vertices that became
// local under the merged layout, and survivor i's rank state is a deep
// copy of old rank survivors[i]'s. rounds is the new rounds-per-epoch the
// caller derived from the merged layout (the per-rank training sets grew,
// so the old checkpoint's round geometry no longer applies); for the same
// reason the cursor is normalized to the epoch boundary (Step.Round 0,
// empty partial statistics) — the interrupted epoch re-runs entirely under
// the new layout. Both the live-shrink path and a cold K′ restart consume
// the state this returns, which is what makes them bitwise identical.
func ShrinkState(st *TrainState, survivors []int, rounds int) (*TrainState, error) {
	if err := st.Validate(); err != nil {
		return nil, fmt.Errorf("ckpt: shrinking an invalid state: %w", err)
	}
	if rounds <= 0 {
		return nil, fmt.Errorf("ckpt: shrink needs positive rounds, got %d", rounds)
	}
	k := int(st.Topo.K)
	newStarts, err := ShrinkLayout(st.Topo.Starts, survivors)
	if err != nil {
		return nil, err
	}
	kNew := len(survivors)

	// Old rank → new rank owning its interval (see ShrinkLayout).
	ownerOf := make([]int, k)
	for r := 0; r < k; r++ {
		// The largest survivor index whose old rank is <= r; ranks before
		// the first survivor fold into it.
		i := sort.SearchInts(survivors, r+1) - 1
		if i < 0 {
			i = 0
		}
		ownerOf[r] = i
	}
	parts := make([]int32, len(st.Topo.Parts))
	for v, p := range st.Topo.Parts {
		parts[v] = int32(ownerOf[p])
	}

	// Each survivor keeps its own cache list minus the vertices its merged
	// interval now owns locally (caching a local row would waste the slot;
	// the store would never consult it). Order is preserved — it is the
	// truncated VIP ranking in cache-slot order.
	cacheIDs := make([][]int32, kNew)
	for i, s := range survivors {
		lo, hi := newStarts[i], newStarts[i+1]
		for _, v := range st.Topo.CacheIDs[s] {
			if int64(v) >= lo && int64(v) < hi {
				continue
			}
			cacheIDs[i] = append(cacheIDs[i], v)
		}
	}

	ranks := make([]*RankState, kNew)
	for i, s := range survivors {
		ranks[i] = cloneRankState(st.Ranks[s])
		// The epoch re-runs from its boundary under the new geometry; the
		// partial statistics accumulated under the old one no longer apply.
		ranks[i].Partial = PartialEpoch{}
	}

	out := &TrainState{
		Step:      Step{Epoch: st.Step.Epoch, Round: 0},
		Rounds:    rounds,
		Dataset:   st.Dataset,
		Seed:      st.Seed,
		BatchSize: st.BatchSize,
		Fanouts:   append([]int32(nil), st.Fanouts...),
		Codec:     st.Codec,
		GradCodec: st.GradCodec,
		Topo: &Topology{
			NumVertices: st.Topo.NumVertices,
			FeatureDim:  st.Topo.FeatureDim,
			K:           int32(kNew),
			Perm:        append([]int32(nil), st.Topo.Perm...),
			Starts:      newStarts,
			Parts:       parts,
			CacheIDs:    cacheIDs,
		},
		Ranks: ranks,
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("ckpt: shrunk state invalid: %w", err)
	}
	return out, nil
}

func validateSurvivors(survivors []int, k int) error {
	if len(survivors) == 0 || len(survivors) > k {
		return fmt.Errorf("ckpt: %d survivors of %d ranks", len(survivors), k)
	}
	for i, s := range survivors {
		if s < 0 || s >= k {
			return fmt.Errorf("ckpt: survivor %d outside [0,%d)", s, k)
		}
		if i > 0 && s <= survivors[i-1] {
			return fmt.Errorf("ckpt: survivors %v not strictly increasing", survivors)
		}
	}
	return nil
}

func cloneRankState(rs *RankState) *RankState {
	out := &RankState{
		AdamStep: rs.AdamStep,
		ModelRNG: rs.ModelRNG,
		Partial:  rs.Partial,
		Params:   make([]ParamState, len(rs.Params)),
	}
	for i, p := range rs.Params {
		out.Params[i] = ParamState{
			Rows: p.Rows, Cols: p.Cols,
			W:  append([]float32(nil), p.W...),
			M:  append([]float32(nil), p.M...),
			V:  append([]float32(nil), p.V...),
			EF: append([]float32(nil), p.EF...),
		}
	}
	return out
}
