package streaming

import (
	"fmt"
	"sort"

	"sssj/internal/apss"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// This file is the live-rebuild machinery shared by the adaptive index
// (engine promotion and dimension re-ranking rebuild the live window
// into a fresh engine) and the checkpoint path (ordered and adaptive
// indexes are saved as natural-space clones).
//
// Two primitives:
//
//   - insert: index an item without querying it. Replaying a window of
//     already-reported items must not re-emit their pairs, and must not
//     pay candidate generation for matches that are already out the
//     door. insert runs exactly the index-construction half of AddTo —
//     clock advance, m growth + re-indexing, the Algorithm 6 walk, m̂λ —
//     so the resulting state is identical to an engine whose stream
//     began at the window's first item. That state is sound by the same
//     argument that makes the engines exact: every stored residual's
//     boundary is valid under the current m, and any future arrival
//     restores the invariant (growing m, re-indexing) before it probes.
//
//   - extractLive: recover the in-horizon items, in time order and in
//     the index's current dimension space, from a live engine. The
//     prefix engines hold full vectors in the residual index R; INV
//     holds no vectors, but it indexes every coordinate, so the live
//     window is reconstructed from the posting chains — an entry is
//     live iff its time is within the horizon (slots recycle only past
//     the horizon, so surviving entries always belong to their slot's
//     current owner).

// inserter is the index-without-querying face shared by the engine
// types. Items must arrive in non-decreasing time order, like AddTo.
type inserter interface {
	insert(x stream.Item) error
}

// insert implements inserter for the prefix engines.
func (e *engine) insert(x stream.Item) error {
	if e.begun && x.Time < e.now {
		return ErrTimeOrder
	}
	e.advanceTo(x.Time)
	if e.useAP {
		if changed := e.m.Update(x.Vec); len(changed) > 0 {
			e.reindex(changed)
		}
	}
	e.pn = x.Vec.AppendPrefixNorms(e.pn[:0])
	e.indexVector(x, e.pn)
	if e.useAP {
		e.mhatUpdate(x)
	}
	return nil
}

// insert implements inserter for INV.
func (ix *invIndex) insert(x stream.Item) error {
	if ix.begun && x.Time < ix.now {
		return ErrTimeOrder
	}
	ix.advanceTo(x.Time)
	ix.index(x)
	return nil
}

// liveState is everything extractLive recovers from a live engine: the
// in-horizon items sorted by (time, id), plus the clock state a clone
// must carry to admit and expire exactly like the original.
type liveState struct {
	items  []stream.Item
	p      apss.Params
	kernel apss.Kernel
	now    float64
	begun  bool
	clock  sweepClock
}

// extractLive recovers the live window from an engine. Items come back
// in non-decreasing time order (ties broken by id), in the engine's
// current dimension space.
func extractLive(ix Index) (liveState, error) {
	var st liveState
	switch v := ix.(type) {
	case *engine:
		st.p, st.kernel, st.now, st.begun, st.clock = v.p, v.kernel, v.now, v.begun, v.clock
		v.ascendRes(func(sl uint32, m *smeta) {
			st.items = append(st.items, stream.Item{ID: v.slots.id[sl], Time: m.t, Side: v.slots.side[sl], Vec: m.vec})
		})
	case *invIndex:
		st.p, st.kernel, st.now, st.begun, st.clock = v.p, v.kernel, v.now, v.begun, v.clock
		vs, err := chainVectors(v.now-v.tau, postings{&v.ar, v.lists, &v.slots})
		if err != nil {
			return liveState{}, err
		}
		for sl, x := range vs {
			st.items = append(st.items, stream.Item{ID: v.slots.id[sl], Time: v.slots.t[sl], Side: v.slots.side[sl], Vec: x})
		}
	default:
		return liveState{}, fmt.Errorf("streaming: cannot extract the live window of %T", ix)
	}
	sort.SliceStable(st.items, func(a, b int) bool {
		if st.items[a].Time != st.items[b].Time {
			return st.items[a].Time < st.items[b].Time
		}
		return st.items[a].ID < st.items[b].ID
	})
	return st, nil
}

// chainVectors rebuilds from STR-INV posting chains the vector of every
// slot holding an entry at time ≥ from: INV indexes every coordinate, so
// a slot's entries across all chains are its item's full vector (slots
// recycle only past the horizon, so surviving entries always belong to
// their slot's current owner).
func chainVectors(from float64, p postings) (map[uint32]vec.Vector, error) {
	type build struct {
		dims []uint32
		vals []float64
	}
	builds := map[uint32]*build{}
	ar := p.ar
	for d, ch := range p.lists {
		ar.ascend(ch, func(ai int) {
			if ar.t[ai] < from {
				return
			}
			bu := builds[ar.slot[ai]]
			if bu == nil {
				bu = &build{}
				builds[ar.slot[ai]] = bu
			}
			bu.dims = append(bu.dims, d)
			bu.vals = append(bu.vals, ar.val[ai])
		})
	}
	out := make(map[uint32]vec.Vector, len(builds))
	for sl, bu := range builds {
		v, err := vec.New(bu.dims, bu.vals)
		if err != nil {
			return nil, fmt.Errorf("streaming: live window reconstruction: %v", err)
		}
		out[sl] = v
	}
	return out, nil
}

// clockOf reads an engine's clock state without the full window
// reconstruction extractLive performs.
func clockOf(ix Index) (now float64, begun bool, clock sweepClock, ok bool) {
	switch v := ix.(type) {
	case *engine:
		return v.now, v.begun, v.clock, true
	case *invIndex:
		return v.now, v.begun, v.clock, true
	}
	return 0, false, sweepClock{}, false
}

// setClock stamps an engine's clock state.
func setClock(ix Index, now float64, begun bool, clock sweepClock) {
	switch v := ix.(type) {
	case *engine:
		v.now, v.begun, v.clock = now, begun, clock
	case *invIndex:
		v.now, v.begun, v.clock = now, begun, clock
	}
}

// seedInto replays items (non-decreasing times) into a fresh engine via
// insert, then stamps the clock state so the clone admits and expires
// exactly like the original.
func (st liveState) seedInto(ix SinkIndex) error {
	ins, ok := ix.(inserter)
	if !ok {
		return fmt.Errorf("streaming: %T cannot be seeded", ix)
	}
	for _, it := range st.items {
		if err := ins.insert(it); err != nil {
			return err
		}
	}
	setClock(ix, st.now, st.begun, st.clock)
	return nil
}
