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

// inserter is the index-without-querying face shared by the four engine
// types. Items must arrive in non-decreasing time order, like AddTo.
type inserter interface {
	insert(x stream.Item) error
}

// insert implements inserter for the sequential prefix engines.
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
	e.indexVector(x, x.Vec.PrefixNorms())
	if e.useAP {
		e.mhatUpdate(x)
	}
	return nil
}

// insert implements inserter for the sharded prefix engine. All state is
// touched from the calling goroutine; no fan-out is involved.
func (e *parEngine) insert(x stream.Item) error {
	if e.begun && x.Time < e.now {
		return ErrTimeOrder
	}
	e.advanceTo(x.Time)
	if e.useAP {
		if changed := e.m.Update(x.Vec); len(changed) > 0 {
			e.reindex(changed)
		}
	}
	e.indexVector(x, x.Vec.PrefixNorms())
	if e.useAP {
		e.mhatUpdate(x)
	}
	return nil
}

// insert implements inserter for sequential INV.
func (ix *invIndex) insert(x stream.Item) error {
	if ix.begun && x.Time < ix.now {
		return ErrTimeOrder
	}
	ix.advanceTo(x.Time)
	if len(x.Vec.Dims) > 0 {
		sl := ix.slots.alloc(x.ID, x.Time, x.Side)
		ix.live.PushBack(sl)
		for i, d := range x.Vec.Dims {
			ix.ar.pushTo(ix.lists, d, sl, x.Time, x.Vec.Vals[i], 0)
			ix.c.IndexedEntries++
		}
	}
	return nil
}

// insert implements inserter for sharded INV.
func (ix *parInv) insert(x stream.Item) error {
	if ix.begun && x.Time < ix.now {
		return ErrTimeOrder
	}
	ix.advanceTo(x.Time)
	if len(x.Vec.Dims) > 0 {
		sl := ix.slots.alloc(x.ID, x.Time, x.Side)
		ix.live.PushBack(sl)
		for i, d := range x.Vec.Dims {
			sh := ix.shards[ix.owner(d)]
			sh.ar.pushTo(sh.lists, d, sl, x.Time, x.Vec.Vals[i], 0)
			ix.c.IndexedEntries++
		}
	}
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

// extractLive recovers the live window from one of the four engine
// types. Items come back in non-decreasing time order (ties broken by
// id), in the engine's current dimension space.
func extractLive(ix Index) (liveState, error) {
	var st liveState
	appendRes := func(id uint64, m *smeta, slots *slotTab) {
		st.items = append(st.items, stream.Item{
			ID:   id,
			Time: m.t,
			Side: slots.side[m.slot],
			Vec:  m.vec,
		})
	}
	// chainItems reconstructs items from INV chains: group live entries
	// by slot, then materialize one vector per slot.
	type build struct {
		dims []uint32
		vals []float64
	}
	builds := map[uint32]*build{}
	collectChains := func(ar *parena, lists map[uint32]*chain, horizonStart float64) {
		for d, ch := range lists {
			for b := ch.oldest; b >= 0; b = ar.newer[b] {
				base := int(b) << blockShift
				for i := ar.off[b]; i < ar.end[b]; i++ {
					ai := base + int(i)
					if ar.t[ai] < horizonStart {
						continue
					}
					sl := ar.slot[ai]
					bu := builds[sl]
					if bu == nil {
						bu = &build{}
						builds[sl] = bu
					}
					bu.dims = append(bu.dims, d)
					bu.vals = append(bu.vals, ar.val[ai])
				}
			}
		}
	}
	finishChains := func(slots *slotTab) error {
		for sl, bu := range builds {
			v, err := vec.New(bu.dims, bu.vals)
			if err != nil {
				return fmt.Errorf("streaming: live window reconstruction: %v", err)
			}
			st.items = append(st.items, stream.Item{
				ID:   slots.id[sl],
				Time: slots.t[sl],
				Side: slots.side[sl],
				Vec:  v,
			})
		}
		return nil
	}
	switch v := ix.(type) {
	case *engine:
		st.p, st.kernel, st.now, st.begun, st.clock = v.p, v.kernel, v.now, v.begun, v.clock
		v.res.Ascend(func(id uint64, m *smeta) bool {
			appendRes(id, m, &v.slots)
			return true
		})
	case *parEngine:
		st.p, st.kernel, st.now, st.begun, st.clock = v.p, v.kernel, v.now, v.begun, v.clock
		v.res.Ascend(func(id uint64, m *smeta) bool {
			appendRes(id, m, &v.slots)
			return true
		})
	case *invIndex:
		st.p, st.kernel, st.now, st.begun, st.clock = v.p, v.kernel, v.now, v.begun, v.clock
		collectChains(&v.ar, v.lists, v.now-v.tau)
		if err := finishChains(&v.slots); err != nil {
			return liveState{}, err
		}
	case *parInv:
		st.p, st.kernel, st.now, st.begun, st.clock = v.p, v.kernel, v.now, v.begun, v.clock
		for _, sh := range v.shards {
			collectChains(&sh.ar, sh.lists, v.now-v.tau)
		}
		if err := finishChains(&v.slots); err != nil {
			return liveState{}, err
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

// clockOf reads the clock state of one of the four engine types without
// the full window reconstruction extractLive performs.
func clockOf(ix Index) (now float64, begun bool, clock sweepClock, ok bool) {
	switch v := ix.(type) {
	case *engine:
		return v.now, v.begun, v.clock, true
	case *parEngine:
		return v.now, v.begun, v.clock, true
	case *invIndex:
		return v.now, v.begun, v.clock, true
	case *parInv:
		return v.now, v.begun, v.clock, true
	}
	return 0, false, sweepClock{}, false
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
	switch v := ix.(type) {
	case *engine:
		v.now, v.begun, v.clock = st.now, st.begun, st.clock
	case *parEngine:
		v.now, v.begun, v.clock = st.now, st.begun, st.clock
	case *invIndex:
		v.now, v.begun, v.clock = st.now, st.begun, st.clock
	case *parInv:
		v.now, v.begun, v.clock = st.now, st.begun, st.clock
	}
	return nil
}
