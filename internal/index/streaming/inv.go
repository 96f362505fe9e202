package streaming

import (
	"sssj/internal/accum"
	"sssj/internal/apss"
	"sssj/internal/cbuf"
	"sssj/internal/metrics"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// invIndex is STR-INV (§5.1): everything is indexed, posting lists stay
// time-ordered, and candidate generation computes exact partial dot
// products. Time filtering scans each touched list backwards from the
// newest entry and truncates at the first expired one.
//
// Postings live in a block arena (see arena.go) chained per dimension;
// candidates accumulate in a dense epoch-stamped accumulator keyed by
// the compact item slot, so the per-probe hot path allocates nothing.
//
// With sharded set the index is one worker of a dimension-sharded group
// (Options.Shard, shard.go): it posts only owned dimensions, so its
// accumulated dot is partial, and it keeps every live item's full vector
// to verify candidates exactly.
type invIndex struct {
	p      apss.Params
	kernel apss.Kernel
	tau    float64
	// foreign enables two-stream join gating: only cross-side entries
	// are admitted as candidates (see Options.Foreign).
	foreign bool
	// scalar selects the frozen entry-at-a-time scan kernel
	// (kernel_scalar.go) instead of the vectorized block kernel.
	scalar bool
	c      *metrics.Counters
	// shard is the worker's place in its group; sharded reports
	// shard.N > 1. A lone shard (N = 1) is the sequential index.
	shard   Shard
	sharded bool

	ar    parena
	lists map[uint32]*chain
	slots slotTab
	// vecs maps a live slot to the item's full vector, for the exact
	// verification of a sharded index; cleared when the slot is recycled.
	vecs []vec.Vector
	// live holds the slots of in-horizon items in arrival order; the
	// front expires first, recycling the slot.
	live cbuf.Ring[uint32]
	acc  accum.Dense

	clock sweepClock
	now   float64
	begun bool

	// Vectorized-kernel scratch: per-block lane buffer for batched
	// coordinate products (kernelv.go).
	prLanes [blockCap]float64
}

func newInvIndex(p apss.Params, kernel apss.Kernel, foreign, scalar bool, shard Shard, c *metrics.Counters) *invIndex {
	return &invIndex{
		p:       p,
		kernel:  kernel,
		tau:     kernel.Horizon(p.Theta),
		foreign: foreign,
		scalar:  scalar,
		c:       c,
		shard:   shard,
		sharded: shard.N > 1,
		lists:   make(map[uint32]*chain),
	}
}

// Add implements Index (the collect adapter over AddTo).
func (ix *invIndex) Add(x stream.Item) ([]apss.Match, error) { return collectAdd(ix, x) }

// AddTo implements SinkIndex.
func (ix *invIndex) AddTo(x stream.Item, emit apss.Sink) error {
	if ix.begun && x.Time < ix.now {
		return ErrTimeOrder
	}
	ix.advanceTo(x.Time)
	ix.c.Items++

	a := &ix.acc
	a.Begin(ix.slots.span())
	// Backward scan per touched dimension: newest first, stop at the
	// first expired entry, then drop it and everything older (§6.2 time
	// filtering). Runs on the vectorized block kernel unless the
	// ScalarKernel ablation selects the frozen oracle.
	if ix.scalar {
		ix.scanScalar(x)
	} else {
		ix.scanVec(x)
	}

	g := apss.NewGate(emit)
	for _, sl := range a.Cands {
		dt := x.Time - ix.slots.t[sl]
		dot := a.Dot[sl]
		if ix.sharded {
			// The owned partial dot only selected the candidate. vec.Dot's
			// ascending merge reproduces the sequential accumulation order
			// bit for bit.
			ix.c.FullDots++
			if dot = vec.Dot(x.Vec, ix.vecs[sl]); dot < ix.p.Theta {
				continue // Factor ≤ 1: no decay lifts it to θ
			}
		}
		if sim := dot * ix.kernel.Factor(dt); sim >= ix.p.Theta {
			g.Emit(apss.Match{X: x.ID, Y: ix.slots.id[sl], Sim: sim, Dot: dot, DT: dt})
		}
	}
	ix.c.Pairs += g.Emitted()
	ix.index(x)
	return g.Err()
}

// index retains x: its slot, its posting entries (at owned dimensions
// when sharded) and, when sharded, its full vector. Every non-empty item
// is retained, so workers fed the same items keep identical slot tables;
// under cluster routing every item a worker receives has an owned
// dimension anyway.
func (ix *invIndex) index(x stream.Item) {
	if len(x.Vec.Dims) == 0 {
		return
	}
	sl := ix.slots.alloc(x.ID, x.Time, x.Side)
	ix.live.PushBack(sl)
	if ix.sharded {
		if int(sl) >= len(ix.vecs) {
			ix.vecs = append(ix.vecs, make([]vec.Vector, int(sl)+1-len(ix.vecs))...)
		}
		ix.vecs[sl] = x.Vec
	}
	for i, d := range x.Vec.Dims {
		if !ix.sharded || ix.shard.owns(d) {
			ix.ar.pushTo(ix.lists, d, sl, x.Time, x.Vec.Vals[i], 0)
			ix.c.IndexedEntries++
		}
	}
}

// advanceTo moves the stream clock to t (≥ ix.now once begun) and runs
// the clock-driven maintenance every arrival performs: recycle the
// slots of items past the horizon — no posting entry of theirs will
// ever be visited again (expiry uses the same cutoff) — and run the
// horizon sweep if due. Shared by AddTo and the Advance barrier.
func (ix *invIndex) advanceTo(t float64) {
	ix.begun = true
	ix.now = t
	for ix.live.Len() > 0 {
		sl := ix.live.Front()
		if t-ix.slots.t[sl] <= ix.tau {
			break
		}
		ix.live.PopFront()
		if ix.sharded {
			ix.vecs[sl] = vec.Vector{}
		}
		ix.slots.release(sl)
	}
	ix.maybeSweep()
}

// Advance implements Advancer: an itemless watermark barrier (see
// engine.Advance).
func (ix *invIndex) Advance(t float64) error {
	if ix.begun && t <= ix.now {
		return nil
	}
	ix.advanceTo(t)
	return nil
}

// maybeSweep runs the horizon sweep when the clock says it is due,
// truncating expired entries from lists no query has touched since their
// entries expired and recycling emptied blocks (see engine.maybeSweep).
func (ix *invIndex) maybeSweep() {
	if !ix.clock.due(ix.now, ix.tau) {
		return
	}
	ix.c.ExpiredEntries += sweepChains(&ix.ar, ix.lists, false, ix.now, ix.tau)
}

// Size implements Index. A sharded index reports its retained full
// vectors as Residuals.
func (ix *invIndex) Size() SizeInfo {
	var s SizeInfo
	for _, ch := range ix.lists {
		if ch.n > 0 {
			s.Lists++
			s.PostingEntries += int(ch.n)
		}
	}
	if ix.sharded {
		s.Residuals = ix.live.Len()
	}
	return s
}

// Params implements Index.
func (ix *invIndex) Params() apss.Params { return ix.p }
