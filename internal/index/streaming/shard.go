package streaming

import (
	"math"

	"sssj/internal/accum"
	"sssj/internal/apss"
	"sssj/internal/cbuf"
	"sssj/internal/lhmap"
	"sssj/internal/metrics"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// This file implements the cluster-worker variants of the streaming
// indexes (Options.Shard): one process-local index that plays the role
// of a single shard of the dimension-sharded group that parallel.go
// runs in-process. Where parEngine owns all P shards and fans out
// internally, a shard engine is exactly one shard — it receives the
// stream (or the subset of it the cluster coordinator routes to it),
// stores posting entries only for the dimensions it owns
// (d mod Shard.N == Shard.ID), and reports every match its owned
// dimensions let it discover.
//
// The cluster contract mirrors the in-process sharded engine's
// exactness argument (see parallel.go):
//
//   - Admission uses the same shard-local bounds that dominate a
//     candidate's *total* similarity (rs1 with only the worker's own
//     terms decremented; the ℓ2 Cauchy-Schwarz split between the scan
//     prefix and the other workers' dimensions), with the same
//     boundSlack guard. A real match (sim ≥ θ) is therefore never
//     declined by any worker that meets it.
//   - Verification is always exact, and recomputes the indexed partial
//     dot in the sequential engine's summation order (suffixDotDesc,
//     then the residual dot in ascending order), so the worker's
//     reported similarity is bit-identical to the single-process one.
//     The cheap ps1/ds1/sz2 verification bounds are deliberately NOT
//     applied: they need the candidate's full accumulated dot, and a
//     single worker only holds the part over its owned dimensions —
//     with a smaller dot the bound no longer dominates the total
//     similarity and could reject a real match.
//   - Every worker owning a dimension where the query touches an
//     indexed entry of a true match emits that match, with identical
//     floats; the coordinator deduplicates by (X, Y). Soundness of the
//     prefix filter guarantees at least one such worker exists: a real
//     match always touches the candidate's indexed suffix.
//
// Routing requirements (enforced by internal/cluster, stated here
// because they are what makes the worker's statistics sound):
//
//   - INV and L2 workers may receive only the items that have at least
//     one owned dimension. INV has no global statistics, and the L2
//     boundaries and bounds depend only on the item itself plus
//     worker-observed candidates.
//   - L2AP workers must receive EVERY item (broadcast). The monotone
//     max vector m decides indexing boundaries, pscores, and the
//     re-indexing cadence; under selective routing a worker's m would
//     diverge from the single-process one, moving boundaries and with
//     them the float summation split of verified dots — breaking
//     bit-identity. With broadcast, every worker maintains the same m
//     and m̂λ as the sequential engine and the residual split is
//     identical everywhere.
//
// Worker counters count the worker's own perspective: a broadcast item
// is counted by every worker, and IndexedEntries counts the indexing
// walk (icCore increments per boundary-crossing coordinate) even when
// the push hook filters the entry to another worker's dimension. The
// cluster coordinator overrides the stream-level counters (items,
// pairs, late) with its own and documents the work counters as
// per-worker sums.

// Shard configures a streaming index as one worker of an N-way
// dimension-sharded cluster group: the index stores posting entries
// only for dimensions d with d mod N == ID, while still observing the
// full vectors of the items routed to it. The zero value (N == 0)
// disables shard mode. See internal/cluster for the coordinator that
// routes items and merges the workers' match streams.
type Shard struct {
	// ID is this worker's shard index, in [0, N).
	ID int
	// N is the total number of workers in the group; 0 disables shard
	// mode, 1 yields a single worker owning every dimension.
	N int
}

// enabled reports whether shard mode is on.
func (s Shard) enabled() bool { return s.N > 0 }

// owns reports whether the worker owns dimension d — the same
// d mod P partition parEngine uses for its in-process shards.
func (s Shard) owns(d uint32) bool { return int(d%uint32(s.N)) == s.ID }

// shardEngine is the cluster-worker variant of the prefix-filtering
// engines (STR-L2, STR-L2AP, STR-AP): icCore index construction with
// the push hook filtered to owned dimensions, parEngine's shard-local
// admission bounds, and exact-only verification. See the file comment
// for the exactness and routing contract.
type shardEngine struct {
	icCore
	kernel apss.Kernel
	lambda float64
	tau    float64
	shard  Shard
	// scalar selects the frozen entry-at-a-time scan kernel
	// (kernel_scalar.go) instead of the vectorized block kernel.
	scalar bool

	ar    parena
	lists map[uint32]*chain
	acc   accum.Dense

	// sqAbove is candGenVec's per-item suffix-mass scratch.
	sqAbove []float64

	// m̂λ over ALL dimensions of the items this worker observed — not
	// just owned ones: rs1 needs m̂λ at every coordinate of the query.
	// For L2AP (broadcast) these equal the sequential engine's; for a
	// selectively routed worker they cover every item the worker can
	// meet as a candidate, which keeps the bound dominating. L2AP/AP
	// only.
	mhatVal   map[uint32]float64
	mhatT     map[uint32]float64
	lastTouch map[uint32]float64

	clock sweepClock
	now   float64
	begun bool
}

func newShardEngine(p apss.Params, kernel apss.Kernel, useAP, useL2 bool, shard Shard, foreign, scalar bool, c *metrics.Counters) *shardEngine {
	e := &shardEngine{
		icCore: icCore{
			p:       p,
			useAP:   useAP,
			useL2:   useL2,
			foreign: foreign,
			c:       c,
			res:     lhmap.New[uint64, *smeta](),
		},
		kernel: kernel,
		lambda: p.Lambda,
		tau:    kernel.Horizon(p.Theta),
		shard:  shard,
		scalar: scalar,
		ar:     parena{withPnorm: true},
		lists:  make(map[uint32]*chain),
	}
	e.icCore.push = e.pushEntry
	if useAP {
		e.m = vec.NewMaxTracker()
		e.mhatVal = make(map[uint32]float64)
		e.mhatT = make(map[uint32]float64)
		e.lastTouch = make(map[uint32]float64)
	}
	return e
}

// pushEntry stores only owned dimensions; entries of other workers'
// dimensions are dropped (their owner indexes them).
func (e *shardEngine) pushEntry(d uint32, slot uint32, t, val, pnorm float64) {
	if !e.shard.owns(d) {
		return
	}
	e.ar.pushTo(e.lists, d, slot, t, val, pnorm)
}

// Add implements Index (the collect adapter over AddTo).
func (e *shardEngine) Add(x stream.Item) ([]apss.Match, error) { return collectAdd(e, x) }

// AddTo implements SinkIndex: the sequential engine's query-then-insert
// skeleton over the worker's owned slice of the index.
func (e *shardEngine) AddTo(x stream.Item, emit apss.Sink) error {
	if e.begun && x.Time < e.now {
		return ErrTimeOrder
	}
	e.advanceTo(x.Time)
	e.c.Items++

	if e.useAP {
		if changed := e.m.Update(x.Vec); len(changed) > 0 {
			e.reindex(changed)
		}
	}

	pn := x.Vec.PrefixNorms()
	e.candGen(x, pn)
	g := apss.NewGate(emit)
	e.candVer(x, &g)
	e.c.Pairs += g.Emitted()

	e.indexVector(x, pn)
	if e.useAP {
		e.mhatUpdate(x)
	}
	return g.Err()
}

// advanceTo moves the stream clock to t and runs the clock-driven
// maintenance every arrival performs (see engine.advanceTo).
func (e *shardEngine) advanceTo(t float64) {
	e.begun = true
	e.now = t
	e.expire(t, e.tau)
	e.maybeSweep()
}

// Advance implements Advancer: an itemless watermark barrier (see
// engine.Advance). The cluster coordinator broadcasts one to every
// worker after each watermark advance, keeping the workers' maintenance
// clocks in lockstep even under selective routing.
func (e *shardEngine) Advance(t float64) error {
	if e.begun && t <= e.now {
		return nil
	}
	e.advanceTo(t)
	return nil
}

// candGen is the worker's share of Algorithm 7: scan x's owned
// coordinates in reverse order, accumulating exact partial dot products
// for candidates that survive the shard-local admission bounds — the
// same bounds parEngine.shardScan applies, against this worker's view.
// Runs on the block kernel (kernelv.go) unless the ScalarKernel ablation
// selects the frozen oracle (kernel_scalar.go). pnx is
// x.Vec.PrefixNorms().
func (e *shardEngine) candGen(x stream.Item, pnx []float64) {
	if e.scalar {
		e.candGenScalar(x)
	} else {
		e.candGenVec(x, pnx)
	}
}

// candVer verifies every admitted candidate exactly, recomputing the
// indexed partial dot in the sequential engine's summation order so the
// reported similarity is bit-identical across workers and to the
// single-process engines. No ps1/ds1/sz2 short-circuits: with only the
// owned part of the dot they would be unsound (see the file comment).
func (e *shardEngine) candVer(x stream.Item, g *apss.Gate) {
	a := &e.acc
	theta := e.p.Theta
	for _, sl := range a.Cands {
		if a.Dead[sl] == a.Epoch {
			continue
		}
		meta := e.residual(sl)
		if meta == nil {
			continue
		}
		dt := x.Time - meta.t
		e.c.FullDots++
		aDot := suffixDotDesc(x.Vec, meta.vec, meta.boundary)
		raw := aDot + vec.Dot(x.Vec, meta.vec.SliceByIndex(0, meta.boundary))
		// Factor is in [0, 1] by the Kernel contract, so a raw dot below θ
		// cannot decay into a match: skip the exp for it. A NaN raw fails
		// the comparison and is rejected by the one below, as before.
		if raw < theta {
			continue
		}
		if sim := raw * e.kernel.Factor(dt); sim >= theta {
			g.Emit(apss.Match{X: x.ID, Y: e.slots.id[sl], Sim: sim, Dot: raw, DT: dt})
		}
	}
}

// mhatAt returns m̂λ_j evaluated at the current time.
func (e *shardEngine) mhatAt(d uint32) float64 {
	v, ok := e.mhatVal[d]
	if !ok {
		return 0
	}
	return v * math.Exp(-e.lambda*(e.now-e.mhatT[d]))
}

// mhatUpdate refreshes the decayed argmax over ALL of x's dimensions
// (see the field comment) and records the touch times driving the
// horizon sweep.
func (e *shardEngine) mhatUpdate(x stream.Item) {
	for i, d := range x.Vec.Dims {
		if x.Vec.Vals[i] >= e.mhatAt(d) {
			e.mhatVal[d] = x.Vec.Vals[i]
			e.mhatT[d] = x.Time
		}
		e.lastTouch[d] = x.Time
	}
}

// maybeSweep runs the horizon sweep when the clock says it is due (see
// engine.maybeSweep).
func (e *shardEngine) maybeSweep() {
	if !e.clock.due(e.now, e.tau) {
		return
	}
	e.c.ExpiredEntries += sweepChains(&e.ar, e.lists, e.useAP, e.now, e.tau)
	if e.useAP {
		horizon := e.now - e.tau
		for d, t := range e.lastTouch {
			if t < horizon {
				delete(e.mhatVal, d)
				delete(e.mhatT, d)
				delete(e.m, d)
				delete(e.lastTouch, d)
			}
		}
	}
}

// Size implements Index: the worker's own occupancy (owned posting
// lists; residuals cover every item the worker observed).
func (e *shardEngine) Size() SizeInfo {
	var s SizeInfo
	for _, ch := range e.lists {
		if ch.n > 0 {
			s.Lists++
			s.PostingEntries += int(ch.n)
		}
	}
	s.Residuals = e.res.Len()
	if e.useAP {
		s.TrackedDims = len(e.m)
		if n := len(e.mhatVal); n > s.TrackedDims {
			s.TrackedDims = n
		}
	}
	return s
}

// Params implements Index.
func (e *shardEngine) Params() apss.Params { return e.p }

// ---------------------------------------------------------------------------

// shardInv is the cluster-worker variant of STR-INV: posting chains for
// owned dimensions only, and — unlike invIndex, whose ascending scan
// accumulates the full dot — a per-slot copy of each indexed item's
// full vector, so emission can recompute the exact dot product over all
// dimensions. vec.Dot's ascending merge adds exactly the coordinate
// products the sequential scan adds, in the same order, so the reported
// similarity is bit-identical. INV has no pruning, so contact on any
// shared owned dimension suffices for discovery; routing only needs to
// cover each item's owners.
type shardInv struct {
	p       apss.Params
	kernel  apss.Kernel
	tau     float64
	shard   Shard
	foreign bool
	// scalar selects the frozen entry-at-a-time scan kernel.
	scalar bool
	c      *metrics.Counters

	ar    parena
	lists map[uint32]*chain
	slots slotTab
	// vecs maps a live slot to the item's full vector, for the exact
	// full-dot emission; cleared when the slot is recycled.
	vecs []vec.Vector
	live cbuf.Ring[uint32]
	acc  accum.Dense

	clock sweepClock
	now   float64
	begun bool

	// Vectorized-kernel scratch (see invIndex).
	prLanes [blockCap]float64
}

func newShardInv(p apss.Params, kernel apss.Kernel, shard Shard, foreign, scalar bool, c *metrics.Counters) *shardInv {
	return &shardInv{
		p:       p,
		kernel:  kernel,
		tau:     kernel.Horizon(p.Theta),
		shard:   shard,
		foreign: foreign,
		scalar:  scalar,
		c:       c,
		lists:   make(map[uint32]*chain),
	}
}

// Add implements Index (the collect adapter over AddTo).
func (ix *shardInv) Add(x stream.Item) ([]apss.Match, error) { return collectAdd(ix, x) }

// AddTo implements SinkIndex.
func (ix *shardInv) AddTo(x stream.Item, emit apss.Sink) error {
	if ix.begun && x.Time < ix.now {
		return ErrTimeOrder
	}
	ix.advanceTo(x.Time)
	ix.c.Items++

	a := &ix.acc
	a.Begin(ix.slots.span())
	dims, vals := x.Vec.Dims, x.Vec.Vals
	if ix.scalar {
		ix.scanScalar(x)
	} else {
		ix.scanVec(x)
	}

	g := apss.NewGate(emit)
	for _, sl := range a.Cands {
		dt := x.Time - ix.slots.t[sl]
		// Exact full dot over ALL dimensions: the owned partial dot only
		// selected the candidate. vec.Dot's ascending merge reproduces
		// the sequential accumulation order bit for bit.
		ix.c.FullDots++
		dot := vec.Dot(x.Vec, ix.vecs[sl])
		if dot < ix.p.Theta {
			continue // Factor ≤ 1: no decay lifts it to θ (see shardEngine.candVer)
		}
		if sim := dot * ix.kernel.Factor(dt); sim >= ix.p.Theta {
			g.Emit(apss.Match{X: x.ID, Y: ix.slots.id[sl], Sim: sim, Dot: dot, DT: dt})
		}
	}
	ix.c.Pairs += g.Emitted()

	// Index only items with at least one owned dimension; anything else
	// can never be discovered here, so retaining it would only grow the
	// slot space.
	owned := false
	for _, d := range dims {
		if ix.shard.owns(d) {
			owned = true
			break
		}
	}
	if owned {
		sl := ix.slots.alloc(x.ID, x.Time, x.Side)
		if int(sl) >= len(ix.vecs) {
			ix.vecs = append(ix.vecs, make([]vec.Vector, int(sl)+1-len(ix.vecs))...)
		}
		ix.vecs[sl] = x.Vec
		ix.live.PushBack(sl)
		for i, d := range dims {
			if !ix.shard.owns(d) {
				continue
			}
			ix.ar.pushTo(ix.lists, d, sl, x.Time, vals[i], 0)
			ix.c.IndexedEntries++
		}
	}
	return g.Err()
}

// advanceTo moves the stream clock to t and recycles the slots (and
// retained vectors) of items past the horizon (see invIndex.advanceTo).
func (ix *shardInv) advanceTo(t float64) {
	ix.begun = true
	ix.now = t
	for ix.live.Len() > 0 {
		sl := ix.live.Front()
		if t-ix.slots.t[sl] <= ix.tau {
			break
		}
		ix.live.PopFront()
		ix.vecs[sl] = vec.Vector{}
		ix.slots.release(sl)
	}
	ix.maybeSweep()
}

// Advance implements Advancer: an itemless watermark barrier (see
// engine.Advance).
func (ix *shardInv) Advance(t float64) error {
	if ix.begun && t <= ix.now {
		return nil
	}
	ix.advanceTo(t)
	return nil
}

func (ix *shardInv) maybeSweep() {
	if !ix.clock.due(ix.now, ix.tau) {
		return
	}
	ix.c.ExpiredEntries += sweepChains(&ix.ar, ix.lists, false, ix.now, ix.tau)
}

// Size implements Index.
func (ix *shardInv) Size() SizeInfo {
	var s SizeInfo
	for _, ch := range ix.lists {
		if ch.n > 0 {
			s.Lists++
			s.PostingEntries += int(ch.n)
		}
	}
	s.Residuals = ix.live.Len()
	return s
}

// Params implements Index.
func (ix *shardInv) Params() apss.Params { return ix.p }
