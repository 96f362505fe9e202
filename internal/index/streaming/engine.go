package streaming

import (
	"math"

	"sssj/internal/accum"
	"sssj/internal/apss"
	"sssj/internal/cbuf"
	"sssj/internal/metrics"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// smeta is the per-vector state kept in the residual direct index R: the
// full vector (its prefix before boundary is the residual, and the suffix
// may be needed again by re-indexing), the Q[ι(x)] pscore and the
// residual statistics used by candidate verification. It is stored by
// value at the item's compact slot (what its posting entries and the
// accumulator are keyed by; recycled when the residual expires); live is
// false while the slot is free.
type smeta struct {
	t        float64
	vec      vec.Vector
	boundary int     // first indexed coordinate position
	q        float64 // Q[ι(x)]
	rsum     float64 // Σ of the residual prefix
	rmax     float64 // max value of the residual prefix
	live     bool
}

// icCore is the index-construction state machine shared by the
// sequential and sharded engines: the Algorithm 6 indexing walk and the
// §5.3 re-indexing pass. Keeping one implementation matters beyond
// reuse — the sharded engine's bit-identical-output guarantee depends on
// both engines computing exactly the same boundaries, pscores, and
// posting entries. push routes an entry to its posting chain (pushEntry;
// pushOwned on a sharded engine, which keeps only owned dimensions).
type icCore struct {
	p     apss.Params
	useAP bool
	useL2 bool
	// foreign enables the two-stream join: candidate admission and
	// emission are restricted to cross-side pairs. Index construction
	// and the global statistics are side-blind on purpose — see
	// Options.Foreign for why that is what makes the foreign join
	// bit-identical to the side-filtered self-join.
	foreign bool
	c       *metrics.Counters

	// meta and order are the residual direct index R (§6.2), in the shape
	// of invIndex.live: meta[sl] is the residual whose posting entries
	// carry slot sl, so candidate verification indexes instead of
	// hashing, and order holds the live residuals' slots in insertion
	// (= time) order, so expiry pops from the front.
	meta  []smeta
	order cbuf.Ring[uint32]
	// pn is prefix-norm scratch: the query's, filled by AddTo and insert
	// before indexVector, and a re-indexed residual's inside reindex.
	pn []float64
	// m is the monotone (undecayed) max vector driving the b1 bound;
	// per §6.2 decay is deliberately not applied to it, so it only grows
	// and re-indexing happens only when a new per-dimension maximum
	// arrives. L2AP only.
	m vec.MaxTracker
	// slots maps live items to the compact accumulator keys their
	// posting entries carry; a slot is recycled when the item's residual
	// expires from R.
	slots slotTab
	push  func(d uint32, slot uint32, t, val, pnorm float64)
	// noIndexBound is the NoIndexBound ablation (sequential only).
	noIndexBound bool
}

// icBound combines the enabled index-construction bounds.
func (ic *icCore) icBound(b1, b2 float64) float64 {
	switch {
	case ic.useAP && ic.useL2:
		return math.Min(b1, b2)
	case ic.useAP:
		return b1
	default:
		return b2
	}
}

// indexVector is the index-construction loop of Algorithm 6 (lines 6–14):
// walk x's coordinates accumulating the b1 (AP, undecayed m — §6.2) and b2
// (ℓ2) bounds; once their minimum reaches θ, index the remaining suffix
// and store the prefix as the residual. pn is x.Vec.PrefixNorms().
func (ic *icCore) indexVector(x stream.Item, pn []float64) {
	dims, vals := x.Vec.Dims, x.Vec.Vals
	if len(dims) == 0 {
		return
	}
	b1, bt := 0.0, 0.0
	boundary := -1
	q := 0.0
	var slot uint32
	for i, d := range dims {
		xj := vals[i]
		pscore := ic.icBound(b1, math.Sqrt(bt))
		if ic.useAP {
			b1 += xj * ic.m.At(d)
		}
		bt += xj * xj
		if ic.noIndexBound || ic.icBound(b1, math.Sqrt(bt)) >= ic.p.Theta {
			if boundary < 0 {
				boundary = i
				q = pscore
				slot = ic.slots.alloc(x.ID, x.Time, x.Side)
			}
			ic.push(d, slot, x.Time, xj, pn[i])
			ic.c.IndexedEntries++
		}
	}
	if boundary < 0 {
		// Bound never reached θ: x cannot be similar to any unit vector,
		// so it is not retained at all.
		return
	}
	ic.putResidual(slot, newResidual(x.Time, x.Vec, boundary, q))
	ic.c.ResidualEntries++
}

// newResidual builds the R entry of vector v indexed from boundary on.
func newResidual(t float64, v vec.Vector, boundary int, q float64) smeta {
	residual := v.SliceByIndex(0, boundary)
	return smeta{t: t, vec: v, boundary: boundary, q: q, rsum: residual.Sum(), rmax: residual.MaxVal(), live: true}
}

// putResidual stores m in R at slot sl. A slot that already holds a live
// residual (a checkpoint listing one item twice) is overwritten in
// place, keeping its position in order.
func (ic *icCore) putResidual(sl uint32, m smeta) {
	if n := int(sl) + 1; n > len(ic.meta) {
		ic.meta = append(ic.meta, make([]smeta, n-len(ic.meta))...)
	}
	if !ic.meta[sl].live {
		ic.order.PushBack(sl)
	}
	ic.meta[sl] = m
}

// residual returns the live residual whose posting entries carry slot
// sl, or nil: a slot that only a stale posting entry still names (one a
// checkpoint restored past its item's expiry) has none.
func (ic *icCore) residual(sl uint32) *smeta {
	if int(sl) < len(ic.meta) && ic.meta[sl].live {
		return &ic.meta[sl]
	}
	return nil
}

// ascendRes visits the live residuals in insertion (= time) order.
func (ic *icCore) ascendRes(fn func(sl uint32, m *smeta)) {
	for i := range ic.order.Len() {
		sl := ic.order.At(i)
		fn(sl, &ic.meta[sl])
	}
}

// expire drops the residuals beyond the horizon at time now (amortized
// O(1): R is in time order, §6.2) and recycles their slots. The test is
// the posting entries' own expiry predicate, now−t > tau, not the
// algebraically equal t < now−tau: the two round differently in the last
// bit, and a slot released while one of its entries still counts as live
// would hand that entry's partial dot to the slot's next owner.
func (ic *icCore) expire(now, tau float64) {
	for ic.order.Len() > 0 {
		sl := ic.order.Front()
		if !(now-ic.meta[sl].t > tau) {
			return
		}
		ic.order.PopFront()
		ic.meta[sl] = smeta{}
		ic.slots.release(sl)
	}
}

// reindex restores the AP invariant after the max vector grew on the
// given dimensions (§5.3): every live residual that touches a changed
// dimension re-runs its indexing walk under the new m; coordinates between
// the new and old boundary move from the residual into the posting lists,
// out of time order.
func (ic *icCore) reindex(changed []uint32) {
	changedSet := make(map[uint32]bool, len(changed))
	for _, d := range changed {
		changedSet[d] = true
	}
	ic.ascendRes(func(sl uint32, meta *smeta) {
		if meta.boundary == 0 {
			return
		}
		affected := false
		for _, d := range meta.vec.Dims[:meta.boundary] {
			if changedSet[d] {
				affected = true
				break
			}
		}
		if !affected {
			return
		}
		ic.c.Reindexings++
		dims, vals := meta.vec.Dims, meta.vec.Vals
		b1, bt := 0.0, 0.0
		newBoundary := meta.boundary
		q := 0.0
		crossed := false
		for i := 0; i < meta.boundary; i++ {
			pscore := ic.icBound(b1, math.Sqrt(bt))
			b1 += vals[i] * ic.m.At(dims[i])
			bt += vals[i] * vals[i]
			if !crossed && ic.icBound(b1, math.Sqrt(bt)) >= ic.p.Theta {
				crossed = true
				newBoundary = i
				q = pscore
			}
		}
		if !crossed {
			// Boundary unchanged, but Q[ι(y)] must be refreshed: the old
			// pscore was computed under the smaller m and may no longer
			// bound the residual's similarity to future queries.
			meta.q = ic.icBound(b1, math.Sqrt(bt))
			return
		}
		ic.pn = meta.vec.AppendPrefixNorms(ic.pn[:0])
		for i := newBoundary; i < meta.boundary; i++ {
			ic.push(dims[i], sl, meta.t, vals[i], ic.pn[i])
			ic.c.ReindexedEntries++
			ic.c.IndexedEntries++
		}
		meta.boundary = newBoundary
		meta.q = q
		residual := meta.vec.SliceByIndex(0, newBoundary)
		meta.rsum = residual.Sum()
		meta.rmax = residual.MaxVal()
	})
}

// engine implements STR-L2 (useL2 only), STR-L2AP (both flag sets), and
// the STR-AP ablation (useAP only), following Algorithms 6 (index
// construction), 7 (candidate generation) and 8 (candidate verification).
// Per the paper's color convention, green (ℓ2) lines are guarded by useL2
// and red (AP) lines by useAP.
//
// Postings live in a block arena chained per dimension (arena.go);
// candidate generation accumulates into a dense epoch-stamped
// accumulator keyed by item slot, and verification walks the reusable
// candidate list — the per-probe maps of the ring implementation (and
// their allocations) are gone.
//
// With sharded set the engine is one worker of a dimension-sharded group
// (Options.Shard, shard.go): it posts only the dimensions it owns, keeps
// per-slot statistics of the rest in ystat, and compares shard-local
// bounds on the total similarity instead of the sequential ones.
type engine struct {
	icCore
	kernel apss.Kernel
	lambda float64 // decay rate; meaningful when useAP (exponential kernel)
	tau    float64
	abl    Ablations

	// shard is the worker's place in its group; sharded reports
	// shard.N > 1. A lone shard (N = 1) is the sequential engine.
	shard   Shard
	sharded bool
	// ystat[sl] is the statistics record of the item holding slot sl
	// (see shardSlot); sharded only.
	ystat []shardSlot

	ar    parena
	lists map[uint32]*chain
	acc   accum.Dense

	// m̂λ, the time-decayed max vector used by rs1 (§5.3): for each
	// dimension we keep the argmax (value, time). Under exponential decay
	// the relative order of decayed coordinates never changes, so the
	// stored achiever is the exact decayed maximum while alive and a safe
	// upper bound after it expires. L2AP only.
	mhatVal map[uint32]float64
	mhatT   map[uint32]float64
	// lastTouch records the newest arrival time per dimension. Once a
	// dimension has gone untouched for a full horizon no live vector has
	// it, so the sweep can drop its m, m̂λ, and posting-list state
	// without affecting any bound. L2AP only.
	lastTouch map[uint32]float64

	clock sweepClock
	now   float64
	begun bool
}

func newEngine(p apss.Params, kernel apss.Kernel, useAP, useL2 bool, abl Ablations, foreign bool, shard Shard, c *metrics.Counters) *engine {
	e := &engine{
		icCore: icCore{
			p:            p,
			useAP:        useAP,
			useL2:        useL2,
			foreign:      foreign,
			c:            c,
			noIndexBound: abl.NoIndexBound,
		},
		kernel:  kernel,
		lambda:  p.Lambda,
		tau:     kernel.Horizon(p.Theta),
		abl:     abl,
		shard:   shard,
		sharded: shard.N > 1,
		ar:      parena{withPnorm: true},
		lists:   make(map[uint32]*chain),
	}
	e.icCore.push = e.pushEntry
	if e.sharded {
		e.icCore.push = e.pushOwned
	}
	if useAP {
		e.m = vec.NewMaxTracker()
		e.mhatVal = make(map[uint32]float64)
		e.mhatT = make(map[uint32]float64)
		e.lastTouch = make(map[uint32]float64)
	}
	return e
}

// Add implements Index (the collect adapter over AddTo).
func (e *engine) Add(x stream.Item) ([]apss.Match, error) { return collectAdd(e, x) }

// AddTo implements SinkIndex: IndConstr-L2AP-STR / IndConstr-L2-STR
// (Algorithm 6), i.e. candidate generation, verification — emitting each
// verified match straight into emit — then index construction for x.
func (e *engine) AddTo(x stream.Item, emit apss.Sink) error {
	if e.begun && x.Time < e.now {
		return ErrTimeOrder
	}
	e.advanceTo(x.Time)
	e.c.Items++

	// For L2AP, restore the prefix-filtering invariant *before* querying:
	// if x raises any per-dimension maximum, residuals touching those
	// dimensions may now need more of their coordinates indexed, or x's
	// own query could miss them (§5.3, re-indexing).
	if e.useAP {
		if changed := e.m.Update(x.Vec); len(changed) > 0 {
			e.reindex(changed)
		}
	}

	e.pn = x.Vec.AppendPrefixNorms(e.pn[:0])
	e.candGen(x, e.pn)
	// The gate lets a consumer stop mid-stream without leaving x half
	// processed: index construction below runs regardless.
	g := apss.NewGate(emit)
	e.candVer(x, &g)
	e.c.Pairs += g.Emitted()

	e.indexVector(x, e.pn)
	if e.useAP {
		e.mhatUpdate(x)
	}
	return g.Err()
}

// advanceTo moves the stream clock to t (which must be ≥ e.now once
// begun) and runs the clock-driven maintenance every arrival performs:
// expire residuals beyond the horizon, recycling their slots — their
// remaining posting entries are expired too and will never be visited
// again — and run the horizon sweep if it is due. Factored out of AddTo
// so a watermark barrier (Advance) drives exactly the same maintenance
// as an arrival at t.
func (e *engine) advanceTo(t float64) {
	e.begun = true
	e.now = t
	e.expire(t, e.tau)
	e.maybeSweep()
}

// Advance implements Advancer: an itemless watermark barrier. Expiry
// is sound because t is a promise that no item with Time < t will be
// added; a stale barrier (t ≤ now) is a no-op, and a barrier on a fresh
// engine establishes the clock floor.
func (e *engine) Advance(t float64) error {
	if e.begun && t <= e.now {
		return nil
	}
	e.advanceTo(t)
	return nil
}

// candGen is Algorithm 7: scan x's coordinates in reverse indexing order,
// accumulating partial dot products for candidates that survive the
// remscore and ℓ2 bounds, with time filtering applied per entry. The
// result lives in e.acc until the next probe. The scan runs on the
// vectorized block kernels (kernelv.go) unless the ScalarKernel ablation
// selects the frozen entry-at-a-time oracle (kernel_scalar.go); both
// produce bit-identical accumulator state and counters. pnx is
// x.Vec.PrefixNorms().
func (e *engine) candGen(x stream.Item, pnx []float64) {
	switch {
	case !e.abl.ScalarKernel:
		e.candGenVec(x, pnx)
	case e.sharded:
		e.candGenShardScalar(x)
	default:
		e.candGenScalar(x)
	}
}

// candVer is Algorithm 8: walk the candidate list, apply the decayed
// ps1/ds1/sz2 bounds, then compute the exact residual dot product and
// emit true matches into the gate as they are verified — no result slice
// on the hot path. The residual is addressed by slot, and the decay is
// the one candidate generation cached, if it needed it. A sharded engine
// applies bound 3 of shard.go instead and recomputes the indexed partial
// dot in the sequential engine's summation order, so the reported
// similarity is bit-identical across workers and to the single-process
// engine.
func (e *engine) candVer(x stream.Item, g *apss.Gate) {
	a := &e.acc
	if len(a.Cands) == 0 {
		return
	}
	theta, cut := e.p.Theta, e.p.Theta-boundSlack
	vmx := x.Vec.MaxVal()
	sx := x.Vec.Sum()
	nx := x.Vec.NNZ()
	// x on the dimensions this worker does not own, against which B̂
	// bounds y's non-owned indexed coordinates (sharded only).
	var xnrm, xsum, xmax float64
	xcnt := 0
	if e.sharded {
		for i, d := range x.Vec.Dims {
			if !e.shard.owns(d) {
				v := x.Vec.Vals[i]
				xnrm += v * v
				xsum += v
				xmax = max(xmax, v)
				xcnt++
			}
		}
		xnrm = math.Sqrt(xnrm)
	}
	for _, sl := range a.Cands {
		if a.Dead[sl] == a.Epoch {
			continue
		}
		meta := e.residual(sl)
		if meta == nil {
			// The candidate expired from R; it is outside the horizon.
			continue
		}
		dot := a.Dot[sl]
		dt := x.Time - meta.t
		decay := -1.0
		if !e.abl.ScalarKernel { // the frozen kernel keeps no decay cache
			decay = a.Decay[sl]
		}
		if decay < 0 {
			decay = e.kernel.Factor(dt)
		}
		switch {
		case e.sharded:
			st := &e.ystat[sl]
			bhat := min(xnrm*math.Sqrt(st.sq), xmax*st.sum, st.max*xsum, float64(min(xcnt, st.cnt))*xmax*st.max)
			phat := min(meta.q, vmx*meta.rsum, meta.rmax*sx, float64(min(nx, meta.boundary))*vmx*meta.rmax)
			if (dot+bhat+phat)*decay < cut {
				continue
			}
			// The owned partial dot only selected y.
			dot = suffixDotDesc(x.Vec, meta.vec, meta.boundary)
		case !e.abl.NoVerifyBounds:
			// ps1 (line 3), ds1 (line 4), sz2 (line 5), all decayed.
			if (dot+meta.q)*decay < theta {
				continue
			}
			if (dot+math.Min(vmx*meta.rsum, meta.rmax*sx))*decay < theta {
				continue
			}
			if (dot+float64(min(nx, meta.boundary))*vmx*meta.rmax)*decay < theta {
				continue
			}
		}
		e.c.FullDots++
		raw := dot + vec.Dot(x.Vec, meta.vec.SliceByIndex(0, meta.boundary))
		if sim := raw * decay; sim >= theta {
			g.Emit(apss.Match{X: x.ID, Y: e.slots.id[sl], Sim: sim, Dot: raw, DT: dt})
		}
	}
}

func (e *engine) pushEntry(d uint32, slot uint32, t, val, pnorm float64) {
	e.ar.pushTo(e.lists, d, slot, t, val, pnorm)
}

// mhatAt returns m̂λ_j evaluated at the current time.
func (e *engine) mhatAt(d uint32) float64 {
	v, ok := e.mhatVal[d]
	if !ok {
		return 0
	}
	return v * math.Exp(-e.lambda*(e.now-e.mhatT[d]))
}

// mhatUpdate refreshes the decayed argmax with x's coordinates. Under a
// fixed exponential rate the decayed order of two values never changes, so
// keeping the single achiever per dimension is exact while it lives. It
// also records the touch times that drive the horizon sweep.
func (e *engine) mhatUpdate(x stream.Item) {
	for i, d := range x.Vec.Dims {
		if x.Vec.Vals[i] >= e.mhatAt(d) {
			e.mhatVal[d] = x.Vec.Vals[i]
			e.mhatT[d] = x.Time
		}
		e.lastTouch[d] = x.Time
	}
}

// maybeSweep runs the horizon sweep when the clock says it is due. The
// sweep walks every posting chain, truncating expired entries and
// recycling emptied blocks into the arena freelist, releases the map
// heads of dimensions whose chain emptied, and drops the per-dimension
// statistics of dimensions beyond every live vector's reach. Dropping
// them is exact: a dimension untouched for a full horizon appears in no
// live vector, so its true decayed maximum is zero and its posting
// entries are all expired.
func (e *engine) maybeSweep() {
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

// Size implements Index.
func (e *engine) Size() SizeInfo {
	var s SizeInfo
	for _, ch := range e.lists {
		if ch.n > 0 {
			s.Lists++
			s.PostingEntries += int(ch.n)
		}
	}
	s.Residuals = e.order.Len()
	if e.useAP {
		s.TrackedDims = len(e.m)
		if n := len(e.mhatVal); n > s.TrackedDims {
			s.TrackedDims = n
		}
	}
	return s
}

// Params implements Index.
func (e *engine) Params() apss.Params { return e.p }
