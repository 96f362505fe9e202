package streaming

import (
	"math"
	"sync"

	"sssj/internal/accum"
	"sssj/internal/apss"
	"sssj/internal/cbuf"
	"sssj/internal/lhmap"
	"sssj/internal/metrics"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// This file implements the sharded parallel variants of the streaming
// indexes (Options.Workers > 1). The dimension space is partitioned
// across P shards, each owning a block arena holding the posting chains
// (and, for L2AP, the m̂λ slices) of its dimensions. Add fans candidate
// generation out to the shards in parallel, merges the per-shard dense
// accumulators, and runs candidate verification concurrently over the
// merged candidate list. Items are keyed by the same compact slots as in
// the sequential engines; the slot table is owned by the coordinator and
// only read during a fan-out.
//
// Exactness. The sequential engines interleave accumulation with
// data-dependent pruning; a shard cannot reuse those rules verbatim,
// because a bound that is sound mid-scan in a single sequential pass is
// not sound against contributions accumulating concurrently in other
// shards. The parallel engines therefore use shard-local admission
// bounds that dominate the *total* similarity of a candidate:
//
//   - rs1 (L2AP): when shard s first meets candidate y at coordinate
//     position i of x, y has no indexed entry at any s-owned dimension
//     past i — and, because the indexed part of a vector is a suffix,
//     no residual coordinate there either. Hence
//     sim(x, y) ≤ rs1_total − Σ_{j>i, owned by s} x_j·m̂λ(d_j),
//     which each shard maintains by decrementing only its own terms.
//   - ℓ2: sim(x, y) ≤ e^{−λΔt}·(‖x_{≤i}‖ + ‖x_{>i} restricted to the
//     other shards' dimensions‖), by Cauchy-Schwarz on the two spans a
//     first contact at position i still allows.
//
// A candidate declined by either bound in any shard is provably below
// θ and is dropped globally. Every surviving candidate is verified
// exactly, and — to keep reported similarities bit-identical to the
// sequential engines' — the indexed partial dot product is recomputed
// in the same summation order the sequential scan uses (descending
// dimension) before the residual dot product is added.
//
// The admission and verification bounds subtract boundSlack from θ so
// a float rounding difference between the sharded and sequential
// accumulation orders can only admit an extra candidate (later rejected
// exactly), never drop a real match.
const boundSlack = 1e-9

// parShard owns the posting arena and chains for the dimensions
// d with d mod P == shard index, plus per-Add scratch state that only
// the shard's worker goroutine touches during a fan-out.
type parShard struct {
	ar      parena
	lists   map[uint32]*chain
	mhatVal map[uint32]float64 // L2AP only
	mhatT   map[uint32]float64 // L2AP only

	// Scratch, reset every Add; owned by the shard worker while the
	// fan-out runs, read by the coordinator after the join barrier.
	acc       accum.Dense
	traversed int64
	expired   int64
}

// parEngine is the sharded counterpart of engine: STR-L2, STR-L2AP, and
// the STR-AP ablation with candidate generation and verification spread
// over Workers goroutines. It produces the same match set (bit-identical
// similarities) as the sequential engine on the same stream. Like every
// streaming index, Add itself must be called from one goroutine at a
// time; the parallelism is internal.
type parEngine struct {
	icCore
	kernel apss.Kernel
	lambda float64
	tau    float64
	// scalar selects the frozen entry-at-a-time scan kernel
	// (kernel_scalar.go) instead of the vectorized block kernel.
	scalar bool

	shards []*parShard
	macc   accum.Dense // merged accumulator, coordinator-owned

	// lastTouch tracks the newest arrival time per dimension, driving
	// the horizon sweep (see sweepClock).
	lastTouch map[uint32]float64
	clock     sweepClock

	now   float64
	begun bool
}

func newParEngine(p apss.Params, kernel apss.Kernel, useAP, useL2 bool, workers int, foreign, scalar bool, c *metrics.Counters) *parEngine {
	e := &parEngine{
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
		scalar: scalar,
		shards: make([]*parShard, workers),
	}
	e.icCore.push = e.pushEntry
	for i := range e.shards {
		s := &parShard{ar: parena{withPnorm: true}, lists: make(map[uint32]*chain)}
		if useAP {
			s.mhatVal = make(map[uint32]float64)
			s.mhatT = make(map[uint32]float64)
		}
		e.shards[i] = s
	}
	if useAP {
		e.m = vec.NewMaxTracker()
		e.lastTouch = make(map[uint32]float64)
	}
	return e
}

// owner maps a dimension to its shard.
func (e *parEngine) owner(d uint32) int { return int(d % uint32(len(e.shards))) }

// Add implements Index (the collect adapter over AddTo).
func (e *parEngine) Add(x stream.Item) ([]apss.Match, error) { return collectAdd(e, x) }

// AddTo implements SinkIndex. Verification may fan out across the
// workers, but emission happens only on the calling goroutine, after the
// join barrier — a sink never sees concurrent calls.
func (e *parEngine) AddTo(x stream.Item, emit apss.Sink) error {
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

// advanceTo moves the stream clock to t (≥ e.now once begun) and runs
// the clock-driven maintenance every arrival performs (see the
// sequential engine's advanceTo). All shard state is touched from the
// calling goroutine only — no fan-out is in flight during a barrier.
func (e *parEngine) advanceTo(t float64) {
	e.begun = true
	e.now = t
	e.expire(t, e.tau)
	e.maybeSweep()
}

// Advance implements Advancer: an itemless watermark barrier (see
// engine.Advance). Because the sweep clock advances exactly as it would
// for an arrival at t, a barrier keeps the sharded engine's maintenance
// schedule — and therefore its output — identical to the sequential
// engine fed the same items and barriers.
func (e *parEngine) Advance(t float64) error {
	if e.begun && t <= e.now {
		return nil
	}
	e.advanceTo(t)
	return nil
}

// candGen fans the reverse coordinate scan out to the shards and merges
// the per-shard accumulators into macc, dropping candidates any shard
// proved below threshold. pnx is x.Vec.PrefixNorms().
func (e *parEngine) candGen(x stream.Item, pnx []float64) {
	e.macc.Begin(e.slots.span())
	dims, vals := x.Vec.Dims, x.Vec.Vals
	if len(dims) == 0 {
		return
	}

	// Shared read-only per-position tables.
	var sqAbove []float64 // sum of squared values strictly past position i
	if e.useL2 {
		sqAbove = make([]float64, len(vals))
		for i := len(vals) - 2; i >= 0; i-- {
			sqAbove[i] = sqAbove[i+1] + vals[i+1]*vals[i+1]
		}
	}
	var mh []float64 // m̂λ(d_i) decayed to now, read from the owner shards
	rs1Total := math.Inf(1)
	if e.useAP {
		mh = make([]float64, len(dims))
		rs1Total = 0
		for i, d := range dims {
			mh[i] = e.shards[e.owner(d)].mhatAt(d, e.lambda, e.now)
			rs1Total += vals[i] * mh[i]
		}
	}

	// Fan out to the shards that own at least one of x's dimensions; the
	// first active shard runs on the calling goroutine, which would
	// otherwise just block on the join.
	work := make([]bool, len(e.shards))
	first := -1
	for _, d := range dims {
		if s := e.owner(d); !work[s] {
			work[s] = true
			if first < 0 || s < first {
				first = s
			}
		}
	}
	var wg sync.WaitGroup
	for s, w := range work {
		if !w || s == first {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			e.shardScan(e.shards[s], s, x, pnx, sqAbove, mh, rs1Total)
		}(s)
	}
	if first >= 0 {
		e.shardScan(e.shards[first], first, x, pnx, sqAbove, mh, rs1Total)
	}
	wg.Wait()

	// Merge in fixed shard order so the merged partial dots are
	// deterministic; they feed only the verification bounds, never a
	// reported similarity. A candidate declined by any shard is provably
	// below θ and dropped globally. Both passes are the batched
	// accumulator merges of internal/accum.
	m := &e.macc
	for s, w := range work {
		if !w {
			continue
		}
		m.MergeDeads(&e.shards[s].acc)
	}
	for s, w := range work {
		if !w {
			continue
		}
		sh := e.shards[s]
		e.c.EntriesTraversed += sh.traversed
		e.c.ExpiredEntries += sh.expired
		sh.traversed, sh.expired = 0, 0
		m.MergeCands(&sh.acc)
	}
	e.c.Candidates += int64(len(m.Cands))
}

// shardScan is one shard's share of Algorithm 7: scan x's owned
// coordinates in reverse order, accumulating exact partial dot products
// for candidates that survive the shard-local admission bounds, with
// time filtering applied per chain. Runs on the vectorized block kernel
// (kernelv.go) unless the ScalarKernel ablation selects the frozen
// oracle (kernel_scalar.go).
func (e *parEngine) shardScan(sh *parShard, s int, x stream.Item, pnx, sqAbove, mh []float64, rs1Total float64) {
	if e.scalar {
		e.shardScanScalar(sh, s, x, pnx, sqAbove, mh, rs1Total)
	} else {
		e.shardScanVec(sh, s, x, pnx, sqAbove, mh, rs1Total)
	}
}

// candVer verifies the merged candidates concurrently. The cheap
// ps1/ds1/sz2 rejections use the merged partial dot; survivors are
// recomputed exactly in the sequential engine's summation order so
// reported similarities are bit-identical to the Workers=1 path. With
// few candidates, verified matches go straight into the gate; the
// fanned-out path buffers per worker and the coordinator drains the
// buffers into the gate after the join.
func (e *parEngine) candVer(x stream.Item, g *apss.Gate) {
	cands := e.macc.Cands
	if len(cands) == 0 {
		return
	}
	vmx := x.Vec.MaxVal()
	sx := x.Vec.Sum()
	nx := x.Vec.NNZ()
	theta := e.p.Theta

	verify := func(cs []uint32, dots *int64, emit func(apss.Match)) {
		for _, sl := range cs {
			meta := e.residual(sl)
			if meta == nil {
				continue
			}
			dot := e.macc.Dot[sl]
			dt := x.Time - meta.t
			decay := e.kernel.Factor(dt)
			if (dot+meta.q)*decay < theta-boundSlack {
				continue
			}
			if (dot+math.Min(vmx*meta.rsum, meta.rmax*sx))*decay < theta-boundSlack {
				continue
			}
			if (dot+float64(min(nx, meta.boundary))*vmx*meta.rmax)*decay < theta-boundSlack {
				continue
			}
			*dots++
			aDot := suffixDotDesc(x.Vec, meta.vec, meta.boundary)
			raw := aDot + vec.Dot(x.Vec, meta.vec.SliceByIndex(0, meta.boundary))
			if sim := raw * decay; sim >= theta {
				emit(apss.Match{X: x.ID, Y: e.slots.id[sl], Sim: sim, Dot: raw, DT: dt})
			}
		}
	}

	workers := len(e.shards)
	if len(cands) < 2*workers || workers < 2 {
		var dots int64
		verify(cands, &dots, func(m apss.Match) { g.Emit(m) })
		e.c.FullDots += dots
		return
	}
	chunk := (len(cands) + workers - 1) / workers
	outs := make([][]apss.Match, workers)
	dots := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		lo := w * chunk
		if lo >= len(cands) {
			break
		}
		hi := min(lo+chunk, len(cands))
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			verify(cands[lo:hi], &dots[w], func(m apss.Match) { outs[w] = append(outs[w], m) })
		}(w, lo, hi)
	}
	verify(cands[:min(chunk, len(cands))], &dots[0], func(m apss.Match) { outs[0] = append(outs[0], m) })
	wg.Wait()
	for w := range outs {
		for _, m := range outs[w] {
			g.Emit(m)
		}
		e.c.FullDots += dots[w]
	}
}

func (e *parEngine) pushEntry(d uint32, slot uint32, t, val, pnorm float64) {
	sh := e.shards[e.owner(d)]
	sh.ar.pushTo(sh.lists, d, slot, t, val, pnorm)
}

// mhatAt returns the shard's m̂λ_d evaluated at time now.
func (sh *parShard) mhatAt(d uint32, lambda, now float64) float64 {
	v, ok := sh.mhatVal[d]
	if !ok {
		return 0
	}
	return v * math.Exp(-lambda*(now-sh.mhatT[d]))
}

// mhatUpdate refreshes the decayed argmax slices with x's coordinates
// and records the touch times that drive the horizon sweep.
func (e *parEngine) mhatUpdate(x stream.Item) {
	for i, d := range x.Vec.Dims {
		sh := e.shards[e.owner(d)]
		if x.Vec.Vals[i] >= sh.mhatAt(d, e.lambda, e.now) {
			sh.mhatVal[d] = x.Vec.Vals[i]
			sh.mhatT[d] = x.Time
		}
		e.lastTouch[d] = x.Time
	}
}

// maybeSweep runs the horizon sweep when the clock says it is due.
func (e *parEngine) maybeSweep() {
	if !e.clock.due(e.now, e.tau) {
		return
	}
	for _, sh := range e.shards {
		e.c.ExpiredEntries += sweepChains(&sh.ar, sh.lists, e.useAP, e.now, e.tau)
	}
	if e.useAP {
		horizon := e.now - e.tau
		for d, t := range e.lastTouch {
			if t < horizon {
				sh := e.shards[e.owner(d)]
				delete(sh.mhatVal, d)
				delete(sh.mhatT, d)
				delete(e.m, d)
				delete(e.lastTouch, d)
			}
		}
	}
}

// Size implements Index.
func (e *parEngine) Size() SizeInfo {
	var s SizeInfo
	for _, sh := range e.shards {
		for _, ch := range sh.lists {
			if ch.n > 0 {
				s.Lists++
				s.PostingEntries += int(ch.n)
			}
		}
	}
	s.Residuals = e.res.Len()
	if e.useAP {
		mhat := 0
		for _, sh := range e.shards {
			mhat += len(sh.mhatVal)
		}
		s.TrackedDims = max(len(e.m), mhat)
	}
	return s
}

// Params implements Index.
func (e *parEngine) Params() apss.Params { return e.p }

// ---------------------------------------------------------------------------

// invShard owns the STR-INV posting arena and chains for its dimensions
// plus per-Add scratch.
type invShard struct {
	ar        parena
	lists     map[uint32]*chain
	acc       accum.Dense
	traversed int64
	expired   int64

	// Vectorized-kernel scratch, owned by the shard worker (see invIndex).
	prLanes [blockCap]float64
}

// parInv is the sharded counterpart of invIndex. STR-INV has no pruning,
// so each shard computes exact partial dot products over its dimensions
// and the merge sums them. Summation order differs from the sequential
// scan, so reported similarities can differ in the last bits; the match
// set is the same on any stream without pairs sitting exactly on θ.
type parInv struct {
	p      apss.Params
	kernel apss.Kernel
	tau    float64
	// foreign enables two-stream join gating (see Options.Foreign).
	foreign bool
	// scalar selects the frozen entry-at-a-time scan kernel
	// (kernel_scalar.go) instead of the vectorized block kernel.
	scalar bool
	c      *metrics.Counters
	shards []*invShard
	slots  slotTab
	live   cbuf.Ring[uint32]
	macc   accum.Dense

	clock sweepClock
	now   float64
	begun bool
}

func newParInv(p apss.Params, kernel apss.Kernel, workers int, foreign, scalar bool, c *metrics.Counters) *parInv {
	ix := &parInv{
		p:       p,
		kernel:  kernel,
		tau:     kernel.Horizon(p.Theta),
		foreign: foreign,
		scalar:  scalar,
		c:       c,
		shards:  make([]*invShard, workers),
	}
	for i := range ix.shards {
		ix.shards[i] = &invShard{lists: make(map[uint32]*chain)}
	}
	return ix
}

func (ix *parInv) owner(d uint32) int { return int(d % uint32(len(ix.shards))) }

// Add implements Index (the collect adapter over AddTo).
func (ix *parInv) Add(x stream.Item) ([]apss.Match, error) { return collectAdd(ix, x) }

// AddTo implements SinkIndex. As in parEngine, shards scan concurrently
// but the sink is only invoked from the calling goroutine.
func (ix *parInv) AddTo(x stream.Item, emit apss.Sink) error {
	if ix.begun && x.Time < ix.now {
		return ErrTimeOrder
	}
	ix.advanceTo(x.Time)
	ix.c.Items++

	dims, vals := x.Vec.Dims, x.Vec.Vals
	work := make([]bool, len(ix.shards))
	first := -1
	for _, d := range dims {
		if s := ix.owner(d); !work[s] {
			work[s] = true
			if first < 0 || s < first {
				first = s
			}
		}
	}
	var wg sync.WaitGroup
	// Each shard scans its owned dimensions on the vectorized block
	// kernel (kernelv.go) unless the ScalarKernel ablation selects the
	// frozen oracle (kernel_scalar.go).
	scan := func(s int) {
		sh := ix.shards[s]
		if ix.scalar {
			ix.shardScanScalar(sh, s, x)
		} else {
			ix.shardScanVec(sh, s, x)
		}
	}
	for s, w := range work {
		if !w || s == first {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			scan(s)
		}(s)
	}
	if first >= 0 {
		scan(first)
	}
	wg.Wait()

	// STR-INV never declines a candidate, so the merge is a single
	// batched MergeCands pass per shard.
	m := &ix.macc
	m.Begin(ix.slots.span())
	for s, w := range work {
		if !w {
			continue
		}
		sh := ix.shards[s]
		ix.c.EntriesTraversed += sh.traversed
		ix.c.ExpiredEntries += sh.expired
		sh.traversed, sh.expired = 0, 0
		m.MergeCands(&sh.acc)
	}
	ix.c.Candidates += int64(len(m.Cands))

	g := apss.NewGate(emit)
	for _, sl := range m.Cands {
		dt := x.Time - ix.slots.t[sl]
		sim := m.Dot[sl] * ix.kernel.Factor(dt)
		if sim >= ix.p.Theta {
			g.Emit(apss.Match{X: x.ID, Y: ix.slots.id[sl], Sim: sim, Dot: m.Dot[sl], DT: dt})
		}
	}
	ix.c.Pairs += g.Emitted()

	if len(dims) > 0 {
		sl := ix.slots.alloc(x.ID, x.Time, x.Side)
		ix.live.PushBack(sl)
		for i, d := range dims {
			sh := ix.shards[ix.owner(d)]
			sh.ar.pushTo(sh.lists, d, sl, x.Time, vals[i], 0)
			ix.c.IndexedEntries++
		}
	}
	return g.Err()
}

// advanceTo moves the stream clock to t (≥ ix.now once begun) and runs
// the clock-driven maintenance every arrival performs (see
// invIndex.advanceTo).
func (ix *parInv) advanceTo(t float64) {
	ix.begun = true
	ix.now = t
	for ix.live.Len() > 0 {
		sl := ix.live.Front()
		if t-ix.slots.t[sl] <= ix.tau {
			break
		}
		ix.live.PopFront()
		ix.slots.release(sl)
	}
	ix.maybeSweep()
}

// Advance implements Advancer: an itemless watermark barrier (see
// engine.Advance).
func (ix *parInv) Advance(t float64) error {
	if ix.begun && t <= ix.now {
		return nil
	}
	ix.advanceTo(t)
	return nil
}

func (ix *parInv) maybeSweep() {
	if !ix.clock.due(ix.now, ix.tau) {
		return
	}
	for _, sh := range ix.shards {
		ix.c.ExpiredEntries += sweepChains(&sh.ar, sh.lists, false, ix.now, ix.tau)
	}
}

// Size implements Index.
func (ix *parInv) Size() SizeInfo {
	var s SizeInfo
	for _, sh := range ix.shards {
		for _, ch := range sh.lists {
			if ch.n > 0 {
				s.Lists++
				s.PostingEntries += int(ch.n)
			}
		}
	}
	return s
}

// Params implements Index.
func (ix *parInv) Params() apss.Params { return ix.p }
