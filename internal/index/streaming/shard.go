package streaming

import (
	"math"
	"slices"

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
// of a single shard of a dimension-sharded group. A shard engine
// receives the stream (or the subset of it the cluster coordinator
// routes to it), stores posting entries only for the dimensions it owns
// (d mod Shard.N == Shard.ID), and reports every match its owned
// dimensions let it discover.
//
// Exactness. A worker accumulates only the owned part A of a
// candidate's dot product, so the sequential engine's bounds, which
// reason about the full indexed dot, do not carry over verbatim. Every
// rejection below instead bounds the candidate's *total* similarity,
// and compares it against θ−boundSlack, so a float rounding difference
// between the worker's and the sequential summation order can only keep
// an extra candidate (later rejected exactly), never drop a real match.
// Notation at the scan of owned query position i, where the candidate y
// is met at its indexed position j: a = ‖x_{≤i}‖, c = ‖x on non-owned
// dimensions above i‖, pn = ‖y_{<j}‖, and "decay" is y's factor.
//
//  1. Admission at first contact: decay·√(a² + c²) (and rs1 for L2AP).
//     First contact at i means y has no coordinate at an owned dimension
//     of x above i: an indexed one would have been met already, and the
//     residual lies below every indexed dimension. So x·y only involves
//     x's positions ≤ i and x's non-owned positions above i, two
//     disjoint coordinate sets, and Cauchy–Schwarz over their union
//     bounds it by √(a² + c²)·‖y‖. rs1 keeps only the owned terms
//     decremented, by the same argument.
//  2. Early ℓ2 kill after each accumulation:
//     (A + c·‖y_{>j}‖ + ‖x_{<i}‖·pn)·decay, with ‖y_{>j}‖² taken as
//     ‖y‖² − pn² − y_j². Owned common dimensions above j are already in
//     A; y's coordinates at x's non-owned dimensions above i lie above j
//     (c·‖y_{>j}‖ bounds them); everything below pairs x_{<i} with
//     y_{<j}.
//  3. Verification before any full-vector merge:
//     (A + B̂ + P̂)·decay, where B̂ bounds the dot on y's indexed
//     coordinates at non-owned dimensions (the minimum of the ℓ2,
//     sum·max and count·max·max forms against x's non-owned part) and
//     P̂ is the sequential engine's ps1/ds1/sz2 bound on y's residual
//     prefix. A covers y's owned indexed coordinates exactly, so the
//     three terms together cover all of y.
//
// The per-slot statistics 2 and 3 read (‖y‖² and the non-owned indexed
// part's norm², sum, max and count) live in a slot-indexed slice on the
// engine, reused across slots: the push hook writes them as icCore
// indexes an item, and adds to them when L2AP re-indexing moves a
// boundary down.
//
// A survivor is verified exactly, recomputing the indexed partial dot in
// the sequential engine's summation order (suffixDotDesc, then the
// residual dot in ascending order), so the worker's reported similarity
// is bit-identical to the single-process one. Every worker owning a
// dimension where the query touches an indexed entry of a true match
// emits that match, with identical floats; the coordinator deduplicates
// by (X, Y). Soundness of the prefix filter guarantees at least one such
// worker exists: a real match always touches the candidate's indexed
// suffix.
//
// Routing requirements (Route states them as code; internal/cluster
// and the in-process group both obey them, and they are what makes the
// worker's statistics sound):
//
//   - INV and L2 workers may receive only the items that have at least
//     one owned dimension. INV has no global statistics, and the L2
//     boundaries and bounds depend only on the item itself plus
//     worker-observed candidates. Receiving more is harmless.
//   - L2AP and AP workers must receive EVERY item (broadcast). The monotone
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
// cluster coordinator and the in-process group override the
// stream-level counters (items, pairs, late) with their own and report
// the work counters as per-worker sums.

// boundSlack is subtracted from θ by every shard-local rejection, so a
// float rounding difference between a worker's and the sequential
// summation order can only keep an extra candidate (later rejected
// exactly), never drop a real match.
const boundSlack = 1e-9

// sqSlack is added under the square root of ‖y‖² − pn² − y_j², a
// difference of sums of squares: its rounding (a few ulps of ‖y‖² ≤ 1)
// could make the root underestimate a tiny true suffix norm by up to
// √ulp ≈ 1.5e-8, far past boundSlack. 1e-14 dominates that rounding and
// loosens the kill by at most c·1e-7.
const sqSlack = 1e-14

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

// owns reports whether the worker owns dimension d.
func (s Shard) owns(d uint32) bool { return int(d%uint32(s.N)) == s.ID }

// Route appends to dst the workers of an n-worker group that must
// receive an item with dimensions dims, under the routing requirements
// of the file comment: every worker for L2AP and AP, the owners of at
// least one of its dimensions, in order of first appearance, for INV and
// L2 (none for an empty vector).
func Route(kind Kind, n int, dims []uint32, dst []int) []int {
	if kind == L2AP || kind == AP {
		for i := 0; i < n; i++ {
			dst = append(dst, i)
		}
		return dst
	}
	start := len(dst)
	for _, d := range dims {
		w := int(d % uint32(n))
		if !slices.Contains(dst[start:], w) {
			dst = append(dst, w)
		}
	}
	return dst
}

// shardEngine is the cluster-worker variant of the prefix-filtering
// engines (STR-L2, STR-L2AP, STR-AP): icCore index construction with
// the push hook filtered to owned dimensions, and the shard-local
// admission, kill and verification bounds of the file comment.
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

	// ystat[sl] is the statistics record of the item holding slot sl
	// (see shardSlot); reused when the slot is.
	ystat []shardSlot

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

// shardSlot is what the kill and verification bounds know of an
// indexed item without touching its residual: ‖y‖², and the norm²,
// sum, max and count of its indexed coordinates at dimensions this
// worker does not own.
type shardSlot struct {
	t    float64 // the item's arrival time: a record with another t is stale
	nrm2 float64
	sq   float64
	sum  float64
	max  float64
	cnt  int
}

// pushEntry stores only owned dimensions; entries of other workers'
// dimensions are dropped (their owner indexes them) after adding them
// to the slot's statistics. A slot is only recycled once its item is
// past the horizon, so the next item to hold it arrives strictly later:
// a record whose time differs from t belongs to that earlier item and
// is reset. Both the indexing walk and re-indexing push in ascending
// position order, and the latter only below the boundary, so the
// indexing walk's last push, the item's top coordinate, sets ‖y‖².
func (e *shardEngine) pushEntry(d uint32, slot uint32, t, val, pnorm float64) {
	if n := int(slot) + 1; n > len(e.ystat) {
		e.ystat = append(e.ystat, make([]shardSlot, n-len(e.ystat))...)
	}
	st := &e.ystat[slot]
	if st.t != t {
		*st = shardSlot{t: t}
	}
	if n2 := pnorm*pnorm + val*val; n2 > st.nrm2 {
		st.nrm2 = n2
	}
	if e.shard.owns(d) {
		e.ar.pushTo(e.lists, d, slot, t, val, pnorm)
		return
	}
	st.sq += val * val
	st.sum += val
	st.max = max(st.max, val)
	st.cnt++
}

// killBound is bound 2 of the file comment before decay: dot is the
// owned partial dot A including y's entry (value yj, prefix norm pn),
// c = ‖x on non-owned dimensions above the query position‖, pnx =
// ‖x before it‖ and nrm2 = ‖y‖². Both scan kernels call it, so they
// compare the same float.
func killBound(dot, c, pnx, pn, yj, nrm2 float64) float64 {
	return dot + c*math.Sqrt(max(0, nrm2-pn*pn-yj*yj)+sqSlack) + pnx*pn
}

// admitGeo is bound 1's ℓ2 term before decay: √(a² + c²) for a =
// ‖x_{≤i}‖ and c2 = c². Shared by both scan kernels.
func admitGeo(a, c2 float64) float64 { return math.Sqrt(a*a + c2) }

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
// for candidates that survive the shard-local admission bound and the
// early kill (bounds 1 and 2 of the file comment). Runs on the block
// kernel (kernelv.go) unless the ScalarKernel ablation selects the
// frozen oracle (kernel_scalar.go). pnx is x.Vec.PrefixNorms().
func (e *shardEngine) candGen(x stream.Item, pnx []float64) {
	if e.scalar {
		e.candGenScalar(x)
	} else {
		e.candGenVec(x, pnx)
	}
}

// candVer applies bound 3 of the file comment to every live candidate
// and verifies the survivors exactly, recomputing the indexed partial
// dot in the sequential engine's summation order so the reported
// similarity is bit-identical across workers and to the single-process
// engines. The decay is the one candidate generation cached, if it
// needed it (only the block kernel's kill keeps a cache).
func (e *shardEngine) candVer(x stream.Item, g *apss.Gate) {
	a := &e.acc
	if len(a.Cands) == 0 {
		return
	}
	theta, cut := e.p.Theta, e.p.Theta-boundSlack
	vmx, sx, nx := x.Vec.MaxVal(), x.Vec.Sum(), x.Vec.NNZ()
	// x on the dimensions this worker does not own, against which B̂
	// bounds y's non-owned indexed coordinates.
	var xsq, xsum, xmax float64
	xcnt := 0
	for i, d := range x.Vec.Dims {
		if !e.shard.owns(d) {
			v := x.Vec.Vals[i]
			xsq += v * v
			xsum += v
			xmax = max(xmax, v)
			xcnt++
		}
	}
	xnrm := math.Sqrt(xsq)
	for _, sl := range a.Cands {
		if a.Dead[sl] == a.Epoch {
			continue
		}
		meta := e.residual(sl)
		if meta == nil {
			continue
		}
		dt := x.Time - meta.t
		decay := -1.0
		if e.useL2 && !e.scalar {
			decay = a.Decay[sl]
		}
		if decay < 0 {
			decay = e.kernel.Factor(dt)
		}
		st := &e.ystat[sl]
		bhat := min(xnrm*math.Sqrt(st.sq), xmax*st.sum, st.max*xsum, float64(min(xcnt, st.cnt))*xmax*st.max)
		phat := min(meta.q, vmx*meta.rsum, meta.rmax*sx, float64(min(nx, meta.boundary))*vmx*meta.rmax)
		if (a.Dot[sl]+bhat+phat)*decay < cut {
			continue
		}
		e.c.FullDots++
		raw := suffixDotDesc(x.Vec, meta.vec, meta.boundary) + vec.Dot(x.Vec, meta.vec.SliceByIndex(0, meta.boundary))
		if sim := raw * decay; sim >= theta {
			g.Emit(apss.Match{X: x.ID, Y: e.slots.id[sl], Sim: sim, Dot: raw, DT: dt})
		}
	}
}

// suffixDotDesc computes Σ x_d·y_d over the coordinates of y at storage
// positions ≥ boundary, accumulating in descending dimension order — the
// order in which the sequential engine's reverse scan met the posting
// entries, so the result is bit-identical to its partial dot.
func suffixDotDesc(x, y vec.Vector, boundary int) float64 {
	s := 0.0
	i, j := len(x.Dims)-1, len(y.Dims)-1
	for i >= 0 && j >= boundary {
		switch {
		case x.Dims[i] == y.Dims[j]:
			s += x.Vals[i] * y.Vals[j]
			i--
			j--
		case x.Dims[i] > y.Dims[j]:
			i--
		default:
			j--
		}
	}
	return s
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
	ix.index(x)
	return g.Err()
}

// index retains x — its slot, its full vector, its posting entries at
// owned dimensions. Every non-empty item is retained, so workers fed the
// same items keep identical slot tables; under cluster routing every
// item a worker receives has an owned dimension anyway.
func (ix *shardInv) index(x stream.Item) {
	if len(x.Vec.Dims) == 0 {
		return
	}
	sl := ix.slots.alloc(x.ID, x.Time, x.Side)
	if int(sl) >= len(ix.vecs) {
		ix.vecs = append(ix.vecs, make([]vec.Vector, int(sl)+1-len(ix.vecs))...)
	}
	ix.vecs[sl] = x.Vec
	ix.live.PushBack(sl)
	for i, d := range x.Vec.Dims {
		if ix.shard.owns(d) {
			ix.ar.pushTo(ix.lists, d, sl, x.Time, x.Vec.Vals[i], 0)
			ix.c.IndexedEntries++
		}
	}
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
