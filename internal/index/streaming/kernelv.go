package streaming

import (
	"math"

	"sssj/internal/accum"
	"sssj/internal/apss"
	"sssj/internal/stream"
)

// This file implements the block candidate-generation kernels: the
// default scan path of every streaming engine, built on the 16-entry
// struct-of-arrays arena blocks of arena.go. Where the frozen scalar
// kernels (kernel_scalar.go) walk posting chains one entry at a time
// through a closure and evaluate the decay factor of every entry they
// meet, these kernels evaluate it for almost none:
//
//   - Time-threshold tiers. The decayed admission bound of a query
//     coordinate, scale·Factor(dt) ≥ θ, is turned once per coordinate into
//     a window of time gaps (apss.AdmitWindow, from Kernel.Horizon): a
//     lane younger than the window is admitted and one older is rejected
//     by comparing times. On a time-ordered chain that makes whole blocks
//     admit, at most one block straddle the window, and every older block
//     reject, where only lanes that are already candidates do any work.
//     The window is exact, not approximate — see AdmitWindow — so a lane
//     takes the branch the scalar kernel's product would send it down.
//   - One decay per candidate. The factor depends on the item, not on the
//     posting entry: it is computed when a candidate's early ℓ2 kill first
//     needs it, cached by slot (accum.Dense.Decay), and reused by every
//     later lane of that slot and by candidate verification. Before that
//     first evaluation the kill is tried against the decay of the block's
//     newest lane, which dominates it; a candidate killed there never has
//     a decay of its own.
//
// The contract, enforced by kernel_parity_test.go and FuzzKernelParity:
// bit-for-bit identity with the scalar kernel. Same match sets, same
// metrics.Counters. Three facts make that achievable rather than
// approximate:
//
//   1. Every float compared against θ is the same expression, operand
//      order, and rounding as the scalar kernel's; a slot's decay is one
//      value whichever of its entries asks, because every entry carries
//      the item's arrival time.
//   2. Factor is non-increasing and IEEE-754 multiplication and addition
//      of non-negative operands are monotone, so a bound evaluated at one
//      time gap decides every lane beyond it the same way after rounding:
//      a tier shortcut fires only when the scalar outcome is determined.
//   3. Within one chain a live slot appears in at most one lane (one
//      entry per item per dimension), so per-slot accumulation order
//      inside a chain cannot differ; lane order is chosen to match the
//      scalar visit order anyway (descending on time-ordered chains,
//      ascending on compacted ones) so candidate lists match too.

// windowGuard sizes the undecided band of the admission windows as a
// share of the horizon τ. The band must cover the rounding of
// Kernel.Horizon and Kernel.Factor near the threshold — a few ulps of
// the factor, about 1e-16·τ/ln(1/θ) in time for the exponential kernel —
// and is otherwise free: a lane falls inside it with probability ≈ 2e-9.
// A band that is too narrow is detected by AdmitWindow, not trusted.
const windowGuard = 1.0 / (1 << 30)

// windowMinEntries is the chain length from which an admission window
// pays: building one costs a Horizon and two Factor evaluations, so a
// chain of at most three entries is decided entry by entry.
const windowMinEntries = 4

// admitWindow returns the time form of the admission test
// min(rs1, scale·decay) ≥ theta for a chain of n entries. rs1 carries no
// decay, so it either rejects the whole chain or leaves the test to the
// decayed term.
func admitWindow(k apss.Kernel, rs1, scale, theta, guard float64, n int32) apss.Window {
	switch {
	case rs1 < theta || scale < theta:
		return apss.RejectAll
	case math.IsInf(scale, 1):
		return apss.AdmitAll
	case n < windowMinEntries:
		return apss.Window{Lo: math.Inf(-1), Hi: math.Inf(1)} // all undecided
	}
	return apss.AdmitWindow(k, scale, theta, guard)
}

// ---------------------------------------------------------------------------
// Sequential prefix-filtering engine (STR-L2 / STR-L2AP / STR-AP).

// coord is the state of one query coordinate's chain scan.
type coord struct {
	now  float64
	side apss.Side
	xj   float64     // the query's value at this coordinate
	pnx  float64     // ‖x′_j‖, the norm of the query prefix before it
	rs2  float64     // ℓ2 remscore; the admission bound is min(rs1, rs2·decay)
	w    apss.Window // that bound in time form
	// kill enables the early ℓ2 prune (Algorithm 7, lines 10–12).
	kill bool
}

// candGenVec is the block-kernel body of engine.candGen: Algorithm 7's
// reverse coordinate scan with block-granular chain walks. The outer
// loop — rs1/rs2 maintenance, chain lookup, emptied-chain release — is
// identical to candGenScalar; only the per-chain scan differs. pnx is
// x.Vec.PrefixNorms().
func (e *engine) candGenVec(x stream.Item, pnx []float64) {
	a := &e.acc
	a.BeginDecay(e.slots.span())
	dims, vals := x.Vec.Dims, x.Vec.Vals
	if len(dims) == 0 {
		return
	}
	rs1 := math.Inf(1)
	if e.useAP {
		rs1 = 0
		for i, d := range dims {
			rs1 += vals[i] * e.mhatAt(d)
		}
	}
	rst := 0.0
	rs2 := math.Inf(1)
	if e.useL2 {
		for _, v := range vals {
			rst += v * v
		}
		rs2 = math.Sqrt(rst)
	}

	ar := &e.ar
	q := coord{now: x.Time, side: x.Side, kill: e.useL2 && !e.abl.NoL2Bound}
	for i := len(dims) - 1; i >= 0; i-- {
		d, xj := dims[i], vals[i]
		ch := e.lists[d]
		if ch == nil {
			continue
		}
		q.xj, q.pnx, q.rs2 = xj, pnx[i], rs2
		q.w = apss.AdmitAll
		if !e.abl.NoRemscore {
			q.w = admitWindow(e.kernel, rs1, rs2, e.p.Theta, e.tau*windowGuard, ch.n)
		}
		var removed int
		if e.useAP {
			// Re-indexing may have broken time order, so scan forward
			// through the whole chain, compacting expired entries (§6.2).
			removed = ar.vcompact(ch, q.now, e.tau, func(b int32, base, lo, hi int, live uint16) {
				e.vBlock(&q, base, lo, hi, live, false, q.now-ar.tmax[b], math.Inf(1))
			})
		} else {
			// Time-ordered chain: scan backwards from the newest block and
			// truncate at the first expired entry (§6.2).
			removed = ar.vdescend(ch, q.now, e.tau, func(base, lo, hi int) {
				e.vBlock(&q, base, lo, hi, 0, true, q.now-ar.t[base+hi-1], q.now-ar.t[base+lo])
			})
		}
		e.c.ExpiredEntries += int64(removed)
		if ch.n == 0 {
			delete(e.lists, d)
		}
		if e.useAP {
			rs1 -= xj * e.mhatAt(d)
		}
		if e.useL2 {
			rst -= xj * xj
			if rst < 0 {
				rst = 0
			}
			rs2 = math.Sqrt(rst)
		}
	}
}

// vBlock processes lanes [lo, hi) of one block. The scalar per-lane
// outcome it must reproduce (candGenScalar's process closure):
//
//	skip lane if  !NoRemscore && min(rs1, rs2·decay) < θ   (admission)
//	kill lane if  !NoL2Bound && dot + pnx·pn·decay < θ     (early ℓ2)
//
// ordered selects the chain discipline and with it the scalar visit
// order: descending over a time-ordered block, whose [lo, hi) is already
// trimmed to its live lanes; ascending over the lanes of the live mask on
// a compacted one. dtMin and dtMax bracket the live lanes' time gaps: the
// newest and oldest lane of a time-ordered block; now−tmax and +Inf on a
// disordered chain, which therefore has a reject tier but an admit tier
// only when the bound is decay-free.
func (e *engine) vBlock(q *coord, base, lo, hi int, live uint16, ordered bool, dtMin, dtMax float64) {
	a, ar := &e.acc, &e.ar
	theta := e.p.Theta
	e.c.EntriesTraversed += int64(hi - lo)
	// Reject tier: no lane can pass admission, so only lanes that are
	// candidates already do any work. Admit tier: none can fail it.
	rejectAll, admitAll := dtMin >= q.w.Hi, dtMax <= q.w.Lo
	dub := -1.0 // Factor(dtMin), which dominates every live lane's decay

	j, stop, step := lo, hi, 1
	if ordered {
		j, stop, step = hi-1, lo-1, -1
	}
	for ; j != stop; j += step {
		if !ordered && live&(1<<uint(j)) == 0 {
			continue
		}
		ai := base + j
		sl := ar.slot[ai]
		if a.Mark[sl] != a.Epoch {
			// Foreign-join side gating comes first, as in the scalar
			// kernel: a same-side item is tombstoned, never a candidate.
			// (Only tombstones are dead without being marked.)
			if e.foreign {
				if !apss.CrossSide(e.slots.side[sl], q.side) {
					a.Dead[sl] = a.Epoch
					continue
				}
			}
			if rejectAll {
				continue
			}
			d := -1.0
			if !admitAll {
				dt := q.now - ar.t[ai]
				if dt >= q.w.Hi {
					continue
				}
				if dt > q.w.Lo {
					if d = e.kernel.Factor(dt); q.rs2*d < theta {
						continue
					}
				}
			}
			a.Admit(sl)
			a.Decay[sl] = d
			e.c.Candidates++
		} else if a.Dead[sl] == a.Epoch {
			continue
		}
		dot := a.Dot[sl] + q.xj*ar.val[ai]
		a.Dot[sl] = dot
		if !q.kill {
			continue
		}
		tail := q.pnx * ar.pnorm[ai]
		d := a.Decay[sl]
		if d < 0 {
			// First use of this candidate's decay. With tail ≥ 0 (it is,
			// short of a corrupted index) the kill under the dominating
			// dub implies the kill under d.
			if dub < 0 {
				dub = e.kernel.Factor(dtMin)
			}
			if tail >= 0 && dot+tail*dub < theta {
				a.Dead[sl] = a.Epoch
				continue
			}
			if dt := q.now - ar.t[ai]; dt == dtMin {
				d = dub
			} else {
				d = e.kernel.Factor(dt)
			}
			a.Decay[sl] = d
		}
		if dot+tail*d < theta {
			a.Dead[sl] = a.Epoch
		}
	}
}

// ---------------------------------------------------------------------------
// STR-INV family: no pruning, so the only block work is the batched
// product scatter. One helper serves the sequential index and the
// cluster worker.

// vScanInv is the vectorized STR-INV chain scan: the time-ordered
// backward walk of descendCut at block granularity, with the coordinate
// products batched per block. Returns the number of entries the expiry
// cut removed.
func vScanInv(ar *parena, ch *chain, a *accum.Dense, slots *slotTab, pr *[blockCap]float64,
	x stream.Item, xj, tau float64, foreign bool, traversed, candidates *int64) int {
	return ar.vdescend(ch, x.Time, tau, func(base, lo, hi int) {
		*traversed += int64(hi - lo)
		lanes := pr[:hi-lo]
		apss.ScaleLanes(xj, ar.val[base+lo:base+hi], lanes)
		for j := hi - 1; j >= lo; j-- {
			sl := ar.slot[base+j]
			if foreign && !apss.CrossSide(slots.side[sl], x.Side) {
				continue
			}
			if a.Mark[sl] != a.Epoch {
				a.Admit(sl)
				*candidates++
			}
			a.Dot[sl] += lanes[j-lo]
		}
	})
}

// scanVec is the vectorized body of the sequential STR-INV scan.
func (ix *invIndex) scanVec(x stream.Item) {
	for i, d := range x.Vec.Dims {
		ch := ix.lists[d]
		if ch == nil {
			continue
		}
		removed := vScanInv(&ix.ar, ch, &ix.acc, &ix.slots, &ix.prLanes,
			x, x.Vec.Vals[i], ix.tau, ix.foreign, &ix.c.EntriesTraversed, &ix.c.Candidates)
		if removed > 0 {
			ix.c.ExpiredEntries += int64(removed)
			if ch.n == 0 {
				delete(ix.lists, d)
			}
		}
	}
}

// scanVec is the vectorized body of the cluster-worker STR-INV scan
// over owned dimensions.
func (ix *shardInv) scanVec(x stream.Item) {
	for i, d := range x.Vec.Dims {
		if !ix.shard.owns(d) {
			continue
		}
		ch := ix.lists[d]
		if ch == nil {
			continue
		}
		removed := vScanInv(&ix.ar, ch, &ix.acc, &ix.slots, &ix.prLanes,
			x, x.Vec.Vals[i], ix.tau, ix.foreign, &ix.c.EntriesTraversed, &ix.c.Candidates)
		if removed > 0 {
			ix.c.ExpiredEntries += int64(removed)
			if ch.n == 0 {
				delete(ix.lists, d)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Cluster-worker prefix-filtering scan (shardEngine). The shard-local
// admission bound is min(rs1, decay·geo) with geo = √(‖x_{≤i}‖² +
// ‖x_{>i} on other shards‖²) hoisted per dimension (see shard.go). That
// is the sequential engine's monotone form with geo for rs2 and
// θ−boundSlack for θ, so the same admission window gives the same
// whole-block decline and admit tiers. The early kill caches each
// candidate's decay exactly as engine.vBlock does.

// vShardScan carries the per-item plumbing of one worker's scan.
type vShardScan struct {
	ar         *parena
	a          *accum.Dense
	slots      *slotTab
	kernel     apss.Kernel
	useAP      bool
	cut, tau   float64 // cut is θ−boundSlack
	foreign    bool
	now        float64 // the query's time and side
	side       apss.Side
	traversed  *int64
	candidates *int64

	// kill enables the early ℓ2 kill (bound 2 in shard.go), which needs
	// the decay cache (accum.Dense.BeginDecay) and ystat. c and pnx are
	// the current coordinate's ‖x on other shards above it‖ and ‖x
	// before it‖.
	kill   bool
	ystat  []shardSlot
	c, pnx float64
}

// scan walks dimension chain ch for query coordinate value xj under the
// shard-local bound min(rs1, decay·geo); geo is +Inf without the ℓ2
// bound. Returns removed entries.
func (v *vShardScan) scan(ch *chain, xj, rs1, geo float64) int {
	ar := v.ar
	w := admitWindow(v.kernel, rs1, geo, v.cut, v.tau*windowGuard, ch.n)
	if v.useAP {
		// Possibly disordered chain: the block-granular compaction walk,
		// bracketed by tmax only (see engine.vBlock).
		return ar.vcompact(ch, v.now, v.tau, func(b int32, base, lo, hi int, live uint16) {
			v.block(base, lo, hi, live, false, v.now-ar.tmax[b], math.Inf(1), w, xj, geo)
		})
	}
	return ar.vdescend(ch, v.now, v.tau, func(base, lo, hi int) {
		v.block(base, lo, hi, 0, true, v.now-ar.t[base+hi-1], v.now-ar.t[base+lo], w, xj, geo)
	})
}

// block processes lanes [lo, hi) in the scalar kernel's order for the
// chain discipline; the parameters are engine.vBlock's. The scalar
// kernel Declines same-side and below-bound lanes alike, so a
// whole-block Decline reproduces its accumulator exactly; marked lanes
// always accumulate. The kill follows engine.vBlock: a candidate's
// first kill test runs against the decay of the block's newest lane,
// which dominates its own, and only a survivor evaluates (and caches)
// its own factor.
func (v *vShardScan) block(base, lo, hi int, live uint16, ordered bool, dtMin, dtMax float64, w apss.Window, xj, geo float64) {
	a, ar := v.a, v.ar
	*v.traversed += int64(hi - lo)
	rejectAll, admitAll := dtMin >= w.Hi, dtMax <= w.Lo
	dub := -1.0 // Factor(dtMin), which dominates every live lane's decay

	j, stop, step := lo, hi, 1
	if ordered {
		j, stop, step = hi-1, lo-1, -1
	}
	for ; j != stop; j += step {
		if !ordered && live&(1<<uint(j)) == 0 {
			continue
		}
		ai := base + j
		sl := ar.slot[ai]
		if a.Dead[sl] == a.Epoch {
			continue
		}
		if a.Mark[sl] != a.Epoch {
			if rejectAll || v.foreign && !apss.CrossSide(v.slots.side[sl], v.side) {
				a.Decline(sl)
				continue
			}
			d := -1.0
			if !admitAll {
				dt := v.now - ar.t[ai]
				if dt >= w.Hi {
					a.Decline(sl)
					continue
				}
				if dt > w.Lo {
					if d = v.kernel.Factor(dt); d*geo < v.cut {
						a.Decline(sl)
						continue
					}
				}
			}
			a.Admit(sl)
			if v.kill {
				a.Decay[sl] = d
			}
			*v.candidates++
		}
		dot := a.Dot[sl] + xj*ar.val[ai]
		a.Dot[sl] = dot
		if !v.kill {
			continue
		}
		b := killBound(dot, v.c, v.pnx, ar.pnorm[ai], ar.val[ai], v.ystat[sl].nrm2)
		d := a.Decay[sl]
		if d < 0 {
			if dub < 0 {
				dub = v.kernel.Factor(dtMin)
			}
			if b >= 0 && b*dub < v.cut {
				a.Dead[sl] = a.Epoch
				continue
			}
			if dt := v.now - ar.t[ai]; dt == dtMin {
				d = dub
			} else {
				d = v.kernel.Factor(dt)
			}
			a.Decay[sl] = d
		}
		if b*d < v.cut {
			a.Dead[sl] = a.Epoch
		}
	}
}

// candGenVec is the block-kernel body of shardEngine.candGen: the
// cluster worker's share of Algorithm 7 over owned dimensions, under
// bounds 1 and 2 of shard.go. pnx is x.Vec.PrefixNorms().
func (e *shardEngine) candGenVec(x stream.Item, pnx []float64) {
	a := &e.acc
	a.BeginDecay(e.slots.span())
	dims, vals := x.Vec.Dims, x.Vec.Vals
	if len(dims) == 0 {
		return
	}
	rs1 := math.Inf(1) // minus the owned terms past the current position
	if e.useAP {
		rs1 = 0
		for i, d := range dims {
			rs1 += vals[i] * e.mhatAt(d)
		}
	}
	crossSq := 0.0 // Σ x² over the non-owned positions past the current one

	v := vShardScan{
		ar: &e.ar, a: a, slots: &e.slots,
		kernel: e.kernel, useAP: e.useAP,
		cut: e.p.Theta - boundSlack, tau: e.tau, foreign: e.foreign,
		now: x.Time, side: x.Side,
		traversed: &e.c.EntriesTraversed, candidates: &e.c.Candidates,
		kill: e.useL2, ystat: e.ystat,
	}
	for i := len(dims) - 1; i >= 0; i-- {
		d, xj := dims[i], vals[i]
		if !e.shard.owns(d) {
			crossSq += xj * xj
			continue
		}
		if ch := e.lists[d]; ch != nil {
			geo := math.Inf(1)
			if e.useL2 {
				geo = admitGeo(pnx[i+1], crossSq)
				v.c, v.pnx = math.Sqrt(crossSq), pnx[i]
			}
			e.c.ExpiredEntries += int64(v.scan(ch, xj, rs1, geo))
			if ch.n == 0 {
				delete(e.lists, d)
			}
		}
		if e.useAP {
			rs1 -= xj * e.mhatAt(d)
		}
	}
}
