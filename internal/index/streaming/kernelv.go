package streaming

import (
	"math"

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
// Prefix-filtering engine (STR-L2 / STR-L2AP / STR-AP).

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
	// c is ‖x on non-owned dimensions above this coordinate‖, read by a
	// sharded engine's kill; there rs2 holds the shard-local geo of
	// bound 1 (see shard.go).
	c float64
}

// candGenVec is the block-kernel body of engine.candGen: Algorithm 7's
// reverse coordinate scan with block-granular chain walks. The outer
// loop — rs1/rs2 maintenance, chain lookup, emptied-chain release — is
// identical to candGenScalar (candGenShardScalar for a sharded engine);
// only the per-chain scan differs. pnx is x.Vec.PrefixNorms().
//
// A sharded engine scans only its owned coordinates, under the
// shard-local bounds 1 and 2 of shard.go: rs1 keeps only the owned terms
// decremented, the ℓ2 term is geo = √(‖x_{≤i}‖² + ‖x_{>i} on other
// shards‖²) against θ−boundSlack, which is the sequential monotone form,
// so the same admission window gives the same whole-block tiers.
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
	if e.useL2 && !e.sharded {
		for _, v := range vals {
			rst += v * v
		}
		rs2 = math.Sqrt(rst)
	}
	theta := e.p.Theta
	if e.sharded {
		theta -= boundSlack
	}
	crossSq := 0.0 // sharded: Σ x² over the non-owned positions past the current one

	ar := &e.ar
	q := coord{now: x.Time, side: x.Side, kill: e.useL2 && !e.abl.NoL2Bound}
	for i := len(dims) - 1; i >= 0; i-- {
		d, xj := dims[i], vals[i]
		if e.sharded && !e.shard.owns(d) {
			crossSq += xj * xj
			continue
		}
		if ch := e.lists[d]; ch != nil {
			q.xj, q.pnx, q.rs2 = xj, pnx[i], rs2
			if e.sharded && e.useL2 {
				q.rs2, q.c = admitGeo(pnx[i+1], crossSq), math.Sqrt(crossSq)
			}
			q.w = apss.AdmitAll
			if !e.abl.NoRemscore {
				q.w = admitWindow(e.kernel, rs1, q.rs2, theta, e.tau*windowGuard, ch.n)
			}
			// With AP, re-indexing may have broken time order, so scan
			// forward through the whole chain, compacting expired entries;
			// otherwise scan a time-ordered chain backwards from the newest
			// block and truncate at the first expired entry (§6.2).
			var removed int
			switch {
			case e.useAP && e.sharded:
				removed = ar.vcompact(ch, q.now, e.tau, func(b int32, base, lo, hi int, live uint16) {
					e.vBlockShard(&q, base, lo, hi, live, false, q.now-ar.tmax[b], math.Inf(1))
				})
			case e.useAP:
				removed = ar.vcompact(ch, q.now, e.tau, func(b int32, base, lo, hi int, live uint16) {
					e.vBlock(&q, base, lo, hi, live, false, q.now-ar.tmax[b], math.Inf(1))
				})
			case e.sharded:
				removed = ar.vdescend(ch, q.now, e.tau, func(base, lo, hi int) {
					e.vBlockShard(&q, base, lo, hi, 0, true, q.now-ar.t[base+hi-1], q.now-ar.t[base+lo])
				})
			default:
				removed = ar.vdescend(ch, q.now, e.tau, func(base, lo, hi int) {
					e.vBlock(&q, base, lo, hi, 0, true, q.now-ar.t[base+hi-1], q.now-ar.t[base+lo])
				})
			}
			e.c.ExpiredEntries += int64(removed)
			if ch.n == 0 {
				e.ar.dropChain(e.lists, d, ch)
			}
		} else if !e.sharded {
			// The sequential bounds keep a coordinate without a chain.
			continue
		}
		if e.useAP {
			rs1 -= xj * e.mhatAt(d)
		}
		if e.useL2 && !e.sharded {
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
// STR-INV: no pruning, so the only block work is the batched product
// scatter. A sharded index has chains for owned dimensions only, so the
// same scan serves it.

// scanVec is the vectorized body of the STR-INV scan: per touched
// dimension, the time-ordered backward walk of descendCut at block
// granularity, with the coordinate products batched per block.
func (ix *invIndex) scanVec(x stream.Item) {
	a, ar := &ix.acc, &ix.ar
	for i, d := range x.Vec.Dims {
		ch := ix.lists[d]
		if ch == nil {
			continue
		}
		xj := x.Vec.Vals[i]
		removed := ar.vdescend(ch, x.Time, ix.tau, func(base, lo, hi int) {
			ix.c.EntriesTraversed += int64(hi - lo)
			lanes := ix.prLanes[:hi-lo]
			apss.ScaleLanes(xj, ar.val[base+lo:base+hi], lanes)
			for j := hi - 1; j >= lo; j-- {
				sl := ar.slot[base+j]
				if ix.foreign && !apss.CrossSide(ix.slots.side[sl], x.Side) {
					continue
				}
				if a.Mark[sl] != a.Epoch {
					a.Admit(sl)
					ix.c.Candidates++
				}
				a.Dot[sl] += lanes[j-lo]
			}
		})
		if removed > 0 {
			ix.c.ExpiredEntries += int64(removed)
			if ch.n == 0 {
				ix.ar.dropChain(ix.lists, d, ch)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Sharded prefix-filtering engine (Options.Shard, shard.go).

// vBlockShard is vBlock for a sharded engine: lanes [lo, hi) under the
// shard-local admission bound min(rs1, decay·geo) (geo in q.rs2) and the
// kill of bound 2 of shard.go, both against θ−boundSlack. The scalar
// kernel Declines same-side and below-bound lanes alike, so a
// whole-block Decline reproduces its accumulator exactly; marked lanes
// always accumulate. The kill follows vBlock: a candidate's first kill
// test runs against the decay of the block's newest lane, which
// dominates its own, and only a survivor evaluates (and caches) its own
// factor.
func (e *engine) vBlockShard(q *coord, base, lo, hi int, live uint16, ordered bool, dtMin, dtMax float64) {
	a, ar := &e.acc, &e.ar
	cut := e.p.Theta - boundSlack
	e.c.EntriesTraversed += int64(hi - lo)
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
		if a.Dead[sl] == a.Epoch {
			continue
		}
		if a.Mark[sl] != a.Epoch {
			if rejectAll || e.foreign && !apss.CrossSide(e.slots.side[sl], q.side) {
				a.Decline(sl)
				continue
			}
			d := -1.0
			if !admitAll {
				dt := q.now - ar.t[ai]
				if dt >= q.w.Hi {
					a.Decline(sl)
					continue
				}
				if dt > q.w.Lo {
					if d = e.kernel.Factor(dt); d*q.rs2 < cut {
						a.Decline(sl)
						continue
					}
				}
			}
			a.Admit(sl)
			a.Decay[sl] = d
			e.c.Candidates++
		}
		dot := a.Dot[sl] + q.xj*ar.val[ai]
		a.Dot[sl] = dot
		if !q.kill {
			continue
		}
		b := killBound(dot, q.c, q.pnx, ar.pnorm[ai], ar.val[ai], e.ystat[sl].nrm2)
		d := a.Decay[sl]
		if d < 0 {
			if dub < 0 {
				dub = e.kernel.Factor(dtMin)
			}
			if b >= 0 && b*dub < cut {
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
		if b*d < cut {
			a.Dead[sl] = a.Epoch
		}
	}
}
