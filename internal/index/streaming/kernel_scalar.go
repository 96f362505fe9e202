package streaming

import (
	"math"

	"sssj/internal/apss"
	"sssj/internal/stream"
)

// This file is the FROZEN scalar candidate-generation kernel: the
// entry-at-a-time chain scans every streaming engine used before the
// vectorized block kernels (kernelv.go) replaced them on the default
// path. It is kept verbatim as the parity oracle — selected by the
// Ablations.ScalarKernel flag, exercised by kernel_parity_test.go and
// FuzzKernelParity — exactly like ring_test.go preserves the pre-arena
// posting storage. Do not optimize or restructure this file; its value
// is that it does not change. The vectorized kernels must reproduce its
// accumulator state, its match sets, and its metrics.Counters bit for
// bit on every stream.

// candGenScalar is the frozen scalar body of engine.candGen: the
// Algorithm 7 reverse coordinate scan with one closure call per posting
// entry.
func (e *engine) candGenScalar(x stream.Item) {
	a := &e.acc
	a.Begin(e.slots.span())
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

	pnx := x.Vec.PrefixNorms()

	for i := len(dims) - 1; i >= 0; i-- {
		d, xj := dims[i], vals[i]
		ch := e.lists[d]
		if ch == nil {
			continue
		}
		process := func(ai int) {
			e.c.EntriesTraversed++
			sl := e.ar.slot[ai]
			if a.Dead[sl] == a.Epoch {
				return
			}
			dt := x.Time - e.ar.t[ai]
			decay := e.kernel.Factor(dt)
			if a.Mark[sl] != a.Epoch {
				// Foreign-join side gating: a same-side item is not a
				// candidate at all, so it is pruned before any bound is
				// evaluated or any dot accumulated.
				if e.foreign && !apss.CrossSide(e.slots.side[sl], x.Side) {
					a.Dead[sl] = a.Epoch
					return
				}
				// remscore admission (Algorithm 7, lines 7–8).
				rs2d := rs2
				if e.useL2 {
					rs2d = rs2 * decay
				}
				if !e.abl.NoRemscore && math.Min(rs1, rs2d) < e.p.Theta {
					return
				}
				a.Admit(sl)
				e.c.Candidates++
			}
			a.Dot[sl] += xj * e.ar.val[ai]
			// Early ℓ2 pruning (Algorithm 7, lines 10–12).
			if e.useL2 && !e.abl.NoL2Bound && a.Dot[sl]+pnx[i]*e.ar.pnorm[ai]*decay < e.p.Theta {
				a.Dead[sl] = a.Epoch
			}
		}
		if e.useAP {
			// Re-indexing may have broken time order, so scan forward
			// through the whole chain, compacting expired entries (§6.2).
			removed := e.ar.compact(ch, func(ai int) bool {
				if x.Time-e.ar.t[ai] > e.tau {
					e.c.EntriesTraversed++
					return false
				}
				process(ai)
				return true
			})
			e.c.ExpiredEntries += int64(removed)
		} else {
			// Time-ordered chain: scan backwards from the newest entry and
			// truncate at the first expired one (§6.2).
			removed := e.ar.descendCut(ch, x.Time, e.tau, process)
			e.c.ExpiredEntries += int64(removed)
		}
		if ch.n == 0 {
			e.ar.dropChain(e.lists, d, ch)
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

// scanScalar is the frozen scalar body of the STR-INV candidate scan.
func (ix *invIndex) scanScalar(x stream.Item) {
	a := &ix.acc
	for i, d := range x.Vec.Dims {
		xj := x.Vec.Vals[i]
		ch := ix.lists[d]
		if ch == nil {
			continue
		}
		// Backward scan: newest first, stop at the first expired entry,
		// then drop it and everything older (§6.2 time filtering).
		removed := ix.ar.descendCut(ch, x.Time, ix.tau, func(ai int) {
			ix.c.EntriesTraversed++
			sl := ix.ar.slot[ai]
			// Foreign-join side gating: same-side entries are not
			// candidates and accumulate nothing.
			if ix.foreign && !apss.CrossSide(ix.slots.side[sl], x.Side) {
				return
			}
			if a.Mark[sl] != a.Epoch {
				a.Admit(sl)
				ix.c.Candidates++
			}
			a.Dot[sl] += xj * ix.ar.val[ai]
		})
		if removed > 0 {
			ix.c.ExpiredEntries += int64(removed)
			if ch.n == 0 {
				ix.ar.dropChain(ix.lists, d, ch)
			}
		}
	}
}

// candGenShardScalar is the frozen scalar body of a sharded
// engine.candGen: the worker's share of Algorithm 7 under the shard-local
// admission bound and early kill (bounds 1 and 2 of shard.go).
func (e *engine) candGenShardScalar(x stream.Item) {
	a := &e.acc
	a.Begin(e.slots.span())
	dims, vals := x.Vec.Dims, x.Vec.Vals
	if len(dims) == 0 {
		return
	}
	pnx := x.Vec.PrefixNorms()
	rs1 := math.Inf(1) // minus the owned terms past the current position
	if e.useAP {
		rs1 = 0
		for i, d := range dims {
			rs1 += vals[i] * e.mhatAt(d)
		}
	}
	crossSq := 0.0 // Σ x² over the non-owned positions past the current one

	for i := len(dims) - 1; i >= 0; i-- {
		d, xj := dims[i], vals[i]
		if !e.shard.owns(d) {
			crossSq += xj * xj
			continue
		}
		if ch := e.lists[d]; ch != nil {
			process := func(ai int) {
				e.c.EntriesTraversed++
				sl := e.ar.slot[ai]
				if a.Dead[sl] == a.Epoch {
					return
				}
				decay := e.kernel.Factor(x.Time - e.ar.t[ai])
				if a.Mark[sl] != a.Epoch {
					// Foreign-join side gating first: a same-side item is
					// not a candidate on any worker.
					if e.foreign && !apss.CrossSide(e.slots.side[sl], x.Side) {
						a.Decline(sl)
						return
					}
					// Shard-local admission: both bounds dominate the
					// candidate's total similarity (see shard.go).
					bound := math.Inf(1)
					if e.useAP {
						bound = rs1
					}
					if e.useL2 {
						if b := decay * admitGeo(pnx[i+1], crossSq); b < bound {
							bound = b
						}
					}
					if bound < e.p.Theta-boundSlack {
						a.Decline(sl)
						return
					}
					a.Admit(sl)
					e.c.Candidates++
				}
				a.Dot[sl] += xj * e.ar.val[ai]
				// Shard-local early ℓ2 kill (see shard.go).
				if e.useL2 {
					b := killBound(a.Dot[sl], math.Sqrt(crossSq), pnx[i], e.ar.pnorm[ai], e.ar.val[ai], e.ystat[sl].nrm2)
					if b*decay < e.p.Theta-boundSlack {
						a.Dead[sl] = a.Epoch
					}
				}
			}
			if e.useAP {
				// Re-indexing may have broken time order, so scan forward
				// through the whole chain, compacting expired entries.
				removed := e.ar.compact(ch, func(ai int) bool {
					if x.Time-e.ar.t[ai] > e.tau {
						e.c.EntriesTraversed++
						return false
					}
					process(ai)
					return true
				})
				e.c.ExpiredEntries += int64(removed)
			} else {
				removed := e.ar.descendCut(ch, x.Time, e.tau, process)
				e.c.ExpiredEntries += int64(removed)
			}
			if ch.n == 0 {
				e.ar.dropChain(e.lists, d, ch)
			}
		}
		if e.useAP {
			rs1 -= xj * e.mhatAt(d)
		}
	}
}
