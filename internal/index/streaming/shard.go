package streaming

import (
	"math"
	"slices"

	"sssj/internal/vec"
)

// This file holds the sharded mode of the streaming indexes
// (Options.Shard): engine and invIndex built with Shard{ID, N}, N > 1,
// play the role of a single worker of an N-way dimension-sharded group.
// A worker receives the stream (or the subset of it the cluster
// coordinator routes to it), stores posting entries only for the
// dimensions it owns (d mod N == ID), and reports every match its owned
// dimensions let it discover. With N = 1 a worker owns every dimension
// and is the sequential index, bit for bit and counter for counter.
//
// Exactness. A prefix-filtering worker accumulates only the owned part A
// of a candidate's dot product, so the sequential engine's bounds, which
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
// engine (ystat), reused across slots: the push hook pushOwned writes
// them as icCore indexes an item, and adds to them when L2AP re-indexing
// moves a boundary down.
//
// A survivor is verified exactly, recomputing the indexed partial dot in
// the sequential engine's summation order (suffixDotDesc, then the
// residual dot in ascending order), so the worker's reported similarity
// is bit-identical to the single-process one (engine.candVer). Every
// worker owning a dimension where the query touches an indexed entry of
// a true match emits that match, with identical floats; the coordinator
// deduplicates by (X, Y). Soundness of the prefix filter guarantees at
// least one such worker exists: a real match always touches the
// candidate's indexed suffix.
//
// A sharded STR-INV worker (invIndex) has no pruning to adapt: it posts
// only owned dimensions, keeps each live slot's full vector in vecs, and
// verifies every candidate with vec.Dot over all dimensions, whose
// ascending merge adds exactly the coordinate products the sequential
// scan adds, in the same order. Contact on any shared owned dimension
// suffices for discovery.
//
// Routing requirements (Route states them as code; internal/cluster
// obeys them, and they are what makes the worker's statistics sound):
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
// cluster coordinator overrides the stream-level counters (items,
// pairs, late) with its own and reports the work counters as per-worker
// sums.

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
// full vectors of the items routed to it. The zero value (N == 0) and
// a lone shard (N == 1) own every dimension: both build the sequential
// index. See internal/cluster for the coordinator that routes items and
// merges the workers' match streams.
type Shard struct {
	// ID is this worker's shard index, in [0, N).
	ID int
	// N is the total number of workers in the group; 0 disables shard
	// mode, 1 yields a single worker owning every dimension.
	N int
}

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

// pushOwned is a sharded engine's push hook: it stores only owned
// dimensions; entries of other workers' dimensions are dropped (their
// owner indexes them) after adding them to the slot's statistics. A slot
// is only recycled once its item is past the horizon, so the next item
// to hold it arrives strictly later:
// a record whose time differs from t belongs to that earlier item and
// is reset. Both the indexing walk and re-indexing push in ascending
// position order, and the latter only below the boundary, so the
// indexing walk's last push, the item's top coordinate, sets ‖y‖².
func (e *engine) pushOwned(d uint32, slot uint32, t, val, pnorm float64) {
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
