package streaming

import (
	"maps"
	"math"
	"slices"

	"sssj/internal/apss"
	"sssj/internal/metrics"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// This file is the in-process shard group behind Options.Workers > 1:
// N sharded engines (shard.go) built with Shard{i, N}, called one
// after another on the caller's goroutine. It is a cluster deployment
// without the wire, with two differences:
//
//   - Every item goes to every shard. In process there is no transfer to
//     save, and broadcast keeps every shard's slot table, residuals, m,
//     m̂λ and clock identical, so shard 0 speaks for the group wherever
//     whole-stream state is read (Size, Save, the live window).
//   - The shards' matches for one item are merged as the coordinator
//     merges its workers' (apss.DedupPartners): sorted by partner,
//     duplicates dropped, emitted in ascending partner order.
//
// The output is the sequential engine's match set with bit-identical
// similarities, for every kind. The group is slower than the sequential
// engine: every shard repeats the indexing walk and expiry of every item,
// and its shard-local bounds are looser than the sequential ones.

// member is what the group needs of a sharded engine.
type member interface {
	SinkIndex
	Advancer
	inserter
	ArenaSizer
}

// group drives N sharded engines of one kind as a single index.
type group struct {
	p       apss.Params
	engines []*engine   // L2, L2AP, AP
	invs    []*invIndex // INV
	shards  []member    // whichever of the two is set

	// c is the caller's counters. The shards count into work, and
	// forward moves their work counters over after every operation.
	c    *metrics.Counters
	work metrics.Counters

	out     []apss.Match // the shards' matches for the current item
	collect apss.Sink    // appends to out
}

func newGroup(kind Kind, p apss.Params, kernel apss.Kernel, n int, foreign, scalar bool, c *metrics.Counters) *group {
	g := &group{p: p, c: c}
	g.collect = apss.Collector(&g.out)
	for i := 0; i < n; i++ {
		sh := Shard{ID: i, N: n}
		if kind == INV {
			s := newInvIndex(p, kernel, foreign, scalar, sh, &g.work)
			g.invs = append(g.invs, s)
			g.shards = append(g.shards, s)
		} else {
			s := newEngine(p, kernel, kind != L2, kind != AP, Ablations{ScalarKernel: scalar}, foreign, sh, &g.work)
			g.engines = append(g.engines, s)
			g.shards = append(g.shards, s)
		}
	}
	return g
}

// Add implements Index (the collect adapter over AddTo).
func (g *group) Add(x stream.Item) ([]apss.Match, error) { return collectAdd(g, x) }

// AddTo implements SinkIndex: every shard processes x, then the merged
// matches go through one gate, so a sink error stops emission without
// leaving any shard behind.
func (g *group) AddTo(x stream.Item, emit apss.Sink) error {
	defer g.forward()
	g.out = g.out[:0]
	for _, s := range g.shards {
		// Only ErrTimeOrder, and then from shard 0 before any shard
		// changed: the shards share one clock.
		if err := s.AddTo(x, g.collect); err != nil {
			return err
		}
	}
	g.c.Items++
	gate := apss.NewGate(emit)
	for _, m := range apss.DedupPartners(g.out) {
		gate.Emit(m)
	}
	g.c.Pairs += gate.Emitted()
	return gate.Err()
}

// forward adds the shards' work counters to the caller's, leaving out
// the stream-level Items and Pairs that AddTo counts once: every shard
// sees every item.
func (g *group) forward() {
	w := g.work
	w.Items, w.Pairs = 0, 0
	g.c.Add(w)
	g.work = metrics.Counters{}
}

// Advance implements Advancer: the barrier goes to every shard.
func (g *group) Advance(t float64) error {
	defer g.forward()
	for _, s := range g.shards {
		if err := s.Advance(t); err != nil {
			return err
		}
	}
	return nil
}

// Size implements Index. The shards partition the posting lists and
// share everything else, so it equals the sequential engine's Size.
func (g *group) Size() SizeInfo {
	s := g.shards[0].Size()
	if len(g.invs) > 0 {
		s.Residuals = 0 // as invIndex: the retained vectors are not a residual index
	}
	for _, sh := range g.shards[1:] {
		z := sh.Size()
		s.Lists += z.Lists
		s.PostingEntries += z.PostingEntries
	}
	return s
}

// ArenaInfo implements ArenaSizer, summing the shards' arenas.
func (g *group) ArenaInfo() BlockInfo {
	var b BlockInfo
	for _, s := range g.shards {
		z := s.ArenaInfo()
		b.Blocks += z.Blocks
		b.FreeBlocks += z.FreeBlocks
	}
	return b
}

// Params implements Index.
func (g *group) Params() apss.Params { return g.p }

// postings lists every shard's posting lists.
func (g *group) postings() []postings {
	var ps []postings
	for _, e := range g.engines {
		ps = append(ps, postings{&e.ar, e.lists, &e.slots})
	}
	for _, ix := range g.invs {
		ps = append(ps, postings{&ix.ar, ix.lists, &ix.slots})
	}
	return ps
}

// adopt hands the exact state of a freshly loaded sequential index of
// the group's kind to every shard (see Load).
func (g *group) adopt(ix Index) error {
	switch v := ix.(type) {
	case *engine:
		for _, s := range g.engines {
			s.adopt(v)
		}
	case *invIndex:
		vecs, err := chainVectors(math.Inf(-1), postings{&v.ar, v.lists, &v.slots})
		if err != nil {
			return err
		}
		for _, s := range g.invs {
			s.adopt(v, vecs)
		}
	}
	return nil
}

// adopt copies the sequential engine e's state into the sharded engine
// s: the slot table, a private copy of every residual (re-indexing moves
// boundaries per shard), m, m̂λ, lastTouch and the clock. Every posting
// entry goes through the push hook, so the owner stores it and every
// shard rebuilds its per-slot statistics. Dimensions go in ascending
// order, which is the order the indexing walk pushed each item's
// coordinates in.
func (s *engine) adopt(e *engine) {
	s.slots = e.slots.clone()
	e.res.Ascend(func(id uint64, m *smeta) bool {
		c := *m
		s.putResidual(id, &c)
		return true
	})
	s.m = maps.Clone(e.m)
	s.mhatVal, s.mhatT, s.lastTouch = maps.Clone(e.mhatVal), maps.Clone(e.mhatT), maps.Clone(e.lastTouch)
	s.now, s.begun, s.clock = e.now, e.begun, e.clock
	for _, d := range slices.Sorted(maps.Keys(e.lists)) {
		e.ar.ascend(e.lists[d], func(ai int) {
			s.push(d, e.ar.slot[ai], e.ar.t[ai], e.ar.val[ai], e.ar.pnorm[ai])
		})
	}
}

// adopt copies the sequential index v's state into the sharded index ix:
// the slot table, the live queue, the clock, the entries of owned
// dimensions, and every slot's full vector (vecs, which chainVectors
// rebuilt from v's chains).
func (ix *invIndex) adopt(v *invIndex, vecs map[uint32]vec.Vector) {
	ix.slots = v.slots.clone()
	ix.now, ix.begun, ix.clock = v.now, v.begun, v.clock
	v.live.Ascend(func(_ int, sl uint32) bool {
		ix.live.PushBack(sl)
		return true
	})
	ix.vecs = make([]vec.Vector, ix.slots.span())
	for sl, x := range vecs {
		ix.vecs[sl] = x
	}
	for d, ch := range v.lists {
		if ix.shard.owns(d) {
			v.ar.ascend(ch, func(ai int) {
				ix.ar.pushTo(ix.lists, d, v.ar.slot[ai], v.ar.t[ai], v.ar.val[ai], 0)
			})
		}
	}
}
