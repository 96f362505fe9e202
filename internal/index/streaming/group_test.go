package streaming

import (
	"sssj/internal/apss"
	"sssj/internal/metrics"
	"sssj/internal/stream"
)

// group is the in-process shard group the parity tests drive: N sharded
// engines (shard.go) built with Shard{i, N}, called one after another on
// the caller's goroutine. It is a cluster deployment without the wire,
// with two differences:
//
//   - Every item goes to every shard, so every shard's slot table,
//     residuals, m, m̂λ and clock stay identical and shard 0 speaks for
//     the group wherever whole-stream state is read (Size).
//   - The shards' matches for one item are merged as the coordinator
//     merges its workers' (apss.DedupPartners): sorted by partner,
//     duplicates dropped, emitted in ascending partner order.
//
// Its output must be the sequential engine's match set with
// bit-identical similarities, for every kind.
type group struct {
	p      apss.Params
	inv    bool
	shards []member

	// c is the caller's counters. The shards count into work, and
	// forward moves their work counters over after every operation.
	c    *metrics.Counters
	work metrics.Counters

	out     []apss.Match // the shards' matches for the current item
	collect apss.Sink    // appends to out
}

// member is what the group needs of a sharded engine.
type member interface {
	SinkIndex
	Advancer
	ArenaSizer
}

// newTestIndex builds New(kind, p, opts) for workers ≤ 1 and otherwise
// a group of that many shards, carrying over the options a shard takes:
// Counters, Kernel, Foreign and the ScalarKernel selector.
func newTestIndex(kind Kind, p apss.Params, opts Options, workers int) (Index, error) {
	if workers <= 1 {
		return New(kind, p, opts)
	}
	kernel := opts.Kernel
	if kernel == nil {
		kernel = apss.Exponential{Lambda: p.Lambda}
	}
	c := opts.Counters
	if c == nil {
		c = &metrics.Counters{}
	}
	g := &group{p: p, inv: kind == INV, c: c}
	g.collect = apss.Collector(&g.out)
	abl := Ablations{ScalarKernel: opts.Ablations.ScalarKernel}
	for i := 0; i < workers; i++ {
		ix, err := newCoreIndex(kind, p, kernel, Shard{ID: i, N: workers}, opts.Foreign, abl, &g.work)
		if err != nil {
			return nil, err
		}
		g.shards = append(g.shards, ix.(member))
	}
	return g, nil
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
	if g.inv {
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
