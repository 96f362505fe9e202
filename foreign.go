package sssj

import (
	"context"
	"io"
	"iter"

	"sssj/internal/stream"
)

// This file is the public surface of the two-stream foreign join A ⋈ B:
// probes from stream A match only items indexed from stream B, and vice
// versa — the ad/query-matching and near-duplicate-across-feeds shape of
// the paper's motivating applications. The operator is the ordinary
// streaming join with Options.Join = JoinForeign: both sides share one
// index, one clock, and one horizon; the engines simply gate candidate
// admission and emission to cross-side pairs.
//
// Correctness oracle: on the same interleaved stream, the foreign join
// equals the self-join filtered to cross-side pairs, with bit-identical
// similarities (the engines keep every statistic side-blind so that the
// equality is exact, not approximate). The test battery checks this
// metamorphic property across the whole framework × index grid and in
// a fuzz target.

// ForeignJoiner is the item-at-a-time operator of the two-stream
// foreign join. ProcessA feeds the next item of stream A, ProcessB of
// stream B; matches always pair an A item with a B item. The two
// streams share one clock: timestamps must be non-decreasing across
// *all* Process calls in either order (the interleaving defines the
// arrival order, exactly as in the Joiner contract), and IDs must be
// unique across both streams. With Options.Lateness δ > 0 each side
// instead keeps its own event-time clock and items are admitted against
// the merged watermark (the older side's clock minus δ), so the two
// streams may drift apart and interleave out of order within δ without
// loss; see Options.Lateness and Watermark.
//
// A ForeignJoiner is a thin side-tagging wrapper over a Joiner built
// with Options.Join = JoinForeign; everything else — sink semantics,
// ErrTimeRegression, MiniBatch delays, checkpointing — follows
// the Joiner contract.
type ForeignJoiner struct {
	j *Joiner
}

// NewForeign builds a ForeignJoiner. opts.Join is forced to JoinForeign;
// every other option keeps its Options meaning and support matrix.
func NewForeign(opts Options) (*ForeignJoiner, error) {
	opts.Join = JoinForeign
	j, err := New(opts)
	if err != nil {
		return nil, err
	}
	return &ForeignJoiner{j: j}, nil
}

// ResumeForeign restores a ForeignJoiner from a Joiner checkpoint (see
// Resume): the v4 checkpoint format carries each item's side, and older
// (pre-side) checkpoints restore with their whole history on SideA.
func ResumeForeign(r io.Reader, opts Options) (*ForeignJoiner, error) {
	opts.Join = JoinForeign
	j, err := Resume(r, opts)
	if err != nil {
		return nil, err
	}
	return &ForeignJoiner{j: j}, nil
}

// ProcessA feeds the next item of stream A and returns its reportable
// matches (each pairing it with an earlier B item). It is the collect
// adapter over ProcessATo.
func (f *ForeignJoiner) ProcessA(it Item) ([]Match, error) {
	it.Side = SideA
	return f.j.Process(it)
}

// ProcessB feeds the next item of stream B. It is the collect adapter
// over ProcessBTo.
func (f *ForeignJoiner) ProcessB(it Item) ([]Match, error) {
	it.Side = SideB
	return f.j.Process(it)
}

// ProcessATo feeds the next item of stream A, pushing each match into
// sink the moment it is verified (the Joiner.ProcessTo contract).
func (f *ForeignJoiner) ProcessATo(it Item, sink MatchSink) error {
	it.Side = SideA
	return f.j.ProcessTo(it, sink)
}

// ProcessBTo feeds the next item of stream B into sink.
func (f *ForeignJoiner) ProcessBTo(it Item, sink MatchSink) error {
	it.Side = SideB
	return f.j.ProcessTo(it, sink)
}

// Process feeds an item that already carries its Side tag — the entry
// point for pre-merged two-stream sources (see MergeSides).
func (f *ForeignJoiner) Process(it Item) ([]Match, error) { return f.j.Process(it) }

// ProcessTo is the sink form of Process for side-tagged items.
func (f *ForeignJoiner) ProcessTo(it Item, sink MatchSink) error { return f.j.ProcessTo(it, sink) }

// AdvanceTo applies an event-time heartbeat to both sides: a promise
// that every future item of either stream has timestamp ≥ t (see
// Joiner.AdvanceTo). With Options.Lateness δ > 0 this is how a caller
// unblocks the merged watermark when one stream goes quiet — the
// watermark is the older of the two sides' clocks minus δ, so a silent
// side otherwise holds back every buffered item of the active one.
func (f *ForeignJoiner) AdvanceTo(t float64, sink MatchSink) error { return f.j.AdvanceTo(t, sink) }

// Watermark returns the merged event-time watermark (see
// Joiner.Watermark): min of the two sides' latest timestamps minus
// Options.Lateness, or -Inf until both sides have produced an item.
func (f *ForeignJoiner) Watermark() float64 { return f.j.Watermark() }

// Flush releases matches still buffered at end of stream (the reorder
// stage's buffered items, MB windows, DimOrder warmups). It is the
// collect adapter over FlushTo.
func (f *ForeignJoiner) Flush() ([]Match, error) { return f.j.Flush() }

// FlushTo emits still-buffered matches into sink.
func (f *ForeignJoiner) FlushTo(sink MatchSink) error { return f.j.FlushTo(sink) }

// Params returns the join parameters.
func (f *ForeignJoiner) Params() Params { return f.j.Params() }

// Options returns the effective configuration (Join is JoinForeign).
func (f *ForeignJoiner) Options() Options { return f.j.Options() }

// Horizon returns the time horizon τ = ln(1/θ)/λ.
func (f *ForeignJoiner) Horizon() float64 { return f.j.Horizon() }

// IndexSize reports current index occupancy (see Joiner.IndexSize);
// both sides live in the one shared index.
func (f *ForeignJoiner) IndexSize() (IndexSize, bool) { return f.j.IndexSize() }

// Checkpoint serializes the joiner's index state, side bits included
// (checkpoint format v4); restore with ResumeForeign.
func (f *ForeignJoiner) Checkpoint(w io.Writer) error { return f.j.Checkpoint(w) }

// MergeSides interleaves two time-ordered item slices into one
// foreign-join input: a's items are tagged SideA, b's SideB, and the
// merge is by non-decreasing time with ties keeping A before B. IDs and
// timestamps are preserved, so the caller must have assigned IDs unique
// across both slices. The inputs are not modified.
func MergeSides(a, b []Item) []Item {
	out := make([]Item, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if j >= len(b) || (i < len(a) && a[i].Time <= b[j].Time) {
			it := a[i]
			it.Side = SideA
			out = append(out, it)
			i++
		} else {
			it := b[j]
			it.Side = SideB
			out = append(out, it)
			j++
		}
	}
	return out
}

// MergeSideSources is MergeSides over streaming sources, for inputs too
// large to buffer: the interleave is by timestamp and IDs are
// reassigned densely in merged arrival order (the package's stream ID
// convention), so match IDs index the merged stream.
func MergeSideSources(a, b Source) Source { return stream.MergeSides(a, b) }

// ForeignJoin runs the two-stream foreign join over in-memory streams a
// and b (each in non-decreasing time order, IDs unique across both) and
// returns all cross-side matches. It is the two-stream counterpart of
// SelfJoin.
func ForeignJoin(opts Options, a, b []Item) ([]Match, error) {
	opts.Join = JoinForeign
	return Join(opts, stream.NewSliceSource(MergeSides(a, b)))
}

// ForeignJoinCtx drains a side-tagged source (see MergeSideSources)
// through a fresh foreign joiner, pushing every cross-side match into
// sink as it is found — the JoinCtx of the two-stream join.
func ForeignJoinCtx(ctx context.Context, opts Options, src Source, sink MatchSink) error {
	opts.Join = JoinForeign
	return JoinCtx(ctx, opts, src, sink)
}

// ForeignMatches runs the foreign join over a side-tagged source and
// yields every cross-side match as a range-over-func iterator, with the
// Matches semantics (backpressure, early exit, final error yield).
func ForeignMatches(ctx context.Context, opts Options, src Source) iter.Seq2[Match, error] {
	opts.Join = JoinForeign
	return Matches(ctx, opts, src)
}
