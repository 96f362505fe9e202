package sssj

import (
	"fmt"

	"sssj/internal/apss"
	"sssj/internal/index/static"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// BatchPair is a result of the classic (non-streaming) all-pairs
// similarity search: a pair of input positions and their raw cosine
// similarity (no time decay).
type BatchPair = apss.Pair

// BatchPairSink consumes batch pairs as they are verified — the push
// counterpart of a returned []BatchPair.
type BatchPairSink = func(BatchPair) error

// BatchOptions is the Options surface as consumed by BatchJoin. The
// batch join has no time axis and no framework choice, so only Index,
// Stats, and DimOrder.Strategy are meaningful; the shared decision
// table (see Options) rejects combinations that cannot apply (a decay
// Kernel, K). Theta is an explicit BatchJoin argument and
// the Theta/Lambda fields are ignored.
type BatchOptions = Options

// BatchJoin solves the static all-pairs similarity search problem (apss,
// §3) the streaming algorithms build on: given unit vectors and a
// threshold θ, return all pairs with dot(x, y) ≥ θ. Pair IDs are indices
// into vectors.
//
// This is the operator the MiniBatch framework runs per window; it is
// exposed publicly because a batch self-join is useful on its own (data
// cleaning, near-duplicate detection over a closed corpus). It is the
// collect adapter over BatchJoinTo.
func BatchJoin(vectors []Vector, theta float64, opts BatchOptions) ([]BatchPair, error) {
	var pairs []BatchPair
	err := BatchJoinTo(vectors, theta, opts, apss.PairCollector(&pairs))
	return pairs, err
}

// BatchJoinTo is the push-based batch join: every verified pair is
// handed to sink as index construction walks the dataset, so arbitrarily
// large result sets never materialize in memory. A sink error stops
// emission (the first error is returned); the DimOrder.Strategy option
// orders dimensions inside the index, which changes work done but never
// the result set.
func BatchJoinTo(vectors []Vector, theta float64, opts BatchOptions, sink BatchPairSink) error {
	if !(theta > 0 && theta <= 1) {
		return fmt.Errorf("%w: theta=%v, want 0 < theta <= 1", apss.ErrBadParams, theta)
	}
	if err := opts.validate(opBatch); err != nil {
		return err
	}
	var kind static.Kind
	switch opts.Index {
	case IndexINV:
		kind = static.INV
	case IndexAP:
		kind = static.AP
	case IndexL2AP:
		kind = static.L2AP
	default:
		kind = static.L2
	}
	items := make([]stream.Item, 0, len(vectors))
	for i, v := range vectors {
		if err := v.Validate(); err != nil {
			return fmt.Errorf("sssj: vector %d: %w", i, err)
		}
		if !v.IsEmpty() && !v.IsUnit(1e-6) {
			return fmt.Errorf("sssj: vector %d is not unit-normalized (norm=%v)", i, v.Norm())
		}
		items = append(items, stream.Item{ID: uint64(i), Vec: v})
	}
	ix := static.New(kind, theta, static.Options{
		Counters: opts.Stats,
		Order:    opts.DimOrder.Strategy,
	})
	return ix.BuildTo(items, sink)
}

// Normalize returns a unit-length copy of v (empty stays empty), a
// convenience for preparing BatchJoin/Process inputs.
func Normalize(v Vector) Vector { return vec.Vector(v).Normalize() }
