// Package core implements the two algorithmic frameworks of the paper on
// top of the index packages:
//
//   - STR-IDX (Algorithm 5): one streaming index, query-then-insert, fully
//     online results.
//   - MB-IDX (Algorithm 1, with the §6.1 two-window max-vector fix): a
//     pipeline of two batch indexes over consecutive windows of length τ,
//     using any static index as a black box.
//
// It also provides the brute-force sliding-window join used as the
// correctness oracle throughout the test suite.
package core

import (
	"context"
	"io"

	"sssj/internal/apss"
	"sssj/internal/metrics"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// Joiner consumes a stream and emits SSSJ matches. Add and Flush must be
// called from one goroutine at a time — a stream has a single arrival
// order. The in-process implementations do all their work on that
// goroutine, as in the paper's evaluation; only the cluster coordinator
// has remote workers compute side by side inside a call.
type Joiner interface {
	// Add processes the next stream item (non-decreasing timestamps) and
	// returns the matches it can already report.
	Add(x stream.Item) ([]apss.Match, error)
	// Flush reports matches still buffered at end of stream. MiniBatch
	// holds up to two windows back; STR and BruteForce buffer nothing.
	Flush() ([]apss.Match, error)
}

// SinkJoiner is a Joiner whose native reporting path is push-based:
// AddTo and FlushTo hand each match to emit the moment it is reportable,
// with no intermediate slice — the hot path of the framework. Add/Flush
// are the collect adapters kept for callers that want slices.
//
// AddTo always processes x to completion: if emit returns an error, the
// remaining matches of x are dropped, the joiner's state still advances
// exactly as if every match had been consumed, and the first emit error
// is returned. The same holds for FlushTo. Every joiner constructed by
// this package implements SinkJoiner.
type SinkJoiner interface {
	Joiner
	AddTo(x stream.Item, emit apss.Sink) error
	FlushTo(emit apss.Sink) error
}

// Advancer is a SinkJoiner that accepts event-time watermark barriers.
// AdvanceTo(t, emit) promises that no item with Time < t will ever be
// added: the joiner advances its clock to t, performs the horizon
// maintenance an arrival at t would, and — for window frameworks —
// closes and reports every window that can no longer receive items,
// emitting the released matches. A stale barrier (t at or behind the
// clock) is a no-op. Like Add, AdvanceTo is called from one goroutine
// at a time.
type Advancer interface {
	AdvanceTo(t float64, emit apss.Sink) error
}

// Run drains src through j and returns all matches.
func Run(j Joiner, src stream.Source) ([]apss.Match, error) {
	var out []apss.Match
	err := RunCtx(context.Background(), j, src, apss.Collector(&out))
	return out, err
}

// RunCtx drains src through j, pushing every match into emit. The
// context is checked between items, so a canceled join stops promptly
// without scanning the rest of the stream; emit errors propagate
// per the SinkJoiner contract. Joiners that do not implement SinkJoiner
// fall back to the slice path with an emit loop per item.
func RunCtx(ctx context.Context, j Joiner, src stream.Source, emit apss.Sink) error {
	sj, _ := j.(SinkJoiner)
	add := func(it stream.Item) error {
		if sj != nil {
			return sj.AddTo(it, emit)
		}
		ms, err := j.Add(it)
		if err != nil {
			return err
		}
		return emitAll(emit, ms)
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		it, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := add(it); err != nil {
			return err
		}
	}
	// Re-check cancellation before the flush: for MiniBatch, Flush joins
	// up to two full buffered windows — by far the heaviest step of a
	// short stream — and a context canceled during the last item (or by
	// the consumer racing EOF) must stop the join promptly instead of
	// emitting a final burst of matches after cancellation.
	if err := ctx.Err(); err != nil {
		return err
	}
	if sj != nil {
		return sj.FlushTo(emit)
	}
	ms, err := j.Flush()
	if err != nil {
		return err
	}
	return emitAll(emit, ms)
}

// emitAll pushes a match slice through a sink, stopping at the first
// error.
func emitAll(emit apss.Sink, ms []apss.Match) error {
	for _, m := range ms {
		if err := emit(m); err != nil {
			return err
		}
	}
	return nil
}

// ApplyDecay converts a raw-dot pair from a static index into a Match,
// applying the time-decay factor and the threshold (the report filter of
// Algorithm 1). ok is false when the decayed similarity is below θ.
func ApplyDecay(p apss.Pair, params apss.Params, tx, ty float64) (apss.Match, bool) {
	dt := tx - ty
	if dt < 0 {
		dt = -dt
	}
	sim := params.Sim(p.Dot, dt)
	if sim < params.Theta {
		return apss.Match{}, false
	}
	return apss.Match{X: p.X, Y: p.Y, Sim: sim, Dot: p.Dot, DT: dt}, true
}

// BruteForce is the quadratic sliding-window reference join: exact by
// construction, used as the oracle in tests and as the unindexed baseline
// in benchmarks.
type BruteForce struct {
	params apss.Params
	tau    float64
	// foreign restricts the scan to cross-side pairs (the two-stream
	// foreign-join oracle; see NewForeignBruteForce).
	foreign bool
	window  []stream.Item
	c       *metrics.Counters
	now     float64
	begun   bool
}

// NewBruteForce returns a brute-force joiner. counters may be nil.
func NewBruteForce(params apss.Params, counters *metrics.Counters) (*BruteForce, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if counters == nil {
		counters = &metrics.Counters{}
	}
	return &BruteForce{params: params, tau: params.Horizon(), c: counters}, nil
}

// NewForeignBruteForce returns the brute-force oracle of the two-stream
// foreign join: identical to NewBruteForce except that only cross-side
// pairs (stream.Item.Side) are scored and reported.
func NewForeignBruteForce(params apss.Params, counters *metrics.Counters) (*BruteForce, error) {
	b, err := NewBruteForce(params, counters)
	if err != nil {
		return nil, err
	}
	b.foreign = true
	return b, nil
}

// Add implements Joiner (the collect adapter over AddTo).
func (b *BruteForce) Add(x stream.Item) ([]apss.Match, error) {
	var out []apss.Match
	err := b.AddTo(x, apss.Collector(&out))
	return out, err
}

// AddTo implements SinkJoiner.
func (b *BruteForce) AddTo(x stream.Item, emit apss.Sink) error {
	if b.begun && x.Time < b.now {
		return stream.ErrOutOfOrder
	}
	b.begun = true
	b.now = x.Time
	b.c.Items++

	// Evict items beyond the horizon.
	start := 0
	for start < len(b.window) && x.Time-b.window[start].Time > b.tau {
		start++
	}
	if start > 0 {
		b.window = append(b.window[:0], b.window[start:]...)
	}

	g := apss.NewGate(emit)
	for _, y := range b.window {
		if b.foreign && !apss.CrossSide(y.Side, x.Side) {
			continue
		}
		b.c.FullDots++
		dt := x.Time - y.Time
		dot := vec.Dot(x.Vec, y.Vec)
		if sim := b.params.Sim(dot, dt); sim >= b.params.Theta {
			g.Emit(apss.Match{X: x.ID, Y: y.ID, Sim: sim, Dot: dot, DT: dt})
		}
	}
	b.c.Pairs += g.Emitted()
	b.window = append(b.window, x)
	return g.Err()
}

// Flush implements Joiner; brute force reports everything online.
func (b *BruteForce) Flush() ([]apss.Match, error) { return nil, nil }

// FlushTo implements SinkJoiner; a no-op, as Flush.
func (b *BruteForce) FlushTo(apss.Sink) error { return nil }

// WindowSize reports the number of items currently retained.
func (b *BruteForce) WindowSize() int { return len(b.window) }
