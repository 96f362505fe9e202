package sssj

import (
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"math"

	"sssj/internal/apss"
	"sssj/internal/core"
	"sssj/internal/index/streaming"
	"sssj/internal/stream"
)

// MatchSink consumes matches as they are found — the push counterpart
// of a returned []Match, and the delivery path every operator in this
// package uses internally. Returning a non-nil error stops emission:
// the producer finishes processing the current item (its index state
// advances exactly as if every match had been consumed), drops the
// item's remaining matches, and returns the sink's first error.
//
// Return ErrStop to end a Join early without it being treated as a
// failure; JoinCtx and SelfJoinCtx translate it to a nil return.
type MatchSink = func(Match) error

// ErrStop is returned by a MatchSink to stop a join early. The
// stream-draining entry points (JoinCtx, SelfJoinCtx) treat it as a
// clean termination and return nil; ProcessTo and FlushTo return it
// unchanged so item-at-a-time callers can observe the stop themselves.
var ErrStop = errors.New("sssj: stop")

// CollectInto returns a MatchSink that appends every match to *dst —
// the adapter between the sink world and code that wants slices.
func CollectInto(dst *[]Match) MatchSink { return apss.Collector(dst) }

// ProcessTo feeds the next stream item, pushing each match into sink
// the moment it is verified — no intermediate slice, and once the
// window is warm no allocation at all (TestProcessToAllocatesNothing
// checks it, with δ = 0 and δ > 0). Under STR every match involving
// the item is emitted during the call; under MB matches are emitted
// when window boundaries are crossed.
//
// With Options.Lateness δ > 0 the item first passes the reorder stage:
// it may be buffered and released (together with earlier buffered
// items, in event-time order) by a later call once the watermark passes
// it — so one ProcessTo may index zero or several items, and a match is
// attributed to the call that released its younger item. With δ = 0
// every item is indexed by its own call, exactly the pre-event-time
// contract.
//
// A released item is always processed to completion: if sink returns an
// error (including ErrStop), the remaining matches are dropped, the
// item is still indexed, and the error is returned — so the joiner
// stays reusable after an early exit. An item behind the watermark is
// rejected with a *TimeRegressionError and counted in Stats.LateDrops.
func (j *Joiner) ProcessTo(it Item, sink MatchSink) error {
	j.gate = apss.NewGate(sink)
	if err := j.reo.Push(it, j.release); err != nil {
		return j.endCall(j.admissionErr(err))
	}
	return j.endCall(nil)
}

// endCall ends a ProcessTo, FlushTo or AdvanceTo call: it drops the
// caller's sink, so the Joiner keeps neither it nor what it holds
// reachable between calls, and returns err, or else the sink's first
// error.
func (j *Joiner) endCall(err error) error {
	if err == nil {
		err = j.gate.Err()
	}
	j.gate = apss.Gate{}
	return err
}

// admissionErr maps reorder-stage errors onto the public surface: a
// late item becomes a *TimeRegressionError (counted in Stats.LateDrops),
// anything else — an engine error surfaced through the release callback
// — goes through wrapTimeErr.
func (j *Joiner) admissionErr(err error) error {
	var late *stream.LateError
	if errors.As(err, &late) {
		if j.opts.Stats != nil {
			j.opts.Stats.LateDrops++
		}
		return &TimeRegressionError{ID: late.ID, Time: late.Time, Watermark: late.Watermark}
	}
	return wrapTimeErr(err)
}

// FlushTo ends the stream: the reorder stage drains (every still-
// buffered item is indexed, in event-time order, regardless of the
// watermark), then matches still buffered by the framework (MB windows,
// STR dimension-ordering warmups) are emitted into sink.
func (j *Joiner) FlushTo(sink MatchSink) error {
	j.gate = apss.NewGate(sink)
	if err := j.reo.Flush(j.release); err != nil {
		return j.endCall(wrapTimeErr(err))
	}
	return j.endCall(wrapTimeErr(j.inner.FlushTo(j.emit)))
}

// AdvanceTo applies an event-time heartbeat: a promise from the caller
// that every future item (of either side, under the foreign join) has
// timestamp ≥ t. The reorder stage advances its clocks to t, releasing
// (and indexing) every buffered item the new watermark t − δ passes,
// and the watermark barrier is forwarded to the framework, which
// performs the horizon maintenance an arrival would and — under a
// window mode — closes and reports every window that can no longer
// receive items, without waiting for the next arrival. Matches released
// by the barrier flow into sink. A stale heartbeat (t at or behind the
// stream clock) is a no-op; heartbeats on a fresh joiner establish the
// clock, so a later item behind t is rejected as late.
func (j *Joiner) AdvanceTo(t float64, sink MatchSink) error {
	j.gate = apss.NewGate(sink)
	if err := j.reo.AdvanceTo(t, j.release); err != nil {
		return j.endCall(wrapTimeErr(err))
	}
	if w := j.reo.Watermark(); !math.IsInf(w, -1) {
		if adv, ok := j.inner.(core.Advancer); ok {
			return j.endCall(wrapTimeErr(adv.AdvanceTo(w, j.emit)))
		}
	}
	return j.endCall(nil)
}

// Watermark returns the joiner's current event-time watermark: the
// latest timestamp seen minus Options.Lateness (under the foreign join,
// the older of the two sides' clocks minus δ). Items at or after the
// watermark are admitted; items strictly behind it are rejected.
// Before any input (or, sided, before both sides have produced an
// item) it is -Inf.
func (j *Joiner) Watermark() float64 { return j.reo.Watermark() }

// wrapTimeErr maps the engines' internal time-order errors onto the
// public ErrTimeRegression. The Joiner pre-checks the clock itself, but
// a restored joiner (Resume) only knows the checkpoint's clock once the
// engine rejects the first regressing item.
func wrapTimeErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, streaming.ErrTimeOrder) || errors.Is(err, stream.ErrOutOfOrder) {
		return fmt.Errorf("%w: %v", ErrTimeRegression, err)
	}
	return err
}

// JoinCtx drains a source through a fresh Joiner, pushing every match
// into sink as it is found. The context is checked between items, so a
// canceled join stops promptly; a sink returning ErrStop ends the join
// cleanly (nil return). This is the streaming-first counterpart of
// Join: nothing is buffered, and the memory footprint is the index
// alone regardless of how many matches the stream produces.
func JoinCtx(ctx context.Context, opts Options, src Source, sink MatchSink) error {
	j, err := New(opts)
	if err != nil {
		return err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return j.runTo(ctx, src, sink)
}

// SelfJoinCtx is JoinCtx over an in-memory stream.
func SelfJoinCtx(ctx context.Context, opts Options, items []Item, sink MatchSink) error {
	return JoinCtx(ctx, opts, stream.NewSliceSource(items), sink)
}

// runTo drains src through j into sink, translating ErrStop into a
// clean stop. It routes every item through ProcessTo so the event-time
// reorder stage is in the path, checking the context between items (and
// again before the flush, whose window joins are the heaviest step of a
// short stream).
func (j *Joiner) runTo(ctx context.Context, src Source, sink MatchSink) error {
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
		if err := j.ProcessTo(it, sink); err != nil {
			if errors.Is(err, ErrStop) {
				return nil
			}
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := j.FlushTo(sink); err != nil && !errors.Is(err, ErrStop) {
		return err
	}
	return nil
}

// Matches runs the join over src and yields every match as it is found,
// as a Go 1.23+ range-over-func iterator. Consumption is incremental
// and backpressured — the join advances only as fast as the loop body —
// and breaking out of the loop stops the join after the in-flight item.
// A non-nil error (bad options, source failure, time regression,
// context cancellation) is yielded as the final pair with a zero Match.
//
//	for m, err := range sssj.Matches(ctx, opts, src) {
//	    if err != nil {
//	        return err
//	    }
//	    use(m)
//	}
func Matches(ctx context.Context, opts Options, src Source) iter.Seq2[Match, error] {
	return func(yield func(Match, error) bool) {
		j, err := New(opts)
		if err != nil {
			yield(Match{}, err)
			return
		}
		if ctx == nil {
			ctx = context.Background()
		}
		stopped := false
		sink := func(m Match) error {
			if !yield(m, nil) {
				stopped = true
				return ErrStop
			}
			return nil
		}
		fail := func(err error) {
			// Never touch yield again once it returned false.
			if !stopped {
				yield(Match{}, err)
			}
		}
		for {
			if err := ctx.Err(); err != nil {
				fail(err)
				return
			}
			it, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				fail(err)
				return
			}
			if err := j.ProcessTo(it, sink); err != nil {
				if !errors.Is(err, ErrStop) {
					fail(err)
				}
				return
			}
		}
		if err := j.FlushTo(sink); err != nil && !errors.Is(err, ErrStop) {
			fail(err)
		}
	}
}
