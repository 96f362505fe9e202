package streaming

import (
	"errors"
	"fmt"

	"sssj/internal/apss"
	"sssj/internal/dimorder"
	"sssj/internal/metrics"
	"sssj/internal/stream"
)

// WarmupOrder configures the streaming dimension-ordering extension — the
// paper's primary future-work item ("experiment with dimension-ordering
// strategies and evaluate the cost-benefit trade-off of maintaining a
// dimension ordering").
//
// A batch index can sort dimensions before building; a streaming index
// cannot reorder retroactively, because the residual split of every
// indexed vector is tied to the order in force when it arrived. The
// trade-off chosen here: buffer the first Items stream elements, learn a
// permutation from them, then replay the buffer and run the rest of the
// (unbounded) stream under that fixed order. Results are exact — a
// consistent permutation never changes dot products — but the first
// Items matches are delayed until the warmup closes.
type WarmupOrder struct {
	// Strategy ranks dimensions; dimorder.None disables the wrapper.
	Strategy dimorder.Strategy
	// Items is the warmup length (how many items the permutation is
	// learned from). Values < 1 disable the wrapper.
	Items int
}

// orderedIndex wraps a SinkIndex with warmup-learned dimension remapping.
type orderedIndex struct {
	inner  SinkIndex
	warm   WarmupOrder
	buf    []stream.Item
	dm     *dimorder.Map
	active bool
}

// newOrderedIndex wraps inner unless the warmup config is disabled.
func newOrderedIndex(inner SinkIndex, warm WarmupOrder) SinkIndex {
	if warm.Strategy == dimorder.None || warm.Items < 1 {
		return inner
	}
	return &orderedIndex{inner: inner, warm: warm}
}

// Add implements Index (the collect adapter over AddTo).
func (o *orderedIndex) Add(x stream.Item) ([]apss.Match, error) { return collectAdd(o, x) }

// AddTo implements SinkIndex. During warmup it buffers and reports
// nothing; the call that completes the warmup emits every match among
// the buffered items.
func (o *orderedIndex) AddTo(x stream.Item, emit apss.Sink) error {
	if o.active {
		x.Vec = o.dm.Remap(x.Vec)
		return o.inner.AddTo(x, emit)
	}
	// Validate time order up front so a bad item fails immediately
	// rather than mid-replay.
	if n := len(o.buf); n > 0 && x.Time < o.buf[n-1].Time {
		return ErrTimeOrder
	}
	o.buf = append(o.buf, x)
	if len(o.buf) < o.warm.Items {
		return nil
	}
	return o.FinishWarmupTo(emit)
}

// FinishWarmup is the collect adapter over FinishWarmupTo.
func (o *orderedIndex) FinishWarmup() ([]apss.Match, error) {
	var out []apss.Match
	err := o.FinishWarmupTo(apss.Collector(&out))
	return out, err
}

// FinishWarmupTo closes an incomplete warmup early: the permutation is
// learned from whatever was buffered and the buffer is replayed,
// emitting its matches. The STR framework calls this from Flush so a
// stream shorter than the warmup still reports every pair. Calling it
// after the warmup completed (or on an empty buffer) is a no-op.
//
// The replay always runs to completion, honoring the SinkIndex.AddTo
// contract for the warmup as a whole: every buffered item is indexed,
// the first error — sink or index, in stream order — is latched and
// returned at the end, and the wrapper stays reusable. (Returning on
// the first inner error used to leak the remainder of the buffer: those
// items were never indexed, yet Size kept reporting them as
// residuals-in-waiting forever.)
func (o *orderedIndex) FinishWarmupTo(emit apss.Sink) error {
	if o.active {
		return nil
	}
	o.dm = dimorder.Build(o.buf, o.warm.Strategy)
	o.active = true
	g := apss.NewGate(emit)
	var firstErr error
	for _, it := range o.buf {
		it.Vec = o.dm.Remap(it.Vec)
		err := o.inner.AddTo(it, g.Emit)
		if firstErr == nil {
			// The gate latches sink errors (AddTo returns them too, but
			// only for the item that hit one); an inner index error is
			// later in stream order than any already-latched sink error.
			if serr := g.Err(); serr != nil {
				firstErr = serr
			} else if err != nil {
				firstErr = err
			}
		}
	}
	o.buf = nil
	if firstErr != nil {
		return firstErr
	}
	return g.Err()
}

// Advance implements Advancer by forwarding to the inner index. During
// an open warmup the barrier is dropped: the buffered items have not
// reached the inner index yet, and advancing its clock past them would
// reject them at replay. Dropping a barrier is always sound — it only
// defers maintenance the next arrival performs anyway.
func (o *orderedIndex) Advance(t float64) error {
	if !o.active {
		return nil
	}
	if adv, ok := o.inner.(Advancer); ok {
		return adv.Advance(t)
	}
	return nil
}

// ErrWarmupOpen is the sentinel under every WarmupOpenError; match it
// with errors.Is.
var ErrWarmupOpen = errors.New("streaming: dimension-ordering warmup still open")

// WarmupOpenError is returned by Save when a dimension-ordered index is
// checkpointed before its warmup closed: the buffered items have not
// been joined yet, so a checkpoint taken now would silently lose their
// matches. Callers should drain the warmup (FinishWarmup, or the STR
// framework's Flush) and retry, or wait until Items arrivals complete
// it. Buffered reports how many items are pending.
type WarmupOpenError struct {
	// Buffered is the number of warmup items whose matches are not yet
	// reported.
	Buffered int
}

// Error implements error.
func (e *WarmupOpenError) Error() string {
	return fmt.Sprintf("%v: %d buffered items have unreported matches; drain with FinishWarmup (or Flush) before checkpointing", ErrWarmupOpen, e.Buffered)
}

// Unwrap makes errors.Is(err, ErrWarmupOpen) work.
func (e *WarmupOpenError) Unwrap() error { return ErrWarmupOpen }

// checkpointClone resolves the wrapper into its checkpointable stand-in:
// a plain INV index holding the inner engine's live window mapped back
// to natural dimension space via the inverse permutation. See SaveFull.
func (o *orderedIndex) checkpointClone() (SinkIndex, error) {
	if !o.active {
		return nil, &WarmupOpenError{Buffered: len(o.buf)}
	}
	st, err := extractLive(o.inner)
	if err != nil {
		return nil, err
	}
	inv := o.dm.Inverse()
	for i := range st.items {
		st.items[i].Vec = inv.Remap(st.items[i].Vec)
	}
	clone := newInvIndex(st.p, st.kernel, false, false, Shard{}, &metrics.Counters{})
	if err := st.seedInto(clone); err != nil {
		return nil, err
	}
	return clone, nil
}

// Size implements Index. During warmup the inner index is empty; the
// buffered items are reported as residuals-in-waiting.
func (o *orderedIndex) Size() SizeInfo {
	s := o.inner.Size()
	s.Residuals += len(o.buf)
	return s
}

// Params implements Index.
func (o *orderedIndex) Params() apss.Params { return o.inner.Params() }
