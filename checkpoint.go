package sssj

import (
	"fmt"
	"io"

	"sssj/internal/core"
	"sssj/internal/index/streaming"
	"sssj/internal/stream"
)

// ErrWarmupOpen is the sentinel under every WarmupOpenError; match it
// with errors.Is.
var ErrWarmupOpen = streaming.ErrWarmupOpen

// WarmupOpenError is returned by Checkpoint when a dimension-ordered
// joiner's warmup is still open: the buffered warmup items have
// unreported matches a checkpoint would silently lose. Buffered says how
// many; Flush drains them.
type WarmupOpenError = streaming.WarmupOpenError

// Checkpoint serializes the joiner's state — the index plus the
// event-time reorder stage (lateness, watermark clocks, and any items
// still buffered within the lateness window) — so the join can resume
// later with Resume, admitting and rejecting exactly the items an
// uninterrupted run would. Only the Streaming framework with the
// default decay model supports checkpointing (MiniBatch buffers whole
// windows and is cheap to warm up by replaying the last 2τ of the
// stream instead; the window modes likewise re-derive their state from
// at most one window of replay).
//
// Counters are not checkpointed; a resumed joiner counts from zero.
//
// Learned state is derived, not serialized: a dimension-ordered joiner
// (DimOrder) checkpoints its live window mapped back to natural
// dimension order, and an adaptive joiner (Adaptive / IndexAuto)
// likewise checkpoints its natural-space window — both land in the
// standard format and can be restored into any compatible
// configuration. One exception: a dimension-ordered joiner whose
// warmup is still open has buffered items with unreported matches, so
// Checkpoint refuses with a *WarmupOpenError (errors.Is:
// ErrWarmupOpen); call Flush to drain the warmup first.
func (j *Joiner) Checkpoint(w io.Writer) error {
	if j.opts.Window.Kind != WindowDecay {
		return fmt.Errorf("%w: window-mode joins do not support checkpointing (replay the last window instead)", ErrUnsupported)
	}
	s, ok := j.inner.(*core.STR)
	if !ok {
		return fmt.Errorf("%w: checkpointing requires the Streaming framework", ErrUnsupported)
	}
	st := j.reo.State()
	return s.SaveIndexFull(w, &st)
}

// Resume restores a joiner from a Checkpoint. The join parameters (θ, λ)
// and index kind come from the checkpoint itself; opts supplies only
// runtime state: Stats, Kernel when the checkpointed joiner used a
// custom decay kernel, and Join — a checkpoint restores under either
// join mode, with each item's Side bit carried by the v4 format (older
// files restore with every item on SideA, so a pre-side checkpoint
// resumed as a foreign join treats its whole history as stream A). Options that
// cannot apply to a restored index (a DimOrder strategy, the MiniBatch
// framework, K) are rejected with ErrUnsupported via the shared
// decision table.
//
// Adaptive (or Index: IndexAuto) is honored on resume: the adaptive
// layer's state is derived, so the restored index is wrapped fresh —
// the re-ranker restarts its observation counters from the restored
// live window and the selector restarts from the checkpointed engine
// kind. A checkpoint written by an adaptive joiner restores equally
// well into a static configuration.
func Resume(r io.Reader, opts Options) (*Joiner, error) {
	if err := opts.validate(opResume); err != nil {
		return nil, err
	}
	sopts := streaming.Options{
		Counters: opts.Stats,
		Kernel:   opts.Kernel,
		Foreign:  opts.Join == JoinForeign,
	}
	if opts.Adaptive.enabled() || opts.Index == IndexAuto {
		sopts.Adapt = streaming.Adapt{
			Rerank:  opts.Adaptive.Rerank,
			Cadence: opts.Adaptive.Cadence,
			Auto:    opts.Adaptive.Auto || opts.Index == IndexAuto,
		}
	}
	idx, et, err := streaming.LoadFull(r, sopts)
	if err != nil {
		return nil, err
	}
	inner := core.NewSTRFromIndex(idx)
	restored := Options{
		Theta:     idx.Params().Theta,
		Lambda:    idx.Params().Lambda,
		Framework: Streaming,
		Kernel:    opts.Kernel,
		Stats:     opts.Stats,
		Join:      opts.Join,
		Lateness:  opts.Lateness,
		Index:     opts.Index,
		Adaptive:  opts.Adaptive,
	}
	// The event-time state (v5 section) is authoritative when present:
	// the restored reorder stage carries the checkpoint's lateness,
	// clocks, and still-buffered items. opts.Lateness may restate the
	// checkpointed δ (or be left zero to inherit it); asking for a
	// different δ would silently change which in-flight items are late,
	// so it is rejected. Pre-v5 files carry no event-time state and
	// resume with a fresh reorder stage at opts.Lateness — the engine's
	// own clock still rejects items behind the checkpoint.
	if et != nil {
		if opts.Lateness != 0 && opts.Lateness != et.Delta {
			return nil, fmt.Errorf("%w: checkpoint carries Lateness=%v; resume with that value or 0 to inherit it", ErrUnsupported, et.Delta)
		}
		restored.Lateness = et.Delta
		return newJoiner(inner, idx.Params(), restored, stream.RestoreReorder(*et)), nil
	}
	return newJoiner(inner, idx.Params(), restored, newReorderFor(restored)), nil
}
