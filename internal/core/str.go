package core

import (
	"io"

	"sssj/internal/apss"
	"sssj/internal/index/streaming"
	"sssj/internal/metrics"
	"sssj/internal/stream"
)

// STR is the Streaming framework (Algorithm 5): a thin driver over a
// streaming index. Every match is reported as soon as its younger item
// arrives — no delay, unlike MiniBatch.
type STR struct {
	idx streaming.Index
	// sidx is idx's push-based face, set when the index supports it
	// (every index built by streaming.New does); AddTo then bypasses the
	// slice adapter entirely.
	sidx streaming.SinkIndex
}

// NewSTR builds an STR joiner with the given streaming index kind.
func NewSTR(kind streaming.Kind, params apss.Params, counters *metrics.Counters) (*STR, error) {
	return NewSTRFull(kind, params, streaming.Options{Counters: counters})
}

// NewSTRWithKernel builds an STR joiner using a non-default decay kernel
// (extension; see apss.Kernel).
func NewSTRWithKernel(kind streaming.Kind, params apss.Params, kernel apss.Kernel, counters *metrics.Counters) (*STR, error) {
	return NewSTRFull(kind, params, streaming.Options{Counters: counters, Kernel: kernel})
}

// NewSTRFull builds an STR joiner with full control over the streaming
// index options (kernel, ablations, dimension-ordering warmup).
func NewSTRFull(kind streaming.Kind, params apss.Params, opts streaming.Options) (*STR, error) {
	idx, err := streaming.New(kind, params, opts)
	if err != nil {
		return nil, err
	}
	return NewSTRFromIndex(idx), nil
}

// Add implements Joiner.
func (s *STR) Add(x stream.Item) ([]apss.Match, error) { return s.idx.Add(x) }

// AddTo implements SinkJoiner: matches flow from the index's
// verification loop straight into emit.
func (s *STR) AddTo(x stream.Item, emit apss.Sink) error {
	if s.sidx != nil {
		return s.sidx.AddTo(x, emit)
	}
	ms, err := s.idx.Add(x)
	if err != nil {
		return err
	}
	return emitAll(emit, ms)
}

// warmupFinisher is implemented by indexes that may hold back matches
// until a warmup completes (the dimension-ordering extension).
type warmupFinisher interface {
	FinishWarmup() ([]apss.Match, error)
}

// warmupFinisherTo is warmupFinisher's push-based face.
type warmupFinisherTo interface {
	FinishWarmupTo(apss.Sink) error
}

// Flush implements Joiner. STR reports everything online, except when
// the index runs a dimension-ordering warmup that the stream ended
// before completing — Flush releases those buffered matches.
func (s *STR) Flush() ([]apss.Match, error) {
	if wf, ok := s.idx.(warmupFinisher); ok {
		return wf.FinishWarmup()
	}
	return nil, nil
}

// FlushTo implements SinkJoiner, releasing warmup-buffered matches into
// emit.
func (s *STR) FlushTo(emit apss.Sink) error {
	if wf, ok := s.idx.(warmupFinisherTo); ok {
		return wf.FinishWarmupTo(emit)
	}
	ms, err := s.Flush()
	if err != nil {
		return err
	}
	return emitAll(emit, ms)
}

// AdvanceTo implements Advancer: the barrier forwards to the streaming
// index, which expires and sweeps exactly as an arrival at t would. STR
// reports every match online, so a barrier emits nothing.
func (s *STR) AdvanceTo(t float64, _ apss.Sink) error {
	if adv, ok := s.idx.(streaming.Advancer); ok {
		return adv.Advance(t)
	}
	return nil
}

// IndexSize exposes current index occupancy.
func (s *STR) IndexSize() streaming.SizeInfo { return s.idx.Size() }

// AdaptInfo reports the self-tuning state of the underlying index; ok is
// false when the index is not adaptive.
func (s *STR) AdaptInfo() (streaming.AdaptState, bool) { return streaming.AdaptInfo(s.idx) }

// ArenaInfo exposes block-arena occupancy when the underlying index
// implements streaming.ArenaSizer; ok is false otherwise (the adaptive
// index).
func (s *STR) ArenaInfo() (streaming.BlockInfo, bool) {
	if as, ok := s.idx.(streaming.ArenaSizer); ok {
		return as.ArenaInfo(), true
	}
	return streaming.BlockInfo{}, false
}

// SaveIndex checkpoints the underlying streaming index (see
// streaming.Save).
func (s *STR) SaveIndex(w io.Writer) error { return streaming.Save(s.idx, w) }

// SaveIndexFull checkpoints the underlying streaming index together
// with the event-time reorder state of the operator feeding it (see
// streaming.SaveFull).
func (s *STR) SaveIndexFull(w io.Writer, et *streaming.EventTimeState) error {
	return streaming.SaveFull(s.idx, et, w)
}

// NewSTRFromIndex wraps an existing streaming index (typically one
// restored by streaming.Load) in the STR framework.
func NewSTRFromIndex(idx streaming.Index) *STR {
	s := &STR{idx: idx}
	s.sidx, _ = idx.(streaming.SinkIndex)
	return s
}

// IndexParams returns the join parameters of the underlying index.
func (s *STR) IndexParams() apss.Params { return s.idx.Params() }
