package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"sssj"
	"sssj/internal/apss"
	"sssj/internal/core"
	"sssj/internal/index/streaming"
	"sssj/internal/metrics"
	"sssj/internal/stream"
)

// libInstance runs the two in-process workloads. In-memory (scan-heavy)
// it hands block items to sssj.Joiner.ProcessTo and counts matches; in
// text mode (thin-pipeline) it is the cmd/sssj loop: text reader →
// ProcessTo with Options.Lateness → every match formatted into a
// discarded bufio.Writer.
//
// A traced instance replaces the Joiner by the same pipeline assembled
// from exported pieces (see pipeline), which records a span per layer
// when rec is set and none when it is nil.
type libInstance struct {
	sp   spec
	blk  *block
	text *textBlock // nil: in-memory items
	ph   setupPhases

	joiner  *sssj.Joiner
	pipe    *pipeline
	rec     *recorder
	process func(stream.Item, sssj.MatchSink) error
	stats   metrics.Counters

	dig       *passDigests
	sink      sssj.MatchSink
	out       *bufio.Writer
	encoded   []byte
	lat       []int64
	textBytes int
}

func newLibInstance(sp spec, seed int64, traced bool) (instance, error) {
	l := &libInstance{sp: sp, lat: make([]int64, 0, sp.items)}
	t0 := time.Now()
	l.blk = genBlock(sp.profile, sp.items, seed, sp.lateness)
	if err := l.blk.checkReplayable(sp.params().Horizon(), sp.lateness); err != nil {
		return nil, err
	}
	if sp.lateness > 0 {
		var err error
		if l.text, err = newTextBlock(l.blk); err != nil {
			return nil, err
		}
	}
	l.ph.generate = time.Since(t0)
	l.ph.baseHeap = liveHeap()

	l.dig = newPassDigests(sp.items, sp.prefix)
	l.sink = l.dig.sink
	if l.text != nil {
		l.out = bufio.NewWriter(io.Discard)
		l.sink = func(m sssj.Match) error {
			l.dig.add(m)
			_, err := fmt.Fprintf(l.out, "%d %d %.6f %.6f %.6f\n", m.X, m.Y, m.Sim, m.Dot, m.DT)
			return err
		}
	}
	if traced {
		var err error
		if l.pipe, err = newPipeline(sp.params(), sp.lateness, &l.stats); err != nil {
			return nil, err
		}
		l.process = l.pipe.process
	} else {
		var err error
		l.joiner, err = sssj.New(sssj.Options{Theta: sp.theta, Lambda: sp.lambda, Lateness: sp.lateness, Stats: &l.stats})
		if err != nil {
			return nil, err
		}
		l.process = l.joiner.ProcessTo
	}

	t0 = time.Now()
	l.prepare(0)
	if out := l.pass(0); out.failed > 0 {
		return nil, fmt.Errorf("%s: %d of %d warm-up items failed", sp.name, out.failed, out.items)
	}
	l.ph.warmup = time.Since(t0)
	return l, nil
}

// liveHeap returns the heap in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func (l *libInstance) prepare(k int) {
	if l.text != nil {
		l.encoded = l.text.encode(k)
		l.textBytes = len(l.encoded)
	}
}

// blockSource serves pass k of a block from memory.
type blockSource struct {
	b    *block
	k, i int
}

func (s *blockSource) Next() (stream.Item, error) {
	if s.i >= len(s.b.items) {
		return stream.Item{}, io.EOF
	}
	s.i++
	return s.b.at(s.k, s.i-1), nil
}

func (l *libInstance) pass(k int) passOut {
	var src stream.Source = &blockSource{b: l.blk, k: k}
	var base uint64
	if l.text != nil {
		// The text reader numbers items from 0 in every pass; the shift
		// makes this pass's IDs continue the previous one's.
		src, base = sssj.ReadText(bytes.NewReader(l.encoded)), uint64(k*l.sp.items)
	}
	out := passOut{lat: l.lat[:0]}
	for {
		t0 := time.Now()
		root := l.rec.begin("bench.item", 0)
		var parse int32 = -1
		if l.text != nil {
			parse = l.rec.begin("stream.parse", 0)
		}
		it, err := src.Next()
		if err == io.EOF {
			l.rec.discard(root)
			break
		}
		it.ID += base
		if parse >= 0 {
			l.rec.setItem(parse, it.ID)
			l.rec.end(parse)
		}
		l.rec.setItem(root, it.ID)
		if err == nil {
			err = l.process(it, l.sink)
		}
		l.rec.end(root)
		if err != nil {
			out.failed++
		}
		out.lat = append(out.lat, int64(time.Since(t0)))
		out.items++
	}
	return out
}

func (l *libInstance) finish() error {
	if l.joiner != nil {
		return l.joiner.FlushTo(l.sink)
	}
	return l.pipe.flush(l.sink)
}

func (l *libInstance) digests() *passDigests { return l.dig }
func (l *libInstance) phases() setupPhases   { return l.ph }

func (l *libInstance) references(prefix int) (digest, error) {
	return reference(l.blk, l.sp.params(), l.sp.lateness, prefix)
}

// pipeline is what sssj.Joiner.ProcessTo runs for the STR framework,
// assembled from exported pieces so that each can be timed from
// outside: stream.Reorder.Push → core.STR.AddTo → the streaming index's
// AddTo → the sink. With rec nil it records nothing and is the untraced
// twin the traced pass is compared against.
type pipeline struct {
	rec      *recorder
	reo      *stream.Reorder
	str      *core.STR
	idx      streaming.SinkIndex // the index itself, for Size and ArenaInfo
	depthMax int                 // deepest reorder buffer seen
}

func newPipeline(params apss.Params, lateness float64, counters *metrics.Counters) (*pipeline, error) {
	idx, err := streaming.New(streaming.L2, params, streaming.Options{Counters: counters})
	if err != nil {
		return nil, err
	}
	sidx, ok := idx.(streaming.SinkIndex)
	if !ok {
		return nil, fmt.Errorf("streaming.New returned %T, which has no AddTo", idx)
	}
	p := &pipeline{reo: stream.NewReorder(lateness), idx: sidx}
	p.str = core.NewSTRFromIndex(&tracedIndex{SinkIndex: sidx, p: p})
	return p, nil
}

func (p *pipeline) process(it stream.Item, sink sssj.MatchSink) error {
	g := apss.NewGate(apss.Sink(sink))
	s := p.rec.begin("stream.reorder", it.ID)
	err := p.reo.Push(it, func(rel stream.Item) error { return p.release(rel, &g) })
	p.rec.end(s)
	p.depthMax = max(p.depthMax, p.reo.Len())
	if err != nil {
		return err
	}
	return g.Err()
}

func (p *pipeline) release(rel stream.Item, g *apss.Gate) error {
	s := p.rec.begin("core.str", rel.ID)
	err := p.str.AddTo(rel, g.Emit)
	p.rec.end(s)
	return err
}

func (p *pipeline) flush(sink sssj.MatchSink) error {
	g := apss.NewGate(apss.Sink(sink))
	if err := p.reo.Flush(func(rel stream.Item) error { return p.release(rel, &g) }); err != nil {
		return err
	}
	return g.Err()
}

// tracedIndex times the streaming index from outside: a span around
// AddTo, and inside it one around every call of the match sink.
type tracedIndex struct {
	streaming.SinkIndex
	p *pipeline
}

func (t *tracedIndex) AddTo(x stream.Item, emit apss.Sink) error {
	rec := t.p.rec
	if rec == nil {
		return t.SinkIndex.AddTo(x, emit)
	}
	s := rec.begin("streaming.add", x.ID)
	err := t.SinkIndex.AddTo(x, tracedEmit(rec, x.ID, emit))
	rec.end(s)
	return err
}

// tracedEmit wraps a match sink in an "apss.emit" span.
func tracedEmit(rec *recorder, item uint64, emit apss.Sink) apss.Sink {
	return func(m apss.Match) error {
		s := rec.begin("apss.emit", item)
		err := emit(m)
		rec.end(s)
		return err
	}
}
