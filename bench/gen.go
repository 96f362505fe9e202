package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"

	"sssj/internal/datagen"
	"sssj/internal/stream"
)

// timeQuantum is the grid timestamps are rounded down to. With every
// timestamp and the block span a multiple of 2⁻¹⁰, shifting a pass by a
// whole number of spans is exact in float64, so every pass presents the
// index with bit-identical time differences and must report
// bit-identical similarities.
const timeQuantum = 1.0 / 1024

// block is one generated stream segment, replayed without end: pass k
// carries the same vectors with IDs shifted by k·len(items) and
// timestamps by k·span, so the window never drains and every pass does
// the same work. items are in arrival order and items[i].ID == i.
type block struct {
	items []stream.Item
	span  float64
}

// at returns item i of pass k.
func (b *block) at(k, i int) stream.Item {
	it := b.items[i]
	it.ID += uint64(k * len(b.items))
	it.Time += float64(k) * b.span
	return it
}

// genBlock generates n items of a dataset shape from seed — the only
// input to the generator — and, for disorder > 0, perturbs their arrival
// order by at most that much event time.
func genBlock(p datagen.Profile, n int, seed int64, disorder float64) *block {
	p.N = n
	items := p.Generate(seed)
	for i := range items {
		items[i].Time = math.Floor(items[i].Time/timeQuantum) * timeQuantum
	}
	span := math.Floor(items[n-1].Time) + 1
	items = stream.ShuffleWithin(items, disorder, seed)
	for i := range items {
		items[i].ID = uint64(i)
	}
	return &block{items: items, span: span}
}

// checkReplayable rejects a block too short to be replayed: a pass may
// only ever match against itself and the pass before it.
func (b *block) checkReplayable(horizon, slack float64) error {
	if b.span <= horizon+slack {
		return fmt.Errorf("block spans %g time units, no more than the horizon %g + slack %g: raise the item count", b.span, horizon, slack)
	}
	return nil
}

// textBlock is a block in the text dataset format, kept as one line of
// coordinates per item so that a pass is re-encoded by writing each
// shifted timestamp in front of its unchanged coordinates.
type textBlock struct {
	*block
	coords [][]byte
	buf    bytes.Buffer
}

// newTextBlock encodes b and replaces its vectors with the ones the
// text reader recovers from that encoding (it re-normalizes what it
// parses), so that the reference join sees the vectors the program
// sees.
func newTextBlock(b *block) (*textBlock, error) {
	tb := &textBlock{block: b, coords: make([][]byte, len(b.items))}
	for i, it := range b.items {
		var line []byte
		for j, d := range it.Vec.Dims {
			line = append(line, ' ')
			line = strconv.AppendUint(line, uint64(d), 10)
			line = append(line, ':')
			line = strconv.AppendFloat(line, it.Vec.Vals[j], 'g', -1, 64)
		}
		tb.coords[i] = append(line, '\n')
	}
	src := stream.NewTextReader(bytes.NewReader(tb.encode(0)))
	for i := range b.items {
		it, err := src.Next()
		if err != nil {
			return nil, fmt.Errorf("re-reading encoded item %d: %w", i, err)
		}
		b.items[i].Vec = it.Vec
	}
	return tb, nil
}

// encode renders pass k as text. The returned bytes are valid until the
// next call.
func (tb *textBlock) encode(k int) []byte {
	tb.buf.Reset()
	var num [32]byte
	for i := range tb.items {
		tb.buf.Write(strconv.AppendFloat(num[:0], tb.at(k, i).Time, 'g', -1, 64))
		tb.buf.Write(tb.coords[i])
	}
	return tb.buf.Bytes()
}
