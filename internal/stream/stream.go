// Package stream defines the timestamped-vector stream abstraction of the
// SSSJ problem, plus dataset readers and writers.
//
// A stream S = <(x_i, t(x_i)), ...> delivers unit-normalized sparse vectors
// in non-decreasing timestamp order. Two on-disk formats are supported,
// mirroring the paper's setup (§7: "datasets are available in text format,
// while for the experiments we use a more compact and faster-to-read binary
// format; the text-to-binary converter is also included"):
//
//   - Text: one item per line, "<timestamp> <dim>:<val> <dim>:<val> ...".
//   - Binary: little-endian records with a magic header (see binary.go).
package stream

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"sssj/internal/apss"
	"sssj/internal/vec"
)

// Item is a timestamped vector in the stream. ID is a dense sequence number
// assigned in arrival order (the ι(x) reference of the paper).
//
// Side tags the item's input stream for the two-stream (foreign) join
// extension; the self-join operators ignore it, and the zero value keeps
// every untagged item on side A. It is an operator-level tag: the
// on-disk dataset formats do not carry it.
type Item struct {
	ID   uint64
	Time float64
	Side apss.Side
	Vec  vec.Vector
}

// ErrOutOfOrder is returned by readers and validators when timestamps
// decrease.
var ErrOutOfOrder = errors.New("stream: timestamps out of order")

// Source yields stream items in arrival order. Next returns io.EOF after
// the last item.
type Source interface {
	Next() (Item, error)
}

// SliceSource serves items from an in-memory slice.
type SliceSource struct {
	items []Item
	pos   int
}

// NewSliceSource returns a Source over items. The slice is not copied.
func NewSliceSource(items []Item) *SliceSource {
	return &SliceSource{items: items}
}

// Next implements Source.
func (s *SliceSource) Next() (Item, error) {
	if s.pos >= len(s.items) {
		return Item{}, io.EOF
	}
	it := s.items[s.pos]
	s.pos++
	return it, nil
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// Collect drains a source into a slice.
func Collect(s Source) ([]Item, error) {
	var out []Item
	for {
		it, err := s.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, it)
	}
}

// Validate checks that items are ID-dense from firstID, time-ordered, and
// hold unit vectors (within eps). It is used by tests and by readers in
// strict mode.
func Validate(items []Item, eps float64) error {
	prev := -1.0
	for i, it := range items {
		if err := it.Vec.Validate(); err != nil {
			return fmt.Errorf("stream: item %d: %w", i, err)
		}
		if it.Time < prev {
			return fmt.Errorf("%w: item %d at t=%v after t=%v", ErrOutOfOrder, i, it.Time, prev)
		}
		prev = it.Time
		if !it.Vec.IsEmpty() && !it.Vec.IsUnit(eps) {
			return fmt.Errorf("stream: item %d not unit-normalized (norm=%v)", i, it.Vec.Norm())
		}
	}
	return nil
}

// Stats summarizes a dataset the way Table 1 of the paper does.
type Stats struct {
	N        int     // number of vectors
	M        uint32  // dimensionality (max dim + 1)
	NNZ      int64   // total non-zero coordinates
	Density  float64 // NNZ / (N*M)
	AvgNNZ   float64 // NNZ / N
	Duration float64 // t(last) - t(first)
}

// ComputeStats scans items and returns Table 1-style statistics.
func ComputeStats(items []Item) Stats {
	var st Stats
	st.N = len(items)
	for _, it := range items {
		st.NNZ += int64(it.Vec.NNZ())
		if d := it.Vec.MaxDim(); d > st.M {
			st.M = d
		}
	}
	if st.N > 0 {
		st.AvgNNZ = float64(st.NNZ) / float64(st.N)
		st.Duration = items[st.N-1].Time - items[0].Time
		if st.M > 0 {
			st.Density = float64(st.NNZ) / (float64(st.N) * float64(st.M))
		}
	}
	return st
}

// FiniteTime rejects the timestamps no stream clock can order: NaN and
// ±Inf, which strconv.ParseFloat accepts and a binary record can carry.
// Every reader of outside input checks it, so a stream never holds one.
func FiniteTime(t float64) error {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("bad timestamp %q", strconv.FormatFloat(t, 'g', -1, 64))
	}
	return nil
}
