package streaming

import (
	"bytes"
	"errors"
	"testing"

	"sssj/internal/apss"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// FuzzCheckpointLoad: LoadFull over arbitrary bytes must return a typed
// error or an index that accepts an item at its restored clock; it must
// never panic. The seeds are SaveFull images of every kind, with and
// without an event-time section, so mutations start from well-formed
// headers, chains, residuals and max vectors.
func FuzzCheckpointLoad(f *testing.F) {
	p := apss.Params{Theta: 0.5, Lambda: 0.1}
	items := fuzzItems(7, 40)
	et := &EventTimeState{
		Delta:    2,
		Sided:    true,
		Seen:     [2]bool{true, true},
		MaxT:     [2]float64{items[39].Time, items[38].Time},
		Buffered: items[36:],
	}
	for _, kind := range []Kind{INV, L2, L2AP, AP} {
		ix, err := New(kind, p, Options{})
		if err != nil {
			f.Fatal(err)
		}
		for _, it := range items[:36] {
			if _, err := ix.Add(it); err != nil {
				f.Fatal(err)
			}
		}
		for _, e := range []*EventTimeState{nil, et} {
			var buf bytes.Buffer
			if err := SaveFull(ix, e, &buf); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	probe := vec.MustNew([]uint32{1, 2, 5}, []float64{0.6, 0.64, 0.48})
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, _, err := LoadFull(bytes.NewReader(data), Options{})
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) && !errors.Is(err, apss.ErrBadParams) && !errors.Is(err, ErrKernel) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		now, _, _, _ := clockOf(ix)
		x := stream.Item{ID: ^uint64(0), Time: now, Vec: probe}
		if _, err := ix.Add(x); err != nil {
			t.Fatalf("restored index refused an item at its clock %v: %v", now, err)
		}
	})
}
