package stream

import (
	"bytes"
	"io"
	"math"
	"testing"
)

// FuzzTextReader asserts the text parser never panics, that whatever it
// accepts has a finite timestamp and a valid vector, and that it
// round-trips through the writer.
func FuzzTextReader(f *testing.F) {
	f.Add("1.0 1:0.5 2:0.5\n")
	f.Add("# comment\n\n2 7:1\n")
	f.Add("nan 1:1\n")
	f.Add("1 1:1\n+Inf 2:1\n")
	f.Add("-inf 1:1\n")
	f.Add("1 1:1e308 2:1e308\n")
	f.Add("0 2:1e308 2:1e308\n") // duplicate dims whose merged value overflows
	f.Add("1 4294967295:1\n")
	f.Add("1 1:-1\n")
	f.Add("0 0:0\n")
	f.Fuzz(func(t *testing.T, input string) {
		items, err := Collect(NewTextReader(bytes.NewReader([]byte(input))))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		for _, it := range items {
			if e := FiniteTime(it.Time); e != nil {
				t.Fatalf("accepted item %d: %v", it.ID, e)
			}
			if e := it.Vec.Validate(); e != nil {
				t.Fatalf("accepted invalid vector: %v", e)
			}
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, items); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		again, err := Collect(NewTextReader(&buf))
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if len(again) != len(items) {
			t.Fatalf("round trip changed count: %d vs %d", len(again), len(items))
		}
	})
}

// FuzzBinaryReader asserts the binary parser is total: any byte string
// either parses into items with finite timestamps and valid vectors or
// returns an error, without panics or unbounded allocation.
func FuzzBinaryReader(f *testing.F) {
	for _, ts := range []float64{1, math.Inf(1), math.NaN()} {
		var seed bytes.Buffer
		items := []Item{mkItem(0, 0, []uint32{2}, []float64{1}), mkItem(1, ts, []uint32{1, 5}, []float64{1, 2})}
		if err := WriteBinary(&seed, items); err != nil {
			f.Fatal(err)
		}
		f.Add(seed.Bytes())
	}
	f.Add([]byte("SSSJBIN1"))
	f.Add([]byte("SSSJBIN1\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, input []byte) {
		r := NewBinaryReader(bytes.NewReader(input))
		for i := 0; i < 1000; i++ {
			it, err := r.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				return
			}
			if e := FiniteTime(it.Time); e != nil {
				t.Fatalf("accepted item %d: %v", it.ID, e)
			}
			if e := it.Vec.Validate(); e != nil {
				t.Fatalf("accepted invalid vector: %v", e)
			}
		}
	})
}
