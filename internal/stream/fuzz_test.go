package stream

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"sssj/internal/vec"
)

// FuzzTextReader asserts the text parser never panics, that it decides
// every input as oracleText does — the same items bit for bit, the same
// error on the same line — that whatever it accepts has a finite
// timestamp and a valid vector, and that it round-trips through the
// writer.
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
	// Unicode spaces, which strings.Fields splits on and a byte scan
	// must decode to see, and invalid UTF-8, which it does not split on.
	f.Add("1 1:1\u00a02:1\n")
	f.Add("1\u0085 1:1\n")
	f.Add("1 1:1\u20282:1\n")
	f.Add("\u00a0# comment\n1 1:1\n")
	f.Add("1 1:1\xff 2:1\n1 2\xa0:1\n")
	// Every ASCII space, a CRLF file, and a value past 32 bytes.
	f.Add("1 1:1\r\n2\t2:1\v3:1\f4:1\r5:1\n")
	f.Add("\t \r\n\v#x\n")
	f.Add("1 1:0.500000000000000000000000000000000000001 2:0.5\n")
	f.Add("1.00000000000000000000000000000000000000000000 1:1\n")
	f.Fuzz(func(t *testing.T, input string) {
		for _, raw := range []bool{false, true} {
			tr := NewTextReader(strings.NewReader(input))
			tr.RawValues = raw
			got, err := Collect(tr)
			want, werr := oracleText(input, raw)
			if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
				t.Fatalf("raw=%v: error %v, oracle %v", raw, err, werr)
			}
			if len(got) != len(want) {
				t.Fatalf("raw=%v: %d items, oracle %d", raw, len(got), len(want))
			}
			for i := range got {
				if !sameItem(got[i], want[i]) {
					t.Fatalf("raw=%v: item %d is %+v, oracle %+v", raw, i, got[i], want[i])
				}
			}
		}
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

// sameItem reports bit-identical items.
func sameItem(a, b Item) bool {
	if a.ID != b.ID || math.Float64bits(a.Time) != math.Float64bits(b.Time) || a.Side != b.Side ||
		len(a.Vec.Dims) != len(b.Vec.Dims) || len(a.Vec.Vals) != len(b.Vec.Vals) {
		return false
	}
	for i := range a.Vec.Dims {
		if a.Vec.Dims[i] != b.Vec.Dims[i] || math.Float64bits(a.Vec.Vals[i]) != math.Float64bits(b.Vec.Vals[i]) {
			return false
		}
	}
	return true
}

// oracleText is the text parser as it was before TextReader scanned its
// lines in place: every line goes through strings.TrimSpace and
// strings.Fields. It collects the items up to the first error.
func oracleText(input string, raw bool) ([]Item, error) {
	sc := bufio.NewScanner(strings.NewReader(input))
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var out []Item
	var nextID uint64
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		it, err := oracleLine(text, raw)
		if err != nil {
			return out, fmt.Errorf("stream: line %d: %w", line, err)
		}
		it.ID = nextID
		nextID++
		out = append(out, it)
	}
	return out, sc.Err()
}

// oracleLine is oracleText's parse of one trimmed, non-comment line.
func oracleLine(text string, raw bool) (Item, error) {
	fields := strings.Fields(text)
	ts, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return Item{}, fmt.Errorf("bad timestamp %q: %w", fields[0], err)
	}
	if err := FiniteTime(ts); err != nil {
		return Item{}, err
	}
	dims := make([]uint32, 0, len(fields)-1)
	vals := make([]float64, 0, len(fields)-1)
	for _, f := range fields[1:] {
		colon := strings.IndexByte(f, ':')
		if colon <= 0 || colon == len(f)-1 {
			return Item{}, fmt.Errorf("bad coordinate %q", f)
		}
		d, err := strconv.ParseUint(f[:colon], 10, 32)
		if err != nil {
			return Item{}, fmt.Errorf("bad dimension %q: %w", f[:colon], err)
		}
		v, err := strconv.ParseFloat(f[colon+1:], 64)
		if err != nil {
			return Item{}, fmt.Errorf("bad value %q: %w", f[colon+1:], err)
		}
		dims = append(dims, uint32(d))
		vals = append(vals, v)
	}
	v, err := vec.Owned(dims, vals, !raw)
	if err != nil {
		return Item{}, err
	}
	return Item{Time: ts, Vec: v}, nil
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
