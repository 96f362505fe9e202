package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"sssj/internal/vec"
)

func mkItem(id uint64, t float64, dims []uint32, vals []float64) Item {
	return Item{ID: id, Time: t, Vec: vec.MustNew(dims, vals).Normalize()}
}

func TestSliceSource(t *testing.T) {
	items := []Item{
		mkItem(0, 1, []uint32{1}, []float64{1}),
		mkItem(1, 2, []uint32{2}, []float64{1}),
	}
	s := NewSliceSource(items)
	got, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != 0 || got[1].ID != 1 {
		t.Fatalf("collect = %+v", got)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("want EOF got %v", err)
	}
	s.Reset()
	if it, err := s.Next(); err != nil || it.ID != 0 {
		t.Fatal("reset failed")
	}
}

func TestTextRoundTrip(t *testing.T) {
	items := []Item{
		mkItem(0, 0.5, []uint32{3, 7}, []float64{1, 2}),
		mkItem(1, 1.25, []uint32{1}, []float64{4}),
		mkItem(2, 9, []uint32{0, 2, 5}, []float64{0.1, 0.2, 0.3}),
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, items); err != nil {
		t.Fatal(err)
	}
	got, err := Collect(NewTextReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("got %d items", len(got))
	}
	for i := range items {
		if got[i].Time != items[i].Time {
			t.Fatalf("item %d time %v != %v", i, got[i].Time, items[i].Time)
		}
		if !got[i].Vec.IsUnit(1e-9) {
			t.Fatalf("item %d not normalized", i)
		}
		if vec.Dot(got[i].Vec, items[i].Vec) < 1-1e-9 {
			t.Fatalf("item %d direction changed", i)
		}
	}
}

func TestTextSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n1.0 2:0.5\n   \n# more\n2.0 3:1\n"
	got, err := Collect(NewTextReader(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d items", len(got))
	}
}

func TestTextMalformed(t *testing.T) {
	cases := []string{
		"notanumber 1:1\n",
		"1.0 xx\n",
		"1.0 1:\n",
		"1.0 :5\n",
		"1.0 a:5\n",
		"1.0 1:b\n",
		"1.0 -3:1\n",
	}
	for _, in := range cases {
		if _, err := Collect(NewTextReader(strings.NewReader(in))); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestTextStrictOrdering(t *testing.T) {
	in := "2.0 1:1\n1.0 2:1\n"
	tr := NewTextReader(strings.NewReader(in))
	tr.Strict = true
	_, err := Collect(tr)
	if !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("want ErrOutOfOrder got %v", err)
	}
	// non-strict accepts it
	if _, err := Collect(NewTextReader(strings.NewReader(in))); err != nil {
		t.Fatalf("non-strict rejected: %v", err)
	}
}

func TestTextRawValues(t *testing.T) {
	tr := NewTextReader(strings.NewReader("1.0 1:3 2:4\n"))
	tr.RawValues = true
	got, err := Collect(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Vec.Norm() != 5 {
		t.Fatalf("raw norm = %v", got[0].Vec.Norm())
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	items := []Item{
		mkItem(0, 0.5, []uint32{3, 7}, []float64{1, 2}),
		{ID: 1, Time: 1.5, Vec: vec.Vector{}}, // empty vector is legal
		mkItem(2, 2.75, []uint32{0, 9, 100000}, []float64{0.5, 0.25, 0.8}),
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, items); err != nil {
		t.Fatal(err)
	}
	got, err := Collect(NewBinaryReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("got %d items", len(got))
	}
	for i := range items {
		if got[i].Time != items[i].Time || !vec.Equal(got[i].Vec, items[i].Vec) {
			t.Fatalf("item %d mismatch: %+v vs %+v", i, got[i], items[i])
		}
		if got[i].ID != uint64(i) {
			t.Fatalf("item %d id = %d", i, got[i].ID)
		}
	}
}

func TestBinaryEmptyDataset(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := Collect(NewBinaryReader(&buf))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty dataset: %v %v", got, err)
	}
}

func TestBinaryFailureInjection(t *testing.T) {
	// bad magic
	_, err := Collect(NewBinaryReader(strings.NewReader("WRONGMAGIC")))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	// truncated header
	_, err = Collect(NewBinaryReader(strings.NewReader("SSSJ")))
	if err == nil {
		t.Fatal("truncated magic accepted")
	}
	// truncated record
	items := []Item{mkItem(0, 1, []uint32{1, 2}, []float64{1, 1})}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, items); err != nil {
		t.Fatal(err)
	}
	for cut := buf.Len() - 1; cut > 8; cut -= 5 {
		_, err := Collect(NewBinaryReader(bytes.NewReader(buf.Bytes()[:cut])))
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// oversized nnz claim
	bad := append([]byte{}, buf.Bytes()[:16]...)
	bad = append(bad, 0xff, 0xff, 0xff, 0xff) // nnz = 2^32-1
	_, err = Collect(NewBinaryReader(bytes.NewReader(bad)))
	if err == nil {
		t.Fatal("oversized nnz accepted")
	}
}

// TestBinaryHeaderOnlyRecordBoundedAlloc: a 20-byte file whose one
// record header claims the maximum nnz (2^24 coordinates, ~200 MB) and
// then ends must fail with io.ErrUnexpectedEOF after allocating for the
// bytes that arrived, not for the claim.
func TestBinaryHeaderOnlyRecordBoundedAlloc(t *testing.T) {
	b := append([]byte{}, binaryMagic[:]...)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1))
	b = binary.LittleEndian.AppendUint32(b, maxBinaryNNZ)
	if len(b) != 20 {
		t.Fatalf("file is %d bytes, want 20", len(b))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewBinaryReader(bytes.NewReader(b)).Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("header-only record: err=%v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("header-only record allocated %d bytes, want < 1 MiB", grew)
	}
}

func TestValidate(t *testing.T) {
	good := []Item{
		mkItem(0, 1, []uint32{1}, []float64{1}),
		mkItem(1, 2, []uint32{2}, []float64{1}),
	}
	if err := Validate(good, 1e-9); err != nil {
		t.Fatal(err)
	}
	unordered := []Item{good[1], good[0]}
	unordered[0].Time, unordered[1].Time = 5, 1
	if err := Validate(unordered, 1e-9); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("want ErrOutOfOrder got %v", err)
	}
	nonUnit := []Item{{Time: 1, Vec: vec.MustNew([]uint32{1}, []float64{2})}}
	if err := Validate(nonUnit, 1e-9); err == nil {
		t.Fatal("non-unit accepted")
	}
}

func TestComputeStats(t *testing.T) {
	items := []Item{
		mkItem(0, 10, []uint32{0, 4}, []float64{1, 1}),
		mkItem(1, 30, []uint32{9}, []float64{1}),
	}
	st := ComputeStats(items)
	if st.N != 2 || st.M != 10 || st.NNZ != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.AvgNNZ != 1.5 || st.Duration != 20 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Density != 3.0/20.0 {
		t.Fatalf("density = %v", st.Density)
	}
	if ComputeStats(nil).N != 0 {
		t.Fatal("empty stats")
	}
}

func randomItems(r *rand.Rand, n int) []Item {
	items := make([]Item, n)
	tm := 0.0
	for i := range items {
		tm += r.Float64()
		nnz := 1 + r.Intn(8)
		m := map[uint32]float64{}
		for j := 0; j < nnz; j++ {
			m[uint32(r.Intn(64))] = r.Float64() + 0.05
		}
		items[i] = Item{ID: uint64(i), Time: tm, Vec: vec.FromMap(m).Normalize()}
	}
	return items
}

func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		items := randomItems(r, 1+r.Intn(30))
		var buf bytes.Buffer
		if err := WriteBinary(&buf, items); err != nil {
			return false
		}
		got, err := Collect(NewBinaryReader(&buf))
		if err != nil || len(got) != len(items) {
			return false
		}
		for i := range items {
			if got[i].Time != items[i].Time || !vec.Equal(got[i].Vec, items[i].Vec) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTextRoundTripDirection(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		items := randomItems(r, 1+r.Intn(20))
		var buf bytes.Buffer
		if err := WriteText(&buf, items); err != nil {
			return false
		}
		got, err := Collect(NewTextReader(&buf))
		if err != nil || len(got) != len(items) {
			return false
		}
		for i := range items {
			if vec.Dot(got[i].Vec, items[i].Vec) < 1-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTextReaderAllocations: Next allocates the item's dims and vals and
// nothing else on an ASCII line.
func TestTextReaderAllocations(t *testing.T) {
	var in strings.Builder
	for i := range 2000 {
		fmt.Fprintf(&in, "%d 3:0.25 17:0.5 120:0.125 4000:1.5e-3 65537:0.75\n", i)
	}
	tr := NewTextReader(strings.NewReader(in.String()))
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := tr.Next(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 2 {
		t.Fatalf("Next allocates %v objects per line, want 2 (dims and vals)", allocs)
	}
}
