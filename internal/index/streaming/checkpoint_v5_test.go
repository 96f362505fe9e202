package streaming

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"

	"sssj/internal/apss"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// This file pins the version-5 checkpoint format: the event-time
// section. A v4 file (no presence byte) must keep loading with no
// event-time state; a v5 file round-trips the reorder stage exactly;
// corrupt sections are rejected.

// TestLoadV4HasNoEventTimeState crafts a v4 INV checkpoint byte for
// byte (block framing + side bytes, no event-time presence byte) and
// checks LoadFull restores it with a nil event-time state.
func TestLoadV4HasNoEventTimeState(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.05}
	var buf bytes.Buffer
	cw := &ckptWriter{w: &buf}
	cw.bytes(ckptMagic[:])
	cw.u32(4)
	cw.u8(uint8(INV))
	cw.f64(p.Theta)
	cw.f64(p.Lambda)
	cw.u8(1) // default kernel
	cw.f64(2.0)
	cw.u8(1) // begun
	cw.f64(2.0)
	cw.u8(1)  // sweep clock
	cw.u32(1) // one list
	cw.u32(7) // dim 7
	cw.u32(1) // one block
	cw.u32(1) // one entry: item 1@1.0, side B
	cw.u64(1)
	cw.f64(1.0)
	cw.f64(1.0)
	cw.u8(uint8(apss.SideB))
	if cw.err != nil {
		t.Fatal(cw.err)
	}

	ix, et, err := LoadFull(bytes.NewReader(buf.Bytes()), Options{Foreign: true})
	if err != nil {
		t.Fatal(err)
	}
	if et != nil {
		t.Fatalf("v4 file produced event-time state %+v", et)
	}
	if s := ix.Size(); s.PostingEntries != 1 {
		t.Fatalf("restored size %+v", s)
	}
	// The side byte must have survived: a side-A probe matches, a side-B
	// probe is gated out.
	v := vec.MustNew([]uint32{7}, []float64{1})
	ms, err := ix.Add(stream.Item{ID: 5, Time: 2.5, Vec: v, Side: apss.SideA})
	if err != nil || len(ms) != 1 {
		t.Fatalf("cross-side probe: %v, %v", ms, err)
	}
	ms, err = ix.Add(stream.Item{ID: 6, Time: 2.6, Vec: v, Side: apss.SideB})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Y == 1 {
			t.Fatalf("same-side pair reported: %v", ms)
		}
	}
}

// TestSaveFullRoundTripsEventTimeState checkpoints an index together
// with a populated reorder state — sided, both clocks set, two buffered
// items — and checks LoadFull returns it deep-equal.
func TestSaveFullRoundTripsEventTimeState(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.05}
	ix, err := New(L2, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range fuzzItems(21, 40) {
		if _, err := ix.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	reo := stream.NewSidedReorder(3)
	noop := func(stream.Item) error { return nil }
	items := []stream.Item{
		{ID: 100, Time: 50, Side: apss.SideA, Vec: vec.MustNew([]uint32{1}, []float64{1})},
		{ID: 101, Time: 51.5, Side: apss.SideB, Vec: vec.MustNew([]uint32{2, 5}, []float64{0.6, 0.8})},
		{ID: 102, Time: 50.5, Side: apss.SideA, Vec: vec.MustNew([]uint32{3}, []float64{1})},
	}
	for _, it := range items {
		if err := reo.Push(it, noop); err != nil {
			t.Fatal(err)
		}
	}
	st := reo.State()
	if len(st.Buffered) == 0 {
		t.Fatal("degenerate test: nothing buffered")
	}

	var buf bytes.Buffer
	if err := SaveFull(ix, &st, &buf); err != nil {
		t.Fatal(err)
	}
	ix2, et, err := LoadFull(bytes.NewReader(buf.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if et == nil {
		t.Fatal("event-time state lost")
	}
	if !reflect.DeepEqual(*et, st) {
		t.Fatalf("state round-trip mismatch:\ngot  %+v\nwant %+v", *et, st)
	}
	if ix2.Size() != ix.Size() {
		t.Fatalf("index size %+v, want %+v", ix2.Size(), ix.Size())
	}
	// The restored reorder continues exactly: same watermark, same
	// release sequence on a drain.
	reo2 := stream.RestoreReorder(*et)
	if reo2.Watermark() != reo.Watermark() {
		t.Fatalf("watermark %v, want %v", reo2.Watermark(), reo.Watermark())
	}
	var a, b []stream.Item
	if err := reo.Flush(func(it stream.Item) error { a = append(a, it); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := reo2.Flush(func(it stream.Item) error { b = append(b, it); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("drain diverged:\ngot  %+v\nwant %+v", b, a)
	}
}

// TestSavePlainWritesAbsentSection: the slice-free Save must stay
// loadable by old-style Load and carry no event-time state.
func TestSavePlainWritesAbsentSection(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.05}
	ix, err := New(INV, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(ix, &buf); err != nil {
		t.Fatal(err)
	}
	_, et, err := LoadFull(bytes.NewReader(buf.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if et != nil {
		t.Fatalf("plain Save produced event-time state %+v", et)
	}
}

// TestLoadRejectsBadEventTimeSection: negative lateness and out-of-range
// side bytes in the section are corrupt files, not panics.
func TestLoadRejectsBadEventTimeSection(t *testing.T) {
	write := func(delta float64, side uint8) []byte {
		var buf bytes.Buffer
		cw := &ckptWriter{w: &buf}
		cw.bytes(ckptMagic[:])
		cw.u32(5)
		cw.u8(1) // event-time present
		cw.f64(delta)
		cw.u8(0)
		cw.u8(1)
		cw.u8(0)
		cw.f64(10)
		cw.f64(math.Inf(-1))
		cw.u32(1) // one buffered item
		cw.u64(9)
		cw.f64(9.5)
		cw.u8(side)
		cw.u32(1)
		cw.u32(3)
		cw.f64(1)
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name  string
		delta float64
		side  uint8
	}{
		{"negative delta", -1, 0},
		{"NaN delta", math.NaN(), 0},
		{"bad side", 2, 7},
	} {
		if _, _, err := LoadFull(bytes.NewReader(write(tc.delta, tc.side)), Options{}); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("%s: got %v", tc.name, err)
		}
	}
}

// TestLoadBoundsClaimedCoordinates: a residual or buffered item whose
// header claims 2²⁴ coordinates and whose payload then ends must fail
// with a typed error, and must not have allocated for the claim (two
// 2²⁴-element slices would be 192 MiB).
func TestLoadBoundsClaimedCoordinates(t *testing.T) {
	const claim = 1 << 24
	header := func(cw *ckptWriter, eventTime bool) {
		cw.bytes(ckptMagic[:])
		cw.u32(ckptVersion)
		if !eventTime {
			cw.u8(0)
			return
		}
		cw.u8(1)
		cw.f64(2) // lateness
		cw.u8(0)
		cw.u8(1)
		cw.u8(0)
		cw.f64(10)
		cw.f64(math.Inf(-1))
		cw.u32(1) // one buffered item
		cw.u64(9)
		cw.f64(9.5)
		cw.u8(0)
		cw.u32(claim)
		cw.u32(3)
		cw.f64(1)
	}
	residual := func() []byte {
		var buf bytes.Buffer
		cw := &ckptWriter{w: &buf}
		header(cw, false)
		saveHeader(cw, L2, apss.Params{Theta: 0.5, Lambda: 0.1}, apss.Exponential{Lambda: 0.1}, 10, true, sweepClock{last: 10, swept: true})
		cw.u32(0) // no posting lists
		cw.u32(1) // one residual
		cw.u64(7)
		cw.f64(9)
		cw.u32(0) // boundary
		cw.f64(0) // q
		cw.u32(claim)
		cw.u32(3)
		cw.f64(1)
		return buf.Bytes()
	}
	buffered := func() []byte {
		var buf bytes.Buffer
		header(&ckptWriter{w: &buf}, true)
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		{"residual", residual()},
		{"buffered item", buffered()},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := LoadFull(bytes.NewReader(tc.raw), Options{})
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadCheckpoint) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: got %v, want ErrBadCheckpoint or io.ErrUnexpectedEOF", tc.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%s: a truncated %d-coordinate claim allocated %d bytes", tc.name, claim, grew)
		}
	}
}
