package streaming

import (
	"bytes"
	"errors"
	"testing"

	"sssj/internal/apss"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// This file pins the checkpoint loader's backward compatibility: version
// 3 changed the posting-list framing from a flat entry count to arena
// blocks, so v1 and v2 files (one entry count per list) are crafted
// byte-for-byte here and must keep loading into the arena-backed
// indexes.

// writeOldHeader emits the magic, version, and per-index header of the
// v1/v2 formats.
func writeOldHeader(cw *ckptWriter, version uint32, kind Kind, p apss.Params, now float64, begun bool) {
	cw.bytes(ckptMagic[:])
	cw.u32(version)
	cw.u8(uint8(kind))
	cw.f64(p.Theta)
	cw.f64(p.Lambda)
	cw.u8(1) // default kernel
	cw.f64(now)
	cw.u8(boolByte(begun))
	if version >= 2 {
		cw.f64(now) // sweep clock last
		cw.u8(boolByte(begun))
	}
}

func TestLoadV2InvCheckpoint(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.05}
	var buf bytes.Buffer
	cw := &ckptWriter{w: &buf}
	writeOldHeader(cw, 2, INV, p, 3.0, true)
	// Two posting lists in the old flat framing: dim → count → entries.
	cw.u32(2)
	cw.u32(7) // dim 7: items 1@1.0 and 2@2.0
	cw.u32(2)
	cw.u64(1)
	cw.f64(1.0)
	cw.f64(0.8)
	cw.u64(2)
	cw.f64(2.0)
	cw.f64(0.6)
	cw.u32(9) // dim 9: item 2@2.0
	cw.u32(1)
	cw.u64(2)
	cw.f64(2.0)
	cw.f64(0.8)
	if cw.err != nil {
		t.Fatal(cw.err)
	}

	ix, err := Load(bytes.NewReader(buf.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := ix.Size(); s.PostingEntries != 3 || s.Lists != 2 {
		t.Fatalf("restored size %+v", s)
	}
	// Item 2's entries across the two lists must share one slot: a probe
	// over both dims accumulates one candidate with the full dot.
	ms, err := ix.Add(stream.Item{ID: 5, Time: 3.5,
		Vec: vec.MustNew([]uint32{7, 9}, []float64{0.6, 0.8})})
	if err != nil {
		t.Fatal(err)
	}
	var m2 *apss.Match
	for i := range ms {
		if ms[i].Y == 2 {
			if m2 != nil {
				t.Fatalf("item 2 matched twice: %v", ms)
			}
			m2 = &ms[i]
		}
	}
	if m2 == nil {
		t.Fatalf("pair with restored item 2 lost: %v", ms)
	}
	if want := 0.6*0.6 + 0.8*0.8; m2.Dot != want {
		t.Fatalf("dot = %v, want %v (entries not merged onto one slot)", m2.Dot, want)
	}
}

// TestLoadV2EngineCheckpoint re-encodes a live L2AP engine's state in
// the v2 flat framing and verifies the restored index continues the
// stream bit-identically to the uninterrupted engine.
func TestLoadV2EngineCheckpoint(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.05}
	items := fuzzItems(6, 120)
	split := 60
	ref, err := New(L2AP, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items[:split] {
		if _, err := ref.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	e, ok := ref.(*engine)
	if !ok {
		t.Fatalf("want *engine, got %T", ref)
	}

	// Hand-serialize e in the v2 format: flat per-list entry counts
	// instead of block framing; everything after the lists is unchanged
	// across versions.
	var buf bytes.Buffer
	cw := &ckptWriter{w: &buf}
	writeV2EngineHeader(cw, e)
	cw.u32(uint32(len(e.lists)))
	for d, ch := range e.lists {
		cw.u32(d)
		cw.u32(uint32(ch.n))
		e.ar.ascend(ch, func(ai int) {
			cw.u64(e.slots.id[e.ar.slot[ai]])
			cw.f64(e.ar.t[ai])
			cw.f64(e.ar.val[ai])
			cw.f64(e.ar.pnorm[ai])
		})
	}
	writeOldRes(cw, e)
	cw.u32(uint32(len(e.m)))
	for d, val := range e.m {
		cw.u32(d)
		cw.f64(val)
	}
	cw.u32(uint32(len(e.mhatVal)))
	for d, val := range e.mhatVal {
		cw.u32(d)
		cw.f64(val)
		cw.f64(e.mhatT[d])
	}
	saveTouch(cw, e.lastTouch)
	if cw.err != nil {
		t.Fatal(cw.err)
	}

	restored, err := Load(bytes.NewReader(buf.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Size() != ref.Size() {
		t.Fatalf("restored size %+v, want %+v", restored.Size(), ref.Size())
	}
	for _, it := range items[split:] {
		want, err1 := ref.Add(it)
		got, err2 := restored.Add(it)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !equalMatchesExact(got, want) {
			t.Fatalf("v2-restored run diverged: %v vs %v", got, want)
		}
	}
}

// writeOldRes serializes a residual direct index in the pre-v4 format,
// which carried no per-item side byte.
func writeOldRes(cw *ckptWriter, e *engine) {
	cw.u32(uint32(e.order.Len()))
	e.ascendRes(func(sl uint32, m *smeta) {
		cw.u64(e.slots.id[sl])
		cw.f64(m.t)
		cw.u32(uint32(m.boundary))
		cw.f64(m.q)
		cw.u32(uint32(m.vec.NNZ()))
		for i := range m.vec.Dims {
			cw.u32(m.vec.Dims[i])
			cw.f64(m.vec.Vals[i])
		}
	})
}

// writeV2EngineHeader emits the v2 header for a sequential L2AP engine,
// cloning its live clock state.
func writeV2EngineHeader(cw *ckptWriter, e *engine) {
	cw.bytes(ckptMagic[:])
	cw.u32(2)
	cw.u8(uint8(engineKind(e.useAP, e.useL2)))
	cw.f64(e.p.Theta)
	cw.f64(e.p.Lambda)
	cw.u8(1) // default kernel
	cw.f64(e.now)
	cw.u8(boolByte(e.begun))
	cw.f64(e.clock.last)
	cw.u8(boolByte(e.clock.swept))
}

// TestLoadV3IntoForeignEngine crafts a version-3 (pre-side) INV
// checkpoint byte for byte and loads it with Foreign enabled: every
// restored item must default to side A, so a side-B probe matches the
// history while a side-A probe is gated out.
func TestLoadV3IntoForeignEngine(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.05}
	var buf bytes.Buffer
	cw := &ckptWriter{w: &buf}
	cw.bytes(ckptMagic[:])
	cw.u32(3)
	cw.u8(uint8(INV))
	cw.f64(p.Theta)
	cw.f64(p.Lambda)
	cw.u8(1) // default kernel
	cw.f64(2.0)
	cw.u8(1) // begun
	cw.f64(2.0)
	cw.u8(1)
	// One list in v3 block framing: dim 7 → 1 block → 2 entries.
	cw.u32(1)
	cw.u32(7)
	cw.u32(1)
	cw.u32(2)
	cw.u64(1)
	cw.f64(1.0)
	cw.f64(1.0)
	cw.u64(2)
	cw.f64(2.0)
	cw.f64(1.0)
	if cw.err != nil {
		t.Fatal(cw.err)
	}

	ix, err := Load(bytes.NewReader(buf.Bytes()), Options{Foreign: true})
	if err != nil {
		t.Fatal(err)
	}
	// A side-B probe sees the restored (side A) history…
	ms, err := ix.Add(stream.Item{ID: 10, Time: 2.5, Side: apss.SideB, Vec: unit([]uint32{7}, []float64{1})})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("side-B probe matched %v, want both restored side-A items", ms)
	}
	// …while a side-A probe is gated off the history but matches the B item.
	ms, err = ix.Add(stream.Item{ID: 11, Time: 2.6, Side: apss.SideA, Vec: unit([]uint32{7}, []float64{1})})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Y != 10 {
		t.Fatalf("side-A probe matched %v, want only the side-B item", ms)
	}
}

// TestV4SideBitsRoundTripRecycledSlots drives a foreign join far enough
// that horizon expiry recycles item slots, checkpoints mid-stream, and
// requires the restored run to continue bit-identically — the side bit
// of a recycled slot's new owner must not leak into a stale incarnation
// or vice versa. Covered for the INV index (slot recycling via the live
// ring) and the L2AP engine (recycling via residual expiry, plus m/m̂λ).
func TestV4SideBitsRoundTripRecycledSlots(t *testing.T) {
	p := apss.Params{Theta: 0.55, Lambda: 0.4} // short horizon → heavy recycling
	items := fuzzItems(9, 300)
	for i := range items {
		if i%2 == 1 {
			items[i].Side = apss.SideB
		}
	}
	for _, kind := range []Kind{INV, L2AP} {
		ref, err := New(kind, p, Options{Foreign: true})
		if err != nil {
			t.Fatal(err)
		}
		var want []apss.Match
		for _, it := range items {
			ms, err := ref.Add(it)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, ms...)
		}

		split := 150
		live, err := New(kind, p, Options{Foreign: true})
		if err != nil {
			t.Fatal(err)
		}
		var got []apss.Match
		for _, it := range items[:split] {
			ms, err := live.Add(it)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, ms...)
		}
		// The short horizon must actually have recycled slots, or the
		// test is vacuous.
		switch v := live.(type) {
		case *invIndex:
			if len(v.slots.free) == 0 && v.slots.span() >= split {
				t.Fatal("no slot recycling before checkpoint; shorten the horizon")
			}
		case *engine:
			if len(v.slots.free) == 0 && v.slots.span() >= split {
				t.Fatal("no slot recycling before checkpoint; shorten the horizon")
			}
		}
		var buf bytes.Buffer
		if err := Save(live, &buf); err != nil {
			t.Fatal(err)
		}
		restored, err := Load(bytes.NewReader(buf.Bytes()), Options{Foreign: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items[split:] {
			ms, err := restored.Add(it)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, ms...)
		}
		if !equalMatchesExact(got, want) {
			t.Fatalf("%v: restored foreign run diverged: %d vs %d matches", kind, len(got), len(want))
		}
	}
}

// TestLoadRejectsBadSideByte pins the v4 validation: a side byte other
// than A/B would cross-match both streams under CrossSide, so the file
// must be rejected, not loaded.
func TestLoadRejectsBadSideByte(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.05}
	var buf bytes.Buffer
	cw := &ckptWriter{w: &buf}
	cw.bytes(ckptMagic[:])
	cw.u32(4)
	cw.u8(uint8(INV))
	cw.f64(p.Theta)
	cw.f64(p.Lambda)
	cw.u8(1) // default kernel
	cw.f64(1.0)
	cw.u8(1)
	cw.f64(1.0)
	cw.u8(1)
	cw.u32(1) // one list: dim 7, one block, one entry with side byte 7
	cw.u32(7)
	cw.u32(1)
	cw.u32(1)
	cw.u64(3)
	cw.f64(1.0)
	cw.f64(1.0)
	cw.u8(7)
	if cw.err != nil {
		t.Fatal(cw.err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()), Options{Foreign: true}); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("bad side byte accepted: %v", err)
	}
}

func TestLoadV1StillSupported(t *testing.T) {
	p := apss.Params{Theta: 0.5, Lambda: 0.1}
	var buf bytes.Buffer
	cw := &ckptWriter{w: &buf}
	writeOldHeader(cw, 1, INV, p, 1.0, true)
	cw.u32(1)
	cw.u32(3)
	cw.u32(1)
	cw.u64(7)
	cw.f64(1.0)
	cw.f64(1.0)
	if cw.err != nil {
		t.Fatal(cw.err)
	}
	ix, err := Load(bytes.NewReader(buf.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := ix.Add(stream.Item{ID: 8, Time: 1.2, Vec: unit([]uint32{3}, []float64{1})})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Y != 7 {
		t.Fatalf("v1 entry lost: %v", ms)
	}
}
