package stream

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sssj/internal/apss"
)

// collect returns an emit func appending to *dst.
func collectItems(dst *[]Item) func(Item) error {
	return func(it Item) error {
		*dst = append(*dst, it)
		return nil
	}
}

func TestReorderZeroDeltaIsStrictOrder(t *testing.T) {
	r := NewReorder(0)
	var out []Item
	emit := collectItems(&out)
	for i, tm := range []float64{1, 2, 2, 5} {
		if err := r.Push(Item{ID: uint64(i), Time: tm}, emit); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if len(out) != 4 {
		t.Fatalf("δ=0 must release immediately, got %d of 4", len(out))
	}
	if r.Len() != 0 {
		t.Fatalf("δ=0 must buffer nothing, Len=%d", r.Len())
	}
	err := r.Push(Item{ID: 9, Time: 4}, emit)
	var le *LateError
	if !errors.As(err, &le) {
		t.Fatalf("regression: want *LateError, got %v", err)
	}
	if !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("LateError must unwrap to ErrOutOfOrder")
	}
	if le.ID != 9 || le.Time != 4 || le.Watermark != 5 {
		t.Fatalf("bad LateError fields: %+v", le)
	}
	if w := r.Watermark(); w != 5 {
		t.Fatalf("watermark after t=5: got %v", w)
	}
}

func TestReorderReleasesSortedWithinDelta(t *testing.T) {
	// Arrival order is shuffled within δ=3; releases must come out in
	// (Time, ID) order and cover everything after Flush.
	arrivals := []Item{
		{ID: 0, Time: 2}, {ID: 1, Time: 0}, {ID: 2, Time: 3},
		{ID: 3, Time: 1}, {ID: 4, Time: 6}, {ID: 5, Time: 4},
		{ID: 6, Time: 6}, {ID: 7, Time: 9},
	}
	r := NewReorder(3)
	var out []Item
	emit := collectItems(&out)
	for _, it := range arrivals {
		if err := r.Push(it, emit); err != nil {
			t.Fatalf("push %d: %v", it.ID, err)
		}
	}
	if err := r.Flush(emit); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if len(out) != len(arrivals) {
		t.Fatalf("released %d of %d", len(out), len(arrivals))
	}
	for i := 1; i < len(out); i++ {
		a, b := out[i-1], out[i]
		if a.Time > b.Time || (a.Time == b.Time && a.ID > b.ID) {
			t.Fatalf("release out of order at %d: %+v then %+v", i, a, b)
		}
	}
}

func TestReorderDropsLateItem(t *testing.T) {
	r := NewReorder(2)
	var out []Item
	emit := collectItems(&out)
	for _, it := range []Item{{ID: 0, Time: 0}, {ID: 1, Time: 10}} {
		if err := r.Push(it, emit); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	// Watermark is 10-2=8; t=5 is late.
	before := r.Len()
	err := r.Push(Item{ID: 2, Time: 5}, emit)
	var le *LateError
	if !errors.As(err, &le) {
		t.Fatalf("want *LateError, got %v", err)
	}
	if le.Watermark != 8 || le.Time != 5 || le.ID != 2 {
		t.Fatalf("bad LateError: %+v", le)
	}
	if r.Len() != before {
		t.Fatalf("late item must not change the buffer")
	}
	// t=8 equals the watermark: not late (late means strictly behind).
	if err := r.Push(Item{ID: 3, Time: 8}, emit); err != nil {
		t.Fatalf("t=watermark must be admitted: %v", err)
	}
}

func TestSidedReorderMinOfSides(t *testing.T) {
	r := NewSidedReorder(1)
	if !math.IsInf(r.Watermark(), -1) {
		t.Fatalf("empty sided watermark must be -Inf")
	}
	var out []Item
	emit := collectItems(&out)
	// Only side A seen: watermark stays -Inf, everything buffers.
	for i, tm := range []float64{1, 5, 9} {
		if err := r.Push(Item{ID: uint64(i), Time: tm, Side: apss.SideA}, emit); err != nil {
			t.Fatalf("push A: %v", err)
		}
	}
	if len(out) != 0 || !math.IsInf(r.Watermark(), -1) {
		t.Fatalf("one-sided input must stall: released=%d W=%v", len(out), r.Watermark())
	}
	// First B item at t=6: W = min(9, 6) - 1 = 5 → releases t=1 and t=5.
	if err := r.Push(Item{ID: 10, Time: 6, Side: apss.SideB}, emit); err != nil {
		t.Fatalf("push B: %v", err)
	}
	if w := r.Watermark(); w != 5 {
		t.Fatalf("watermark: got %v want 5", w)
	}
	if len(out) != 2 || out[0].Time != 1 || out[1].Time != 5 {
		t.Fatalf("releases after B: %+v", out)
	}
	// An A item behind W is late even though side A's clock is ahead.
	if err := r.Push(Item{ID: 11, Time: 4, Side: apss.SideA}, emit); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("late A item: got %v", err)
	}
	if err := r.Flush(emit); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if len(out) != 4 {
		t.Fatalf("flush must drain the rest, got %d", len(out))
	}
}

func TestReorderAdvanceTo(t *testing.T) {
	r := NewReorder(2)
	var out []Item
	emit := collectItems(&out)
	if err := r.Push(Item{ID: 0, Time: 3}, emit); err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("t=3 must wait for W ≥ 3")
	}
	if err := r.AdvanceTo(7, emit); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || r.Watermark() != 5 {
		t.Fatalf("heartbeat at 7: released=%d W=%v", len(out), r.Watermark())
	}
	// Stale heartbeats never regress the clock.
	if err := r.AdvanceTo(1, emit); err != nil {
		t.Fatal(err)
	}
	if r.Watermark() != 5 {
		t.Fatalf("stale heartbeat moved the watermark to %v", r.Watermark())
	}
}

func TestShuffleWithinIsAdmissibleAndLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		items := make([]Item, n)
		tm := 0.0
		for i := range items {
			tm += rng.Float64() * 3
			items[i] = Item{ID: uint64(i), Time: tm}
		}
		delta := rng.Float64() * 10
		shuffled := ShuffleWithin(items, delta, int64(trial))
		r := NewReorder(delta)
		var out []Item
		emit := collectItems(&out)
		for _, it := range shuffled {
			if err := r.Push(it, emit); err != nil {
				t.Fatalf("trial %d: admissible shuffle produced a late item: %v", trial, err)
			}
		}
		if err := r.Flush(emit); err != nil {
			t.Fatalf("trial %d: flush: %v", trial, err)
		}
		if !reflect.DeepEqual(out, items) {
			t.Fatalf("trial %d: reorder(shuffle) != identity", trial)
		}
	}
}

func TestShuffleWithinDeterministic(t *testing.T) {
	items := make([]Item, 40)
	for i := range items {
		items[i] = Item{ID: uint64(i), Time: float64(i)}
	}
	a := ShuffleWithin(items, 5, 42)
	b := ShuffleWithin(items, 5, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must give the same shuffle")
	}
	c := ShuffleWithin(items, 5, 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should perturb differently")
	}
	if got := ShuffleWithin(items, 0, 42); !reflect.DeepEqual(got, items) {
		t.Fatal("δ=0 shuffle must be the identity")
	}
}

func TestReorderStateRoundTrip(t *testing.T) {
	arrivals := []Item{
		{ID: 0, Time: 2}, {ID: 1, Time: 0}, {ID: 2, Time: 7},
		{ID: 3, Time: 5}, {ID: 4, Time: 9}, {ID: 5, Time: 8},
	}
	run := func(split int) []Item {
		r := NewReorder(4)
		var out []Item
		emit := collectItems(&out)
		for i, it := range arrivals {
			if i == split {
				r = RestoreReorder(r.State())
			}
			if err := r.Push(it, emit); err != nil {
				t.Fatalf("push: %v", err)
			}
		}
		if err := r.Flush(emit); err != nil {
			t.Fatalf("flush: %v", err)
		}
		return out
	}
	want := run(-1)
	for split := 0; split <= len(arrivals); split++ {
		if got := run(split); !reflect.DeepEqual(got, want) {
			t.Fatalf("split %d: state round-trip changed the release sequence", split)
		}
	}
}

// TestReorderAllocations: with δ > 0 a steady stream of Push calls and
// the releases they trigger allocates nothing once the buffer is warm.
func TestReorderAllocations(t *testing.T) {
	r := NewReorder(20)
	shuffled := ShuffleWithin(func() []Item {
		items := make([]Item, 4000)
		for i := range items {
			items[i] = Item{ID: uint64(i), Time: float64(i) / 4}
		}
		return items
	}(), 20, 1)
	emit := func(Item) error { return nil }
	n := 0
	push := func() {
		if err := r.Push(shuffled[n], emit); err != nil {
			t.Fatal(err)
		}
		n++
	}
	for range 1000 {
		push()
	}
	if allocs := testing.AllocsPerRun(2000, push); allocs != 0 {
		t.Fatalf("Push allocates %v objects per item", allocs)
	}
}
