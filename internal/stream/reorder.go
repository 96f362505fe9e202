package stream

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"sssj/internal/apss"
)

// This file is the event-time layer of the package: a bounded-lateness
// reorder buffer that turns an almost-ordered arrival stream back into
// the strictly time-ordered stream every join operator assumes.
//
// The contract is the standard watermark model. Items may arrive up to
// δ (the lateness bound) behind the newest event time seen so far; the
// buffer holds them, and releases items in (Time, ID) order once the
// watermark
//
//	W = maxEventTimeSeen − δ
//
// has passed them — at which point no item that could sort before them
// can still arrive without being late. W is monotone by construction,
// so the released sequence is a valid input for the strict-order
// operators downstream. An item behind W is late: it is rejected with a
// typed LateError and the buffer state does not change. δ = 0
// degenerates to the paper's strict contract — every item is released
// immediately and any regression is late — on a fast path that touches
// no heap at all.
//
// For the two-stream foreign join the buffer runs in sided mode: each
// side keeps its own clock and W = min(maxA, maxB) − δ, the classic
// min-of-inputs watermark. Until both sides have been seen W is −∞ and
// everything buffers (an unseen side could still deliver arbitrarily
// old items); Flush drains the buffer at end of stream.

// LateError reports an item that arrived behind the watermark and was
// not admitted. It unwraps to ErrOutOfOrder, so existing
// errors.Is(err, ErrOutOfOrder) checks keep working.
type LateError struct {
	ID        uint64  // the offending item
	Time      float64 // its event time
	Watermark float64 // the watermark it fell behind
}

// Error implements error.
func (e *LateError) Error() string {
	return fmt.Sprintf("stream: item %d at t=%v behind watermark t=%v", e.ID, e.Time, e.Watermark)
}

// Unwrap ties LateError to the package's ordering error.
func (e *LateError) Unwrap() error { return ErrOutOfOrder }

// Reorder is the bounded-lateness reorder buffer. The zero value is not
// usable; construct with NewReorder or NewSidedReorder. Like every
// stream operator, it is driven from one goroutine.
type Reorder struct {
	delta float64
	sided bool
	// Per-side arrival clocks. Non-sided mode uses index 0 only; sided
	// mode maps SideA → 0, SideB → 1.
	seen [2]bool
	maxT [2]float64
	buf  reorderHeap
}

// NewReorder returns a reorder buffer with lateness bound delta ≥ 0 and
// a single arrival clock. delta = 0 is the strict in-order contract.
func NewReorder(delta float64) *Reorder { return &Reorder{delta: delta} }

// NewSidedReorder returns a reorder buffer for a two-stream input: each
// Side keeps its own arrival clock and the watermark is the min of the
// two minus delta (it stays −∞ until both sides have been seen).
func NewSidedReorder(delta float64) *Reorder { return &Reorder{delta: delta, sided: true} }

// Lateness returns the lateness bound δ.
func (r *Reorder) Lateness() float64 { return r.delta }

// Sided reports whether the buffer keeps per-side clocks.
func (r *Reorder) Sided() bool { return r.sided }

// Len returns the number of items currently buffered.
func (r *Reorder) Len() int { return len(r.buf) }

// Watermark returns the current watermark W: every item with
// Time ≤ W has been released, and an arriving item with Time < W is
// late. It is −∞ before any input (for sided buffers: before both
// sides have been seen).
func (r *Reorder) Watermark() float64 {
	if r.sided {
		if !r.seen[0] || !r.seen[1] {
			return math.Inf(-1)
		}
		return math.Min(r.maxT[0], r.maxT[1]) - r.delta
	}
	if !r.seen[0] {
		return math.Inf(-1)
	}
	return r.maxT[0] - r.delta
}

// sideIdx maps an item to its clock.
func (r *Reorder) sideIdx(it Item) int {
	if r.sided && it.Side == apss.SideB {
		return 1
	}
	return 0
}

// observe advances the item's side clock.
func (r *Reorder) observe(si int, t float64) {
	if !r.seen[si] || t > r.maxT[si] {
		r.seen[si] = true
		r.maxT[si] = t
	}
}

// Push admits the next arrival. If it is behind the watermark, a
// *LateError is returned and nothing changes. Otherwise the item is
// buffered, the watermark advances, and every buffered item the new
// watermark has passed is released into emit in (Time, ID) order.
//
// If emit returns an error, the release stops there: the erroring item
// is consumed, the rest stay buffered, and the error is returned.
func (r *Reorder) Push(it Item, emit func(Item) error) error {
	if !r.sided && r.delta == 0 {
		// Fast path: with δ = 0 the watermark is the newest time seen,
		// nothing ever buffers, and admission is exactly the strict
		// in-order check.
		if r.seen[0] && it.Time < r.maxT[0] {
			return &LateError{ID: it.ID, Time: it.Time, Watermark: r.maxT[0]}
		}
		r.seen[0] = true
		r.maxT[0] = it.Time
		return emit(it)
	}
	// A late item never advances a clock (its time is behind the
	// watermark, hence behind its side's max), so observing first is
	// equivalent to checking first — and an item can never be made late
	// by its own observation (t ≥ maxT[side] − δ ≥ W after it).
	r.observe(r.sideIdx(it), it.Time)
	w := r.Watermark()
	if it.Time < w {
		return &LateError{ID: it.ID, Time: it.Time, Watermark: w}
	}
	r.buf.push(it)
	return r.release(w, emit)
}

// AdvanceTo observes an external stream-clock heartbeat: a promise that
// every side's arrival clock has reached t, without an item to process.
// Clocks only move forward (a stale heartbeat is a no-op), the
// watermark advances to at least t − δ, and newly passed items are
// released into emit in (Time, ID) order.
func (r *Reorder) AdvanceTo(t float64, emit func(Item) error) error {
	n := 1
	if r.sided {
		n = 2
	}
	for i := 0; i < n; i++ {
		r.observe(i, t)
	}
	return r.release(r.Watermark(), emit)
}

// release pops and emits every buffered item with Time ≤ w.
func (r *Reorder) release(w float64, emit func(Item) error) error {
	for len(r.buf) > 0 && r.buf[0].Time <= w {
		if err := emit(r.buf.pop()); err != nil {
			return err
		}
	}
	return nil
}

// Flush drains every buffered item into emit in (Time, ID) order — the
// end-of-stream release, when no more arrivals can fill the gap the
// watermark was waiting on. The clocks are unchanged, so a post-Flush
// Push still enforces the same lateness bound.
func (r *Reorder) Flush(emit func(Item) error) error {
	for len(r.buf) > 0 {
		if err := emit(r.buf.pop()); err != nil {
			return err
		}
	}
	return nil
}

// ReorderState is the serializable snapshot of a Reorder, the
// event-time section of checkpoint format v5. Buffered is sorted by
// (Time, ID).
type ReorderState struct {
	Delta    float64
	Sided    bool
	Seen     [2]bool
	MaxT     [2]float64
	Buffered []Item
}

// State snapshots the buffer. The returned items are copies of the
// buffered headers; vectors are shared.
func (r *Reorder) State() ReorderState {
	st := ReorderState{Delta: r.delta, Sided: r.sided, Seen: r.seen, MaxT: r.maxT}
	st.Buffered = append([]Item(nil), r.buf...)
	sort.Slice(st.Buffered, func(a, b int) bool {
		if st.Buffered[a].Time != st.Buffered[b].Time {
			return st.Buffered[a].Time < st.Buffered[b].Time
		}
		return st.Buffered[a].ID < st.Buffered[b].ID
	})
	return st
}

// RestoreReorder rebuilds a Reorder from a snapshot.
func RestoreReorder(st ReorderState) *Reorder {
	r := &Reorder{delta: st.Delta, sided: st.Sided, seen: st.Seen, maxT: st.MaxT}
	r.buf = append(r.buf, st.Buffered...)
	for i := len(r.buf)/2 - 1; i >= 0; i-- {
		r.buf.down(i)
	}
	return r
}

// reorderHeap is a min-heap of items ordered by (Time, ID). It is typed
// rather than driven through container/heap, whose interface{} Push and
// Pop box every Item; the sift steps are container/heap's, so items
// tied on (Time, ID) leave in the same order.
type reorderHeap []Item

func (h reorderHeap) less(i, j int) bool {
	if h[i].Time != h[j].Time {
		return h[i].Time < h[j].Time
	}
	return h[i].ID < h[j].ID
}

// push adds it to the heap.
func (h *reorderHeap) push(it Item) {
	*h = append(*h, it)
	for j := len(*h) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !h.less(j, i) {
			break
		}
		(*h)[i], (*h)[j] = (*h)[j], (*h)[i]
		j = i
	}
}

// pop removes and returns the least item.
func (h *reorderHeap) pop() Item {
	old := *h
	n := len(old) - 1
	it := old[0]
	old[0] = old[n]
	old[n] = Item{} // drop the vector reference
	*h = old[:n]
	h.down(0)
	return it
}

// down sifts the item at i toward the leaves.
func (h reorderHeap) down(i int) {
	for {
		j := 2*i + 1 // left child
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// ShuffleWithin returns a deterministic within-δ perturbation of a
// time-sorted stream: the one stream-disorder generator shared by the
// oracle tests, the fuzz targets, and the perf harness.
//
// Each item i is assigned the jitter key k_i = t_i + u_i with u_i drawn
// uniformly from [0, δ] by a seeded generator, and the items are
// stable-sorted by key. The result is always admissible under lateness
// δ: if item y precedes item x in the shuffle then k_y ≤ k_x, so
// t_y ≤ k_y ≤ k_x ≤ t_x + δ — no item ever ends up more than δ behind
// a later-arriving time, hence a Reorder with the same δ drops nothing
// and re-sorting by (Time, ID) restores the input exactly. δ ≤ 0
// returns a copy of the input unchanged.
func ShuffleWithin(items []Item, delta float64, seed int64) []Item {
	out := append([]Item(nil), items...)
	if delta <= 0 || len(out) < 2 {
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	keys := make([]float64, len(out))
	for i, it := range out {
		keys[i] = it.Time + rng.Float64()*delta
	}
	idx := make([]int, len(out))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	shuffled := make([]Item, len(out))
	for i, j := range idx {
		shuffled[i] = out[j]
	}
	return shuffled
}
