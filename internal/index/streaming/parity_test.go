package streaming

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sssj/internal/apss"
	"sssj/internal/metrics"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// This file holds the arena-vs-ring oracle tests: the frozen ring-backed
// implementations in ring_test.go are fed the same streams as the arena-backed
// engines New returns, and the outputs must agree bit for bit, with
// identical SizeInfo accounting at every step.

// newRingIndex builds the ring-backed reference for kind.
func newRingIndex(t testing.TB, kind Kind, p apss.Params) SinkIndex {
	t.Helper()
	kernel := apss.Exponential{Lambda: p.Lambda}
	c := &metrics.Counters{}
	switch kind {
	case INV:
		return newRingInv(p, kernel, c)
	case L2:
		return newRingEngine(p, kernel, false, true, Ablations{}, c)
	case L2AP:
		return newRingEngine(p, kernel, true, true, Ablations{}, c)
	case AP:
		return newRingEngine(p, kernel, true, false, Ablations{}, c)
	default:
		t.Fatalf("no ring reference for kind %v", kind)
		return nil
	}
}

// runParity feeds items to the ring oracle and an arena index built with
// the given worker count, comparing matches (bit for bit) and SizeInfo
// after every item.
func runParity(t *testing.T, kind Kind, p apss.Params, workers int, items []stream.Item) {
	t.Helper()
	ring := newRingIndex(t, kind, p)
	arena, err := newTestIndex(kind, p, Options{}, workers)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		wantMs, err1 := ring.Add(it)
		gotMs, err2 := arena.Add(it)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("item %d: error divergence ring=%v arena=%v", i, err1, err2)
		}
		if !equalMatchesExact(gotMs, wantMs) {
			t.Fatalf("item %d: matches not bit-identical: arena %v ring %v", i, gotMs, wantMs)
		}
		if rs, as := ring.Size(), arena.Size(); rs != as {
			t.Fatalf("item %d: SizeInfo diverged: ring %+v arena %+v", i, rs, as)
		}
	}
}

// TestRingArenaParity is the standing property test of the arena
// migration: identical random streams through the ring-backed and
// arena-backed indexes across θ × horizon (λ drives both the horizon
// and the sweep cadence, which fires once per τ) × worker counts, for
// both a dense near-duplicate stream and a dimension-churn stream,
// asserting identical match sets and SizeInfo accounting.
func TestRingArenaParity(t *testing.T) {
	for _, kind := range []Kind{INV, L2, L2AP, AP} {
		for _, p := range []apss.Params{
			{Theta: 0.4, Lambda: 0.01}, // long horizon, rare sweeps
			{Theta: 0.6, Lambda: 0.05},
			{Theta: 0.8, Lambda: 0.3}, // short horizon, frequent sweeps
		} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%v/theta=%g/lambda=%g/w=%d", kind, p.Theta, p.Lambda, workers)
				t.Run(name, func(t *testing.T) {
					for seed := int64(0); seed < 3; seed++ {
						runParity(t, kind, p, workers, fuzzItems(seed, 300))
					}
					runParity(t, kind, p, workers, churnItems(9, 400))
				})
			}
		}
	}
}

// FuzzRingArenaParity explores the same property under fuzzed stream
// shape and join parameters. The seed corpus covers each scheme; go
// test runs the corpus as regression inputs, and `go test -fuzz` mines
// new ones.
func FuzzRingArenaParity(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(40), uint8(10))
	f.Add(int64(2), uint8(1), uint8(70), uint8(40))
	f.Add(int64(3), uint8(2), uint8(90), uint8(80))
	f.Add(int64(4), uint8(3), uint8(55), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, kindSel, thetaPct, lambdaPct uint8) {
		kind := []Kind{INV, L2, L2AP, AP}[int(kindSel)%4]
		p := apss.Params{
			Theta:  0.3 + 0.65*float64(thetaPct%100)/100,
			Lambda: 0.005 + 0.5*float64(lambdaPct%100)/100,
		}
		items := fuzzItems(seed, 150)
		runParity(t, kind, p, 1, items)
		runParity(t, kind, p, 4, items)
	})
}

// TestSweepReleasesEmptyHeads is the regression test for the horizon
// sweep's bookkeeping: after dimension churn carries the stream far past
// every old dimension, the sweep must not only expire the entries but
// release the emptied per-dimension chain heads and (for the AP engines)
// the per-dimension statistics — so Lists and TrackedDims reflect live
// state, not vocabulary history — and recycle the expired blocks into
// the arena freelist instead of leaving them to the GC.
func TestSweepReleasesEmptyHeads(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.05}
	for _, kind := range []Kind{INV, L2, L2AP} {
		for _, workers := range []int{1, 4} {
			ix, err := newTestIndex(kind, p, Options{}, workers)
			if err != nil {
				t.Fatal(err)
			}
			items := churnItems(21, 600)
			for _, it := range items {
				if _, err := ix.Add(it); err != nil {
					t.Fatal(err)
				}
			}
			// March time forward in sweep-sized steps with items that
			// touch a single fresh dimension each: every old dimension
			// must be released.
			last := items[len(items)-1].Time
			tau := p.Horizon()
			for i := 0; i < 4; i++ {
				last += tau + 1
				it := stream.Item{ID: uint64(10_000 + i), Time: last,
					Vec: unit([]uint32{uint32(1_000_000 + i)}, []float64{1})}
				if _, err := ix.Add(it); err != nil {
					t.Fatal(err)
				}
			}
			s := ix.Size()
			if s.Lists > 2 || s.PostingEntries > 2 {
				t.Fatalf("%v w=%d: stale heads retained after churn: %+v", kind, workers, s)
			}
			if kind == L2AP && s.TrackedDims > 2 {
				t.Fatalf("L2AP w=%d: TrackedDims=%d does not reflect live state", workers, s.TrackedDims)
			}
			// Expired blocks must be back on the freelist, not stranded.
			switch v := ix.(type) {
			case *invIndex:
				if v.ar.freeBlocks() == 0 && v.ar.blocks() > 1 {
					t.Fatalf("INV: no blocks recycled (%d allocated)", v.ar.blocks())
				}
			case *engine:
				if v.ar.freeBlocks() == 0 && v.ar.blocks() > 1 {
					t.Fatalf("%v: no blocks recycled (%d allocated)", kind, v.ar.blocks())
				}
			}
		}
	}
}

// TestArenaSlotSpaceBounded: slot recycling must keep the slot space —
// and with it the accumulator arrays — proportional to the live horizon,
// not the stream length.
func TestArenaSlotSpaceBounded(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.05}
	items := churnItems(33, 2000)
	for _, kind := range []Kind{INV, L2, L2AP} {
		ix, err := New(kind, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			if _, err := ix.Add(it); err != nil {
				t.Fatal(err)
			}
		}
		var span int
		switch v := ix.(type) {
		case *invIndex:
			span = v.slots.span()
		case *engine:
			span = v.slots.span()
		}
		// τ ≈ 10.2 with mean gap 1.0 → ~11 live items; sweeps lag by up
		// to τ, so a couple horizons of slots can be live at once. 2000
		// items without recycling would blow far past this.
		if span > 100 {
			t.Fatalf("%v: slot space grew with the stream: %d slots for %d items", kind, span, len(items))
		}
	}
}

// TestRepeatedIDsRecycleSlots: item ids are the caller's, and nothing
// stops a caller from reusing one. Every kind must still recycle each
// item's slot when it expires — keeping the slot space, and the
// accumulator arrays sized to it, at the live window — and find the same
// matches. Items arrive one per time unit; τ = ln 2/0.1 ≈ 6.9 keeps 7 live.
func TestRepeatedIDsRecycleSlots(t *testing.T) {
	p := apss.Params{Theta: 0.5, Lambda: 0.1}
	r := rand.New(rand.NewSource(5))
	items := make([]stream.Item, 10000)
	for i := range items {
		vals := []float64{0.5 + r.Float64()/2, 0.5 + r.Float64()/2, 0.5 + r.Float64()/2, 0.5 + r.Float64()/2}
		items[i] = stream.Item{ID: 7, Time: float64(i), Vec: vec.MustNew([]uint32{1, 2, 3, 4}, vals).Normalize()}
	}
	const live = 7
	// partners[i] lists the DT of every match of item i, sorted: with one
	// id for all items, DT is what tells the partners apart.
	var want [][]float64
	for _, kind := range []Kind{INV, L2AP, L2, AP} {
		ix, err := New(kind, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		partners := make([][]float64, len(items))
		n := 0
		for i, it := range items {
			ms, err := ix.Add(it)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range ms {
				partners[i] = append(partners[i], m.DT)
			}
			slices.Sort(partners[i])
			n += len(ms)
		}
		var span int
		switch v := ix.(type) {
		case *invIndex:
			span = v.slots.span()
		case *engine:
			span = v.slots.span()
		}
		if span > live+1 {
			t.Errorf("%v: slot space %d for a live window of %d items", kind, span, live)
		}
		if want == nil {
			want = partners
			if n == 0 {
				t.Fatal("the stream has no matches")
			}
			continue
		}
		for i := range items {
			if !slices.Equal(partners[i], want[i]) {
				t.Fatalf("%v: item %d matched at DT %v, INV at %v", kind, i, partners[i], want[i])
			}
		}
	}
}
