package streaming

import (
	"errors"
	"fmt"
	"testing"

	"sssj/internal/apss"
)

// TestAdvanceBarrierOutputNeutral checks the watermark-barrier contract
// on every engine: a run with Advance barriers interleaved between
// items reports exactly the same matches as a plain run. Barriers at
// item times leave even the sweep schedule untouched, so those runs
// must be bit-identical; mid-gap barriers may shift when the horizon
// sweep fires (which can move L2AP indexing boundaries, a float
// summation-order effect), so those runs are compared as match sets.
func TestAdvanceBarrierOutputNeutral(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.05}
	items := fuzzItems(3, 250)
	for _, kind := range []Kind{INV, L2, L2AP} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/w=%d", kind, workers), func(t *testing.T) {
				plain, err := newTestIndex(kind, p, Options{}, workers)
				if err != nil {
					t.Fatal(err)
				}
				exact, err := newTestIndex(kind, p, Options{}, workers)
				if err != nil {
					t.Fatal(err)
				}
				loose, err := newTestIndex(kind, p, Options{}, workers)
				if err != nil {
					t.Fatal(err)
				}
				exAdv := exact.(Advancer)
				looAdv := loose.(Advancer)
				var allPlain, allLoose []apss.Match
				for i, it := range items {
					want, err := plain.Add(it)
					if err != nil {
						t.Fatal(err)
					}
					// Barrier exactly at the item's time, plus a stale one:
					// both must leave the run bit-identical.
					if err := exAdv.Advance(it.Time); err != nil {
						t.Fatal(err)
					}
					if err := exAdv.Advance(it.Time - 100); err != nil {
						t.Fatal(err)
					}
					got, err := exact.Add(it)
					if err != nil {
						t.Fatal(err)
					}
					if !equalMatchesExact(got, want) {
						t.Fatalf("item %d: item-time barrier changed output", i)
					}
					gotL, err := loose.Add(it)
					if err != nil {
						t.Fatal(err)
					}
					// Mid-gap barrier halfway to the next item.
					if i+1 < len(items) {
						mid := (it.Time + items[i+1].Time) / 2
						if err := looAdv.Advance(mid); err != nil {
							t.Fatal(err)
						}
					}
					allPlain = append(allPlain, want...)
					allLoose = append(allLoose, gotL...)
				}
				if !apss.EqualMatchSets(allLoose, allPlain, 1e-9) {
					t.Fatalf("mid-gap barriers changed the match set (%d vs %d)",
						len(allLoose), len(allPlain))
				}
			})
		}
	}
}

// TestAdvanceEstablishesClockFloor: after a barrier at t, an item
// behind t is a regression — the barrier is a promise about the stream.
func TestAdvanceEstablishesClockFloor(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.05}
	for _, kind := range []Kind{INV, L2, L2AP} {
		for _, workers := range []int{1, 4} {
			ix, err := newTestIndex(kind, p, Options{}, workers)
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.(Advancer).Advance(10); err != nil {
				t.Fatal(err)
			}
			items := fuzzItems(1, 1)
			items[0].Time = 5
			if _, err := ix.Add(items[0]); !errors.Is(err, ErrTimeOrder) {
				t.Fatalf("%v/w=%d: item behind barrier: got %v", kind, workers, err)
			}
			items[0].Time = 10
			if _, err := ix.Add(items[0]); err != nil {
				t.Fatalf("%v/w=%d: item at barrier must be accepted: %v", kind, workers, err)
			}
		}
	}
}
