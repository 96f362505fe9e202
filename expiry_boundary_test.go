package sssj

import (
	"fmt"
	"testing"

	"sssj/internal/apss"
	"sssj/internal/cluster"
	"sssj/internal/core"
	"sssj/internal/index/streaming"
	"sssj/internal/vec"
)

// TestExpiryBoundaryAgainstBruteForce is the regression test of the
// recycled-slot bug. Posting entries expire when now−t > τ; residuals
// used to expire — and release their slot — when t < now−τ. The two
// predicates disagree in the last bit for a time gap that rounds onto τ,
// so item 1's slot was released and handed to item 2 while item 1's
// posting entry still counted as live: item 3's scan credited that entry
// to item 2, and the sequential engines reported the pair (3, 2), sim 1,
// between orthogonal vectors, while the sharded engines verified item
// 2's residual and reported nothing. The true answer is brute force's:
// (3, 1), whose similarity sits exactly on θ.
func TestExpiryBoundaryAgainstBruteForce(t *testing.T) {
	p := apss.Params{Theta: 0.7, Lambda: 1e-4}
	e := func(d uint32) vec.Vector { return vec.MustNew([]uint32{d}, []float64{1}) }
	for i, times := range [][2]float64{
		{-737.3040374124209, 2829.4454019749032},
		{-1391.3612519692863, 2175.388187418038},
	} {
		items := []Item{
			{ID: 1, Time: times[0], Vec: e(5)},
			{ID: 2, Time: times[1], Vec: e(9)},
			{ID: 3, Time: times[1], Vec: e(5)},
		}
		bf, err := core.NewBruteForce(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want []apss.Match
		for _, it := range items {
			ms, err := bf.Add(it)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, ms...)
		}
		if len(want) != 1 || want[0].X != 3 || want[0].Y != 1 {
			t.Fatalf("instance %d: brute force reports %v, want the single pair (3, 1)", i, want)
		}
		for _, kind := range []streaming.Kind{streaming.INV, streaming.L2, streaming.L2AP} {
			for _, shape := range []struct {
				name    string
				opts    streaming.Options
				workers int // > 0: a cluster of that width instead
			}{
				{"seq", streaming.Options{}, 0},
				{"scalar", streaming.Options{Ablations: streaming.Ablations{ScalarKernel: true}}, 0},
				{"w2", streaming.Options{}, 2},
				// A lone worker fed every item: dimensions 5 and 9 are
				// both its own, so it must report brute force's pair too.
				{"s1", streaming.Options{Shard: streaming.Shard{ID: 1, N: 2}}, 0},
			} {
				t.Run(fmt.Sprintf("%d/%v/%s", i, kind, shape.name), func(t *testing.T) {
					var ix interface {
						Add(Item) ([]apss.Match, error)
					}
					if shape.workers > 0 {
						cl, err := cluster.StartLocal(kind, p, cluster.LocalOptions{Workers: shape.workers})
						if err != nil {
							t.Fatal(err)
						}
						defer cl.Close()
						ix = cl
					} else {
						sx, err := streaming.New(kind, p, shape.opts)
						if err != nil {
							t.Fatal(err)
						}
						ix = sx
					}
					var got []apss.Match
					for _, it := range items {
						ms, err := ix.Add(it)
						if err != nil {
							t.Fatal(err)
						}
						got = append(got, ms...)
					}
					if !apss.EqualMatchSets(got, want, 0) {
						t.Fatalf("got %v, brute force reports %v", got, want)
					}
				})
			}
		}
	}
}
