package sssj_test

import (
	"fmt"
	"testing"

	"sssj"
	"sssj/internal/apss"
	"sssj/internal/cluster"
	"sssj/internal/datagen"
	"sssj/internal/index/streaming"
)

// TestWorkersParityOnDatagen: on every synthetic dataset profile, an
// in-process cluster of 2 and of 4 workers must emit the same match set
// as the sequential engine for each streaming index scheme.
func TestWorkersParityOnDatagen(t *testing.T) {
	indexes := map[sssj.IndexKind]streaming.Kind{
		sssj.IndexL2:   streaming.L2,
		sssj.IndexL2AP: streaming.L2AP,
		sssj.IndexINV:  streaming.INV,
	}
	for _, prof := range datagen.Profiles() {
		items := prof.Scaled(0.03).Generate(42)
		for _, ix := range []sssj.IndexKind{sssj.IndexL2, sssj.IndexL2AP, sssj.IndexINV} {
			base := sssj.Options{Theta: 0.6, Lambda: 0.01, Index: ix}
			want, err := sssj.SelfJoin(base, items)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4} {
				t.Run(fmt.Sprintf("%s/%v/w=%d", prof.Name, ix, workers), func(t *testing.T) {
					cl, err := cluster.StartLocal(indexes[ix], apss.Params{Theta: base.Theta, Lambda: base.Lambda},
						cluster.LocalOptions{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					defer cl.Close()
					var got []apss.Match
					for _, it := range items {
						if err := cl.AddTo(it, apss.Collector(&got)); err != nil {
							t.Fatal(err)
						}
					}
					if !apss.EqualMatchSets(got, want, 1e-9) {
						t.Fatalf("match sets diverge: %d (workers=%d) vs %d (sequential)",
							len(got), workers, len(want))
					}
				})
			}
		}
	}
}
