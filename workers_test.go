package sssj_test

import (
	"fmt"
	"testing"

	"sssj"
	"sssj/internal/apss"
	"sssj/internal/datagen"
)

// TestWorkersParityOnDatagen: on every synthetic dataset profile, the
// in-process shard group (Workers ≥ 2) must emit the same match set as
// the sequential engine for each streaming index scheme.
func TestWorkersParityOnDatagen(t *testing.T) {
	indexes := []sssj.IndexKind{sssj.IndexL2, sssj.IndexL2AP, sssj.IndexINV}
	for _, prof := range datagen.Profiles() {
		items := prof.Scaled(0.03).Generate(42)
		for _, ix := range indexes {
			base := sssj.Options{Theta: 0.6, Lambda: 0.01, Index: ix}
			want, err := sssj.SelfJoin(base, items)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4} {
				t.Run(fmt.Sprintf("%s/%v/w=%d", prof.Name, ix, workers), func(t *testing.T) {
					opts := base
					opts.Workers = workers
					got, err := sssj.SelfJoin(opts, items)
					if err != nil {
						t.Fatal(err)
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

// TestWorkersOptionValidation: Workers is a Streaming-framework feature;
// MiniBatch and negative values are rejected.
func TestWorkersOptionValidation(t *testing.T) {
	if _, err := sssj.New(sssj.Options{Theta: 0.7, Lambda: 0.01, Framework: sssj.MiniBatch, Workers: 2}); err == nil {
		t.Fatal("MiniBatch with Workers > 1 accepted")
	}
	if _, err := sssj.New(sssj.Options{Theta: 0.7, Lambda: 0.01, Workers: -2}); err == nil {
		t.Fatal("negative Workers accepted")
	}
	// Workers composes with the dimension-ordering extension.
	j, err := sssj.New(sssj.Options{
		Theta: 0.7, Lambda: 0.01, Workers: 2,
		DimOrder: sssj.DimOrder{Strategy: sssj.OrderDocFreqAsc, WarmupItems: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := j.IndexSize(); !ok {
		t.Fatal("sharded STR joiner should expose IndexSize")
	}
}
