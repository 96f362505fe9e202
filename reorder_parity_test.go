package sssj

import (
	"errors"
	"fmt"
	"testing"

	"sssj/internal/apss"
	"sssj/internal/datagen"
	"sssj/internal/stream"
)

// This file is the event-time parity battery: a stream shuffled within
// the lateness bound δ, joined with Options.Lateness = δ, must produce
// the bit-identical match sequence of the sorted stream joined under
// the strict contract — the reorder stage re-sorts, the engines never
// notice. The grid test pins the claim across every engine; the fuzz
// target keeps hunting for configurations that break it.

// reorderGrid is the parity grid: {STR, MB} × {INV, L2, L2AP}, STR on
// the sequential engine and on a 4-worker cluster.
func reorderGrid() []deployCell {
	var out []deployCell
	for _, ix := range []IndexKind{IndexINV, IndexL2, IndexL2AP} {
		for _, w := range []int{1, 4} {
			out = append(out, deployCell{Options{Theta: 0.5, Lambda: 0.05, Framework: Streaming, Index: ix}, w})
		}
		out = append(out, deployCell{Options{Theta: 0.5, Lambda: 0.05, Framework: MiniBatch, Index: ix}, 0})
	}
	return out
}

// TestReorderParityOracle: for each engine and δ, the shuffled-within-δ
// stream under Lateness = δ equals the sorted stream under Lateness = 0
// with eps 0 — and the shuffle must genuinely disorder the input, or the
// oracle is vacuous.
func TestReorderParityOracle(t *testing.T) {
	items := datagen.RCV1Profile().Scaled(0.05).Generate(17)
	for _, delta := range []float64{3, 15} {
		shuffled := stream.ShuffleWithin(items, delta, harnessShuffleSeed)
		disordered := false
		for i := 1; i < len(shuffled); i++ {
			if shuffled[i].Time < shuffled[i-1].Time {
				disordered = true
				break
			}
		}
		if !disordered {
			t.Fatalf("δ=%v: shuffle left the stream sorted; oracle vacuous", delta)
		}
		for _, cell := range reorderGrid() {
			t.Run(fmt.Sprintf("d%v-%s", delta, cell.name()), func(t *testing.T) {
				want := joinOn(t, cell.opts, cell.workers, items)
				if len(want) == 0 {
					t.Fatal("no matches; parity test vacuous")
				}
				lateOpts := cell.opts
				lateOpts.Lateness = delta
				got := joinOn(t, lateOpts, cell.workers, shuffled)
				if !apss.EqualMatchSets(got, want, 0) {
					onlyG, onlyW := apss.DiffMatchSets(got, want)
					t.Fatalf("shuffled ≠ sorted: %d vs %d matches (only-shuffled %v, only-sorted %v)",
						len(got), len(want), onlyG, onlyW)
				}
			})
		}
	}
}

// harnessShuffleSeed mirrors harness.ShuffleSeed so the oracle exercises
// the same disorder the perf scenarios measure (kept as a literal to
// avoid importing internal/harness into the public package's tests).
const harnessShuffleSeed int64 = 1

// TestReorderLateDropsObservable: an item pushed behind the watermark
// comes back as a TimeRegressionError carrying the item's time and the
// watermark it fell behind, and is counted in Stats.LateDrops.
func TestReorderLateDropsObservable(t *testing.T) {
	var st Stats
	j, err := New(Options{Theta: 0.6, Lambda: 0.05, Lateness: 5, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := NewVector([]uint32{1}, []float64{1})
	for _, tm := range []float64{10, 20} {
		if _, err := j.Process(Item{ID: uint64(tm), Time: tm, Vec: v}); err != nil {
			t.Fatal(err)
		}
	}
	_, err = j.Process(Item{ID: 99, Time: 14, Vec: v})
	var tre *TimeRegressionError
	if !errors.As(err, &tre) {
		t.Fatalf("late item: got %v, want *TimeRegressionError", err)
	}
	if tre.ID != 99 || tre.Time != 14 || tre.Watermark != 15 {
		t.Fatalf("error fields %+v, want ID=99 Time=14 Watermark=15", tre)
	}
	if st.LateDrops != 1 {
		t.Fatalf("LateDrops = %d, want 1", st.LateDrops)
	}
	// The joiner survives: the next admissible item processes fine.
	if _, err := j.Process(Item{ID: 100, Time: 21, Vec: v}); err != nil {
		t.Fatal(err)
	}
}

// FuzzReorderParity fuzzes the event-time parity oracle: derive a
// stream, shuffle it within a fuzz-chosen δ, and require the
// bounded-lateness join to reproduce the sorted run bit for bit across
// fuzz-chosen engines.
func FuzzReorderParity(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(42), uint8(1), uint8(1), uint8(2))
	f.Add(uint64(7), uint8(3), uint8(2), uint8(3))
	f.Add(uint64(1234), uint8(4), uint8(0), uint8(1))
	f.Add(uint64(99), uint8(5), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, cfg, thetaSel, deltaSel uint8) {
		items := fuzzForeignItems(seed, 60)
		if len(items) == 0 {
			return
		}
		for i := range items {
			items[i].Side = SideA // self-join parity; sides are FuzzForeignSelfParity's job
		}
		theta := []float64{0.5, 0.7, 0.9}[int(thetaSel)%3]
		delta := []float64{0.5, 2, 10, 40}[int(deltaSel)%4]
		opts, workers := Options{Theta: theta, Lambda: 0.1}, 1
		switch cfg % 6 {
		case 0:
			opts.Index = IndexINV
		case 1:
			opts.Index = IndexL2
		case 2:
			opts.Index = IndexL2AP
		case 3:
			opts.Index = IndexL2
			workers = 4
		case 4:
			opts.Framework = MiniBatch
			opts.Index = IndexL2
		case 5:
			opts.Framework = MiniBatch
			opts.Index = IndexINV
		}
		want := joinOn(t, opts, workers, items)
		shuffled := stream.ShuffleWithin(items, delta, int64(seed))
		lateOpts := opts
		lateOpts.Lateness = delta
		got := joinOn(t, lateOpts, workers, shuffled)
		if !apss.EqualMatchSets(got, want, 0) {
			t.Fatalf("shuffled ≠ sorted: %d vs %d (seed %d cfg %d θ %v δ %v)",
				len(got), len(want), seed, cfg, theta, delta)
		}
	})
}
