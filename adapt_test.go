package sssj

import (
	"bytes"
	"fmt"
	"testing"

	"sssj/internal/apss"
	"sssj/internal/datagen"
	"sssj/internal/stream"
)

// This file is the self-tuning oracle battery. The adaptive layer's
// contract is output invariance: re-ranking dimensions and switching
// engines online must never change the reported pair set — so every
// grid point compares an adaptive run against its static counterpart as
// order-insensitive match sets.

// adaptGridKinds enumerates the index axis of the parity grid. For the
// fixed kinds the adaptive run re-ranks over the same engine; "auto"
// runs the full selector ladder from the INV floor.
var adaptGridKinds = []IndexKind{IndexINV, IndexL2, IndexL2AP, IndexAuto}

// adaptiveVariantOf pairs a static configuration with its adaptive
// counterpart: same engine with online re-ranking for the fixed kinds,
// the auto-selector (plus re-ranking) for IndexAuto, whose static
// reference is plain INV — the engine the ladder starts on.
func adaptiveVariantOf(static Options) Options {
	adaptive := static
	adaptive.Adaptive = Adaptive{Rerank: OrderDocFreqAsc, Cadence: 64}
	return adaptive
}

// TestAdaptParityGrid is the tentpole oracle: {INV, L2, L2AP, auto} ×
// {self, foreign} × δ {0, 3}, each point comparing the adaptive run's
// pair set against the static run's — on the sequential engine (w1) and
// on a 4-worker cluster (w4; see clusterJoiner).
func TestAdaptParityGrid(t *testing.T) {
	base := datagen.RCV1Profile().Scaled(0.05).Generate(17)
	for _, kind := range adaptGridKinds {
		for _, join := range []JoinMode{JoinSelf, JoinForeign} {
			items := base
			if join == JoinForeign {
				items = tagAlternating(base)
			}
			for _, workers := range []int{1, 4} {
				for _, delta := range []float64{0, 3} {
					feed := items
					if delta > 0 {
						feed = stream.ShuffleWithin(items, delta, harnessShuffleSeed)
					}
					name := fmt.Sprintf("%v-%v-w%d-d%v", kind, join, workers, delta)
					t.Run(name, func(t *testing.T) {
						static := Options{Theta: 0.5, Lambda: 0.05, Index: kind, Join: join, Lateness: delta}
						if kind == IndexAuto {
							static.Index = IndexINV
						}
						want := joinOn(t, static, workers, feed)
						if len(want) == 0 {
							t.Fatal("no matches; parity vacuous")
						}
						adaptive := adaptiveVariantOf(static)
						adaptive.Index = kind
						got, err := SelfJoin(adaptive, feed)
						if err != nil {
							t.Fatal(err)
						}
						if !apss.EqualMatchSets(got, want, 1e-9) {
							onlyG, onlyW := apss.DiffMatchSets(got, want)
							t.Fatalf("adaptive ≠ static: %d vs %d matches (only-adaptive %v, only-static %v)",
								len(got), len(want), onlyG, onlyW)
						}
					})
				}
			}
		}
	}
}

// TestAdaptCounterSanity pins the counter-hygiene contract at the public
// surface: the rebuild replays an adaptive run performs are withheld
// from Stats, so an adaptive join never reports more candidate work
// than the static INV join (the least-filtered engine), and Items
// counts every stream item exactly once.
func TestAdaptCounterSanity(t *testing.T) {
	items := datagen.RCV1Profile().Scaled(0.05).Generate(17)
	var inv, ad Stats
	if _, err := SelfJoin(Options{Theta: 0.5, Lambda: 0.05, Index: IndexINV, Stats: &inv}, items); err != nil {
		t.Fatal(err)
	}
	if _, err := SelfJoin(Options{Theta: 0.5, Lambda: 0.05, Index: IndexAuto,
		Adaptive: Adaptive{Rerank: OrderDocFreqAsc, Cadence: 64}, Stats: &ad}, items); err != nil {
		t.Fatal(err)
	}
	if ad.Items != int64(len(items)) {
		t.Fatalf("adaptive Items=%d, want %d (rebuild replays must not count)", ad.Items, len(items))
	}
	if ad.Candidates > inv.Candidates {
		t.Fatalf("adaptive candidates %d exceed static INV's %d", ad.Candidates, inv.Candidates)
	}
	if ad.Pairs != inv.Pairs {
		t.Fatalf("pair counts diverge: adaptive %d, INV %d", ad.Pairs, inv.Pairs)
	}
}

// TestOrderInvariance is the satellite-4 metamorphic oracle: natural
// order, both warmup-learned orders (DimOrder), and the online adaptive
// re-ranker must all report the same unordered pair set — a consistent
// permutation is invisible to dot products, whoever maintains it.
func TestOrderInvariance(t *testing.T) {
	items := datagen.TweetsProfile().Scaled(0.05).Generate(23)
	base := Options{Theta: 0.5, Lambda: 0.05, Index: IndexL2}
	want, err := SelfJoin(base, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no matches; invariance vacuous")
	}
	variants := map[string]Options{
		"warmup-docfreq": {Theta: 0.5, Lambda: 0.05, Index: IndexL2, DimOrder: DimOrder{Strategy: OrderDocFreqAsc, WarmupItems: 50}},
		"warmup-maxval":  {Theta: 0.5, Lambda: 0.05, Index: IndexL2, DimOrder: DimOrder{Strategy: OrderMaxValueDesc, WarmupItems: 50}},
		"adapt-docfreq":  {Theta: 0.5, Lambda: 0.05, Index: IndexL2, Adaptive: Adaptive{Rerank: OrderDocFreqAsc, Cadence: 32}},
		"adapt-maxval":   {Theta: 0.5, Lambda: 0.05, Index: IndexL2, Adaptive: Adaptive{Rerank: OrderMaxValueDesc, Cadence: 32}},
		"adapt-auto":     {Theta: 0.5, Lambda: 0.05, Index: IndexAuto, Adaptive: Adaptive{Rerank: OrderDocFreqAsc, Cadence: 32}},
	}
	for name, opts := range variants {
		t.Run(name, func(t *testing.T) {
			got, err := SelfJoin(opts, items)
			if err != nil {
				t.Fatal(err)
			}
			if !apss.EqualMatchSets(got, want, 1e-9) {
				onlyG, onlyW := apss.DiffMatchSets(got, want)
				t.Fatalf("%s ≠ natural order: %d vs %d matches (only-%s %v, only-natural %v)",
					name, len(got), len(want), name, onlyG, onlyW)
			}
		})
	}
}

// TestAdaptStateObservable checks the introspection surface: an auto
// joiner on a dense stream reports its promoted engine and nonzero
// adaptation counts; a static joiner reports ok = false.
func TestAdaptStateObservable(t *testing.T) {
	items := datagen.RCV1Profile().Scaled(0.05).Generate(29)
	j, err := New(Options{Theta: 0.4, Lambda: 0.01, Index: IndexAuto,
		Adaptive: Adaptive{Rerank: OrderDocFreqAsc, Cadence: 64}})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if _, err := j.Process(it); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := j.AdaptState()
	if !ok {
		t.Fatal("AdaptState not available on an adaptive joiner")
	}
	if st.Switches < 1 || st.Reranks < 1 {
		t.Fatalf("dense stream never adapted: %+v", st)
	}
	plain, err := New(Options{Theta: 0.5, Lambda: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.AdaptState(); ok {
		t.Fatal("static joiner reported adaptive state")
	}
}

// TestAdaptResume checks the public checkpoint path: an adaptive joiner
// checkpoints (as a plain-format natural-space image), resumes with
// Adaptive still enabled, and the resumed run's tail matches the
// uninterrupted run's.
func TestAdaptResume(t *testing.T) {
	items := datagen.RCV1Profile().Scaled(0.05).Generate(31)
	cut := len(items) / 2
	opts := Options{Theta: 0.5, Lambda: 0.05, Index: IndexAuto,
		Adaptive: Adaptive{Rerank: OrderDocFreqAsc, Cadence: 64}}
	uncut, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cutRun, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items[:cut] {
		if _, err := uncut.Process(it); err != nil {
			t.Fatal(err)
		}
		if _, err := cutRun.Process(it); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := cutRun.Checkpoint(&buf); err != nil {
		t.Fatalf("adaptive Checkpoint: %v", err)
	}
	resumed, err := Resume(&buf, Options{Index: IndexAuto, Adaptive: opts.Adaptive})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resumed.AdaptState(); !ok {
		t.Fatal("resumed joiner is not adaptive")
	}
	for i, it := range items[cut:] {
		want, err := uncut.Process(it)
		if err != nil {
			t.Fatal(err)
		}
		got, err := resumed.Process(it)
		if err != nil {
			t.Fatal(err)
		}
		if !apss.EqualMatchSets(got, want, 1e-9) {
			t.Fatalf("tail item %d: resumed adaptive diverged from uninterrupted run", i)
		}
	}
}

// FuzzAdaptParity keeps hunting for streams and configurations where
// self-tuning changes the output. The seed corpus (committed under
// testdata/fuzz/FuzzAdaptParity) covers every kind on the grid's axes;
// make fuzz-smoke mines further.
func FuzzAdaptParity(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(40), uint8(0))
	f.Add(uint64(2), uint8(1), uint8(70), uint8(1))
	f.Add(uint64(3), uint8(2), uint8(55), uint8(3))
	f.Add(uint64(4), uint8(7), uint8(85), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, cfg, thetaPct, deltaSel uint8) {
		kind := adaptGridKinds[int(cfg)%len(adaptGridKinds)]
		workers := 1
		if cfg&4 != 0 {
			workers = 4
		}
		foreign := cfg&8 != 0
		theta := 0.3 + 0.65*float64(thetaPct%100)/100
		delta := float64(deltaSel % 4)

		items := fuzzForeignItems(seed, 150)
		join := JoinSelf
		if foreign {
			join = JoinForeign
		}
		feed := items
		if delta > 0 {
			feed = stream.ShuffleWithin(items, delta, int64(seed))
		}
		static := Options{Theta: theta, Lambda: 0.05, Index: kind, Join: join, Lateness: delta}
		if kind == IndexAuto {
			static.Index = IndexINV
		}
		want := joinOn(t, static, workers, feed)
		adaptive := static
		adaptive.Index = kind
		adaptive.Adaptive = Adaptive{Rerank: OrderDocFreqAsc, Cadence: 16}
		got, err := SelfJoin(adaptive, feed)
		if err != nil {
			t.Fatal(err)
		}
		if !apss.EqualMatchSets(got, want, 1e-9) {
			onlyG, onlyW := apss.DiffMatchSets(got, want)
			t.Fatalf("adaptive ≠ static (%v w=%d foreign=%v θ=%v δ=%v): only-adaptive %v, only-static %v",
				kind, workers, foreign, theta, delta, onlyG, onlyW)
		}
	})
}
