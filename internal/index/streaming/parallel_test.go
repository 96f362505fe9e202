package streaming

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"sssj/internal/apss"
	"sssj/internal/dimorder"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// runKind drains items through a fresh index (newTestIndex) and returns
// all matches.
func runKind(t *testing.T, kind Kind, p apss.Params, opts Options, workers int, items []stream.Item) []apss.Match {
	t.Helper()
	ix, err := newTestIndex(kind, p, opts, workers)
	if err != nil {
		t.Fatal(err)
	}
	var out []apss.Match
	for _, it := range items {
		ms, err := ix.Add(it)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ms...)
	}
	return out
}

// TestParallelParity: the shard group must produce the same match set as
// the sequential engine on the same stream, for every kind, worker
// count, and parameter setting, with bit-identical similarities: every
// shard recomputes a verified pair's dot product in the sequential
// scan's summation order.
func TestParallelParity(t *testing.T) {
	for _, kind := range []Kind{INV, L2, L2AP, AP} {
		for _, p := range []apss.Params{
			{Theta: 0.5, Lambda: 0.05},
			{Theta: 0.7, Lambda: 0.01},
			{Theta: 0.9, Lambda: 0.2},
		} {
			for seed := int64(0); seed < 4; seed++ {
				items := fuzzItems(seed, 400)
				want := runKind(t, kind, p, Options{}, 0, items)
				for _, workers := range []int{2, 3, 8} {
					t.Run(fmt.Sprintf("%v/theta=%g/lambda=%g/seed=%d/w=%d", kind, p.Theta, p.Lambda, seed, workers), func(t *testing.T) {
						got := runKind(t, kind, p, Options{}, workers, items)
						if !equalMatchesExact(got, want) {
							t.Fatalf("not bit-identical to the sequential engine: %d vs %d matches", len(got), len(want))
						}
					})
				}
			}
		}
	}
}

// equalMatchesExact requires the same pairs with bit-identical Sim, Dot,
// and DT after canonicalization.
func equalMatchesExact(a, b []apss.Match) bool {
	if len(a) != len(b) {
		return false
	}
	ac := make([]apss.Match, len(a))
	bc := make([]apss.Match, len(b))
	for i := range a {
		ac[i] = a[i].Canon()
		bc[i] = b[i].Canon()
	}
	apss.SortMatches(ac)
	apss.SortMatches(bc)
	for i := range ac {
		if ac[i] != bc[i] {
			return false
		}
	}
	return true
}

// TestParallelStateParity: beyond the output, the shard group's index
// state (posting entries, residuals, lists, tracked dimensions) must
// evolve exactly as the sequential engine's: the shards partition the
// posting lists, and every shard sees every item, so insertion,
// re-indexing, expiry, and sweeping are replicated dimension for
// dimension.
func TestParallelStateParity(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.05}
	for _, kind := range []Kind{INV, L2, L2AP} {
		items := fuzzItems(11, 500)
		seq, err := New(kind, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		par, err := newTestIndex(kind, p, Options{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range items {
			if _, err := seq.Add(it); err != nil {
				t.Fatal(err)
			}
			if _, err := par.Add(it); err != nil {
				t.Fatal(err)
			}
			// The sequential engine prunes expired entries lazily on the
			// lists each query touches; the shard group does the same per
			// shard. Compare at every step.
			if seq.Size() != par.Size() {
				t.Fatalf("%v: state diverged at item %d: seq %+v par %+v", kind, i, seq.Size(), par.Size())
			}
		}
	}
}

// TestParallelTimeOrder: the shard group rejects out-of-order items like
// the sequential engines.
func TestParallelTimeOrder(t *testing.T) {
	p := apss.Params{Theta: 0.5, Lambda: 0.1}
	for _, kind := range []Kind{INV, L2, L2AP} {
		ix, err := newTestIndex(kind, p, Options{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		v := vec.MustNew([]uint32{1}, []float64{1})
		if _, err := ix.Add(stream.Item{ID: 0, Time: 5, Vec: v}); err != nil {
			t.Fatal(err)
		}
		if _, err := ix.Add(stream.Item{ID: 1, Time: 4, Vec: v}); err != ErrTimeOrder {
			t.Fatalf("%v: want ErrTimeOrder, got %v", kind, err)
		}
	}
}

// churnItems is a dimension-churn stream: every item draws from a fresh
// block of the dimension space, so no dimension ever recurs after its
// block passes — the adversarial workload for lazy, query-driven expiry.
func churnItems(seed int64, n int) []stream.Item {
	r := rand.New(rand.NewSource(seed))
	items := make([]stream.Item, 0, n)
	tm := 0.0
	for i := 0; i < n; i++ {
		tm += 0.5 + r.Float64()
		m := map[uint32]float64{}
		base := uint32(i * 8)
		for j := 0; j < 3+r.Intn(5); j++ {
			m[base+uint32(r.Intn(8))] = 0.05 + r.Float64()
		}
		items = append(items, stream.Item{ID: uint64(i), Time: tm, Vec: vec.FromMap(m).Normalize()})
	}
	return items
}

// TestSweepBoundsIndexSize: under dimension churn, the horizon sweep must
// keep every component of the index occupancy — posting entries, lists,
// and the per-dimension m/m̂λ statistics — bounded by what one horizon of
// stream can populate, instead of growing with the number of distinct
// dimensions ever seen.
func TestSweepBoundsIndexSize(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.05}
	// τ = ln(1/0.6)/0.05 ≈ 10.2; with mean gap 1.0 and ≤ 8 dims per item,
	// one horizon holds roughly 11 live items ≈ 88 dimensions. Sweeps lag
	// by up to τ, so at most two horizons of state are ever live; 400 is
	// a comfortable ceiling that vocabulary-proportional growth (8000+
	// dims over the stream) blows through immediately.
	const maxDims = 400
	for _, kind := range []Kind{INV, L2, L2AP} {
		for _, workers := range []int{0, 4} {
			ix, err := newTestIndex(kind, p, Options{}, workers)
			if err != nil {
				t.Fatal(err)
			}
			items := churnItems(3, 1000)
			peak := SizeInfo{}
			for _, it := range items {
				if _, err := ix.Add(it); err != nil {
					t.Fatal(err)
				}
				s := ix.Size()
				if s.Lists > peak.Lists {
					peak.Lists = s.Lists
				}
				if s.PostingEntries > peak.PostingEntries {
					peak.PostingEntries = s.PostingEntries
				}
				if s.TrackedDims > peak.TrackedDims {
					peak.TrackedDims = s.TrackedDims
				}
			}
			if peak.Lists > maxDims || peak.TrackedDims > maxDims {
				t.Fatalf("%v workers=%d: index grew with vocabulary: peak %+v", kind, workers, peak)
			}
		}
	}
}

// TestLoadRejectsDimOrder: a checkpoint cannot be restored into a
// dimension-ordered index (the residual splits in the file are tied to
// natural order); Load must return an error, not crash.
func TestLoadRejectsDimOrder(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.05}
	ix, err := New(L2, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range fuzzItems(1, 50) {
		if _, err := ix.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := Save(ix, &buf); err != nil {
		t.Fatal(err)
	}
	_, err = Load(&buf, Options{Order: WarmupOrder{Strategy: dimorder.DocFreqAsc, Items: 10}})
	if err == nil {
		t.Fatal("Load into a dimension-ordered index accepted")
	}
}
