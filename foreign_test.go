package sssj

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sssj/internal/apss"
	"sssj/internal/core"
	"sssj/internal/datagen"
	"sssj/internal/stream"
)

// tagAlternating returns a copy of items with sides alternating by
// position (even → A, odd → B) — the canonical interleaved two-stream
// workload of the oracle tests.
func tagAlternating(items []Item) []Item {
	out := make([]Item, len(items))
	for i, it := range items {
		it.Side = SideA
		if i%2 == 1 {
			it.Side = SideB
		}
		out[i] = it
	}
	return out
}

// crossSideOnly filters a self-join result down to cross-side pairs
// using the stream's id → side map: the metamorphic oracle's reference.
func crossSideOnly(ms []Match, side map[uint64]Side) []Match {
	var out []Match
	for _, m := range ms {
		if side[m.X] != side[m.Y] {
			out = append(out, m)
		}
	}
	return out
}

// foreignGrid is the oracle grid of the metamorphic battery:
// {STR, MB} × {INV, L2, L2AP} × θ {0.5, 0.9}, STR on the sequential
// engine and on a 4-worker cluster.
func foreignGrid() []deployCell {
	var out []deployCell
	for _, theta := range []float64{0.5, 0.9} {
		for _, ix := range []IndexKind{IndexINV, IndexL2, IndexL2AP} {
			for _, w := range []int{1, 4} {
				out = append(out, deployCell{Options{Theta: theta, Lambda: 0.05, Framework: Streaming, Index: ix}, w})
			}
			out = append(out, deployCell{Options{Theta: theta, Lambda: 0.05, Framework: MiniBatch, Index: ix}, 0})
		}
	}
	return out
}

// TestForeignSelfJoinOracle is the metamorphic battery: on an
// interleaved A/B stream, the foreign join must equal the side-filtered
// self-join — same pairs, bit-identical similarities (eps 0) — across
// the full framework × index × θ grid, which includes the cluster
// workers' foreign gating.
func TestForeignSelfJoinOracle(t *testing.T) {
	items := tagAlternating(datagen.RCV1Profile().Scaled(0.05).Generate(17))
	side := make(map[uint64]Side, len(items))
	for _, it := range items {
		side[it.ID] = it.Side
	}
	for _, cell := range foreignGrid() {
		opts := cell.opts
		t.Run(fmt.Sprintf("%s-t%v", cell.name(), opts.Theta), func(t *testing.T) {
			self := joinOn(t, opts, cell.workers, items)
			want := crossSideOnly(self, side)
			fOpts := opts
			fOpts.Join = JoinForeign
			got := joinOn(t, fOpts, cell.workers, items)
			for _, m := range got {
				if side[m.X] == side[m.Y] {
					t.Fatalf("foreign join emitted same-side pair %+v", m)
				}
			}
			if !apss.EqualMatchSets(got, want, 0) {
				onlyF, onlyS := apss.DiffMatchSets(got, want)
				t.Fatalf("foreign ≠ side-filtered self: %d vs %d matches (only-foreign %v, only-self %v)",
					len(got), len(want), onlyF, onlyS)
			}
			// The workload must actually exercise the gate: some
			// cross-side matches, and some same-side ones filtered away.
			if opts.Theta == 0.5 {
				if len(want) == 0 {
					t.Fatal("oracle vacuous: no cross-side matches")
				}
				if len(want) == len(self) {
					t.Fatal("oracle vacuous: no same-side matches to filter")
				}
			}
		})
	}
}

// TestForeignJoinerEndpoints checks the ProcessA/ProcessB wrapper, the
// merge helpers, and ForeignJoin against each other.
func TestForeignJoinerEndpoints(t *testing.T) {
	all := datagen.TweetsProfile().Scaled(0.05).Generate(7)
	var a, b []Item
	for i, it := range all {
		if i%3 == 0 {
			b = append(b, it)
		} else {
			a = append(a, it)
		}
	}
	opts := Options{Theta: 0.5, Lambda: 0.05}

	want, err := ForeignJoin(opts, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no matches; endpoint test vacuous")
	}

	// Item-at-a-time via ProcessA/ProcessB over the same interleaving.
	merged := MergeSides(a, b)
	fj, err := NewForeign(opts)
	if err != nil {
		t.Fatal(err)
	}
	var got []Match
	for _, it := range merged {
		var ms []Match
		if it.Side == SideA {
			ms, err = fj.ProcessA(it)
		} else {
			ms, err = fj.ProcessB(it)
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ms...)
	}
	tail, err := fj.Flush()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, tail...)
	if !apss.EqualMatchSets(got, want, 0) {
		t.Fatalf("ProcessA/B diverged from ForeignJoin: %d vs %d", len(got), len(want))
	}

	// Iterator over a pre-tagged source.
	var viaIter []Match
	for m, err := range ForeignMatches(nil, opts, SliceSource(merged)) {
		if err != nil {
			t.Fatal(err)
		}
		viaIter = append(viaIter, m)
	}
	if !apss.EqualMatchSets(viaIter, want, 0) {
		t.Fatalf("ForeignMatches diverged: %d vs %d", len(viaIter), len(want))
	}

	// Every match pairs the two sides.
	side := make(map[uint64]Side)
	for _, it := range merged {
		side[it.ID] = it.Side
	}
	for _, m := range want {
		if side[m.X] == side[m.Y] {
			t.Fatalf("same-side pair %+v", m)
		}
	}
}

// TestMergeSides pins the merge contract: time order, A-before-B ties,
// preserved IDs, untouched inputs.
func TestMergeSides(t *testing.T) {
	v, _ := NewVector([]uint32{1}, []float64{1})
	a := []Item{{ID: 1, Time: 1, Vec: v}, {ID: 2, Time: 3, Vec: v}}
	b := []Item{{ID: 10, Time: 1, Vec: v}, {ID: 11, Time: 2, Vec: v}}
	m := MergeSides(a, b)
	wantIDs := []uint64{1, 10, 11, 2}
	wantSides := []Side{SideA, SideB, SideB, SideA}
	if len(m) != 4 {
		t.Fatalf("merged %d items", len(m))
	}
	for i := range m {
		if m[i].ID != wantIDs[i] || m[i].Side != wantSides[i] {
			t.Fatalf("pos %d: id=%d side=%v, want id=%d side=%v", i, m[i].ID, m[i].Side, wantIDs[i], wantSides[i])
		}
		if i > 0 && m[i].Time < m[i-1].Time {
			t.Fatalf("merge broke time order at %d", i)
		}
	}
	if a[0].Side != SideA || b[0].Side != SideA {
		t.Fatal("inputs mutated (Side tag written through)")
	}
}

// TestMergeSideSources checks the streaming merge: side tags, time
// order, dense re-IDs.
func TestMergeSideSources(t *testing.T) {
	v, _ := NewVector([]uint32{1}, []float64{1})
	a := []Item{{ID: 0, Time: 1, Vec: v}, {ID: 1, Time: 4, Vec: v}}
	b := []Item{{ID: 0, Time: 2, Vec: v}}
	src := MergeSideSources(SliceSource(a), SliceSource(b))
	got, err := stream.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("merged %d items", len(got))
	}
	for i, it := range got {
		if it.ID != uint64(i) {
			t.Fatalf("IDs not dense: pos %d has id %d", i, it.ID)
		}
		if i > 0 && it.Time < got[i-1].Time {
			t.Fatalf("time order broken at %d", i)
		}
	}
	sides := []Side{got[0].Side, got[1].Side, got[2].Side}
	if sides[0] != SideA || sides[1] != SideB || sides[2] != SideA {
		t.Fatalf("sides %v", sides)
	}
}

// TestForeignCheckpointResume round-trips a mid-stream foreign join
// through Checkpoint/ResumeForeign (v4 side bits) and requires the
// resumed run to continue bit-identically.
func TestForeignCheckpointResume(t *testing.T) {
	items := tagAlternating(datagen.RCV1Profile().Scaled(0.04).Generate(23))
	opts := Options{Theta: 0.6, Lambda: 0.05}

	var want []Match
	ref, err := NewForeign(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if err := ref.ProcessTo(it, CollectInto(&want)); err != nil {
			t.Fatal(err)
		}
	}

	split := len(items) / 2
	fj, err := NewForeign(opts)
	if err != nil {
		t.Fatal(err)
	}
	var got []Match
	for _, it := range items[:split] {
		if err := fj.ProcessTo(it, CollectInto(&got)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := fj.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	fj2, err := ResumeForeign(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fj2.Options().Join != JoinForeign {
		t.Fatal("resumed joiner lost JoinForeign")
	}
	for _, it := range items[split:] {
		if err := fj2.ProcessTo(it, CollectInto(&got)); err != nil {
			t.Fatal(err)
		}
	}
	if !apss.EqualMatchSets(got, want, 0) {
		t.Fatalf("resumed foreign run diverged: %d vs %d matches", len(got), len(want))
	}
}

// TestForeignDecisionTable covers the Join column of the shared
// decision table.
func TestForeignDecisionTable(t *testing.T) {
	good, _ := NewVector([]uint32{1, 2}, []float64{3, 4})
	if _, err := BatchJoin([]Vector{good}, 0.5, BatchOptions{Join: JoinForeign}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("batch foreign: want ErrUnsupported, got %v", err)
	}
	if _, err := NewTopK(Options{Theta: 0.5, Lambda: 0.1, Join: JoinForeign}, 2); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("top-k foreign: want ErrUnsupported, got %v", err)
	}
	if _, err := New(Options{Theta: 0.5, Lambda: 0.1, Join: JoinMode(7)}); !errors.Is(err, ErrUnsupported) {
		t.Fatal("unknown join mode accepted")
	}
	// Supported cells construct: both frameworks, dim order.
	for _, o := range []Options{
		{Theta: 0.5, Lambda: 0.1, Join: JoinForeign},
		{Theta: 0.5, Lambda: 0.1, Join: JoinForeign, Framework: MiniBatch, Index: IndexAP},
		{Theta: 0.5, Lambda: 0.1, Join: JoinForeign, DimOrder: DimOrder{Strategy: OrderDocFreqAsc, WarmupItems: 4}},
	} {
		if _, err := New(o); err != nil {
			t.Fatalf("%+v rejected: %v", o, err)
		}
	}
}

// fuzzForeignItems derives a small two-sided stream from a fuzz seed:
// random sparse vectors over a narrow vocabulary (forcing dimension
// collisions), non-decreasing times with occasional large gaps (forcing
// expiry and slot recycling), and random side tags.
func fuzzForeignItems(seed uint64, n int) []Item {
	rng := rand.New(rand.NewSource(int64(seed)))
	items := make([]Item, 0, n)
	t := 0.0
	for i := 0; i < n; i++ {
		nnz := 1 + rng.Intn(4)
		dims := make(map[uint32]float64, nnz)
		for len(dims) < nnz {
			dims[uint32(rng.Intn(12))] = 0.1 + rng.Float64()
		}
		var ds []uint32
		for d := range dims {
			ds = append(ds, d)
		}
		var vals []float64
		for i := 0; i+1 < len(ds); i++ {
			for j := i + 1; j < len(ds); j++ {
				if ds[j] < ds[i] {
					ds[i], ds[j] = ds[j], ds[i]
				}
			}
		}
		for _, d := range ds {
			vals = append(vals, dims[d])
		}
		v, err := NewVector(ds, vals)
		if err != nil {
			continue
		}
		if rng.Intn(8) == 0 {
			t += 30 // beyond typical horizons: forces expiry + recycling
		} else {
			t += rng.Float64()
		}
		side := SideA
		if rng.Intn(2) == 1 {
			side = SideB
		}
		items = append(items, Item{ID: uint64(i), Time: t, Side: side, Vec: v})
	}
	return items
}

// FuzzForeignSelfParity fuzzes the metamorphic oracle: for a derived
// two-sided stream and a fuzz-chosen engine configuration, the foreign
// join must (a) equal the side-filtered self-join bit for bit and
// (b) agree with the foreign brute-force oracle within float tolerance.
func FuzzForeignSelfParity(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0))
	f.Add(uint64(42), uint8(1), uint8(1))
	f.Add(uint64(7), uint8(2), uint8(2))
	f.Add(uint64(1234), uint8(5), uint8(1))
	f.Add(uint64(99), uint8(4), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, cfg, thetaSel uint8) {
		items := fuzzForeignItems(seed, 60)
		if len(items) == 0 {
			return
		}
		theta := []float64{0.5, 0.7, 0.9}[int(thetaSel)%3]
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

		side := make(map[uint64]Side, len(items))
		for _, it := range items {
			side[it.ID] = it.Side
		}
		self := joinOn(t, opts, workers, items)
		want := crossSideOnly(self, side)
		fOpts := opts
		fOpts.Join = JoinForeign
		got := joinOn(t, fOpts, workers, items)
		if !apss.EqualMatchSets(got, want, 0) {
			t.Fatalf("foreign ≠ side-filtered self: %d vs %d (seed %d cfg %d θ %v)",
				len(got), len(want), seed, cfg, theta)
		}

		// Independent oracle: the quadratic foreign brute force.
		bf, err := core.NewForeignBruteForce(Params{Theta: theta, Lambda: 0.1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := core.Run(bf, stream.NewSliceSource(items))
		if err != nil {
			t.Fatal(err)
		}
		if !apss.EqualMatchSets(got, oracle, 1e-9) {
			t.Fatalf("foreign ≠ brute force: %d vs %d (seed %d cfg %d θ %v)",
				len(got), len(oracle), seed, cfg, theta)
		}
	})
}
