package sssj

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sssj/internal/apss"
	"sssj/internal/datagen"
)

// deployCell is one cell of a parity grid: the options, and the width
// of the cluster the cell runs on (> 1; see clusterJoiner) or 1 for the
// sequential Streaming engine, 0 for MiniBatch.
type deployCell struct {
	opts    Options
	workers int
}

func (c deployCell) name() string {
	return fmt.Sprintf("%v-%v-w%d", c.opts.Framework, c.opts.Index, c.workers)
}

// parityCells enumerates the grid of the sink-vs-slice parity tests:
// STR × {INV, L2AP, L2} × {sequential, 4-worker cluster}, plus
// MB × {INV, L2AP, L2}.
func parityCells(theta, lambda float64) []deployCell {
	var out []deployCell
	for _, ix := range []IndexKind{IndexINV, IndexL2AP, IndexL2} {
		for _, w := range []int{1, 4} {
			out = append(out, deployCell{Options{Theta: theta, Lambda: lambda, Framework: Streaming, Index: ix}, w})
		}
	}
	for _, ix := range []IndexKind{IndexINV, IndexL2AP, IndexL2} {
		out = append(out, deployCell{Options{Theta: theta, Lambda: lambda, Framework: MiniBatch, Index: ix}, 0})
	}
	return out
}

// TestSinkSliceIteratorParity drives the same stream through the slice
// API (SelfJoin), the sink API (SelfJoinCtx), and the iterator
// (Matches), and requires identical match sets from all three, across
// the framework × index grid. The cluster cells compare the cluster
// joiner's slice path (Process, Flush) and sink path (ProcessTo,
// FlushTo) against the sequential SelfJoin instead: the iterator and
// the one-shot helpers always build a sequential engine.
func TestSinkSliceIteratorParity(t *testing.T) {
	items := datagen.RCV1Profile().Scaled(0.04).Generate(11)
	for _, cell := range parityCells(0.6, 0.05) {
		opts := cell.opts
		t.Run(cell.name(), func(t *testing.T) {
			want, err := SelfJoin(opts, items)
			if err != nil {
				t.Fatal(err)
			}
			if cell.workers > 1 {
				var viaSlice []Match
				j := clusterJoiner(t, opts, cell.workers)
				for _, it := range items {
					ms, err := j.Process(it)
					if err != nil {
						t.Fatal(err)
					}
					viaSlice = append(viaSlice, ms...)
				}
				rest, err := j.Flush()
				if err != nil {
					t.Fatal(err)
				}
				viaSlice = append(viaSlice, rest...)
				if !apss.EqualMatchSets(viaSlice, want, 1e-12) {
					t.Fatalf("cluster slice path diverged: %d vs %d matches", len(viaSlice), len(want))
				}
				if viaSink := clusterJoin(t, opts, cell.workers, items); !apss.EqualMatchSets(viaSink, want, 1e-12) {
					t.Fatalf("cluster sink path diverged: %d vs %d matches", len(viaSink), len(want))
				}
				return
			}
			var viaSink []Match
			if err := SelfJoinCtx(context.Background(), opts, items, CollectInto(&viaSink)); err != nil {
				t.Fatal(err)
			}
			if !apss.EqualMatchSets(viaSink, want, 1e-12) {
				t.Fatalf("sink path diverged: %d vs %d matches", len(viaSink), len(want))
			}
			var viaIter []Match
			for m, err := range Matches(context.Background(), opts, SliceSource(items)) {
				if err != nil {
					t.Fatal(err)
				}
				viaIter = append(viaIter, m)
			}
			if !apss.EqualMatchSets(viaIter, want, 1e-12) {
				t.Fatalf("iterator diverged: %d vs %d matches", len(viaIter), len(want))
			}
		})
	}
}

// nearDupStream builds a stream of alternating near-identical vectors
// arriving in quick succession, so every item matches its in-horizon
// predecessors — a guaranteed-match workload for emission tests.
func nearDupStream(n int) []Item {
	items := make([]Item, n)
	for i := range items {
		vals := []float64{1, 2, 2}
		if i%2 == 1 {
			vals = []float64{1, 2, 1.9}
		}
		v, err := NewVector([]uint32{1, 2, 3}, vals)
		if err != nil {
			panic(err)
		}
		items[i] = Item{ID: uint64(i), Time: float64(i) * 0.5, Vec: v}
	}
	return items
}

// TestIteratorEarlyExit breaks out of the Matches loop after the first
// match and requires the iteration to stop cleanly (no panic, no
// further yields).
func TestIteratorEarlyExit(t *testing.T) {
	items := nearDupStream(50)
	opts := Options{Theta: 0.7, Lambda: 0.1}
	seen := 0
	for m, err := range Matches(context.Background(), opts, SliceSource(items)) {
		if err != nil {
			t.Fatal(err)
		}
		if m.X == m.Y {
			t.Fatalf("degenerate match %+v", m)
		}
		seen++
		break
	}
	if seen != 1 {
		t.Fatalf("saw %d matches after break", seen)
	}
}

// TestMatchesContextCancel cancels the context mid-stream and requires
// the iterator to surface ctx.Err() as its final yield.
func TestMatchesContextCancel(t *testing.T) {
	items := nearDupStream(50)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last error
	n := 0
	for _, err := range Matches(ctx, Options{Theta: 0.7, Lambda: 0.1}, SliceSource(items)) {
		last = err
		if err != nil {
			break
		}
		n++
		cancel()
	}
	if !errors.Is(last, context.Canceled) {
		t.Fatalf("want context.Canceled after %d matches, got %v", n, last)
	}
}

// TestSinkErrorLeavesJoinerReusable stops consumption mid-item via a
// sink error and requires (a) the item to still be indexed and (b) the
// joiner to keep producing exactly the reference match stream for every
// later item — under the sequential engine and on a 4-worker cluster,
// whose coordinator collects every worker's matches before it emits any.
func TestSinkErrorLeavesJoinerReusable(t *testing.T) {
	items := nearDupStream(40)
	const stopAt = 20
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			opts := Options{Theta: 0.7, Lambda: 0.1}

			// Reference: per-item match sets from an uninterrupted
			// sequential run.
			ref, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]Match, len(items))
			for i, it := range items {
				if want[i], err = ref.Process(it); err != nil {
					t.Fatal(err)
				}
			}

			var j *Joiner
			if workers > 1 {
				j = clusterJoiner(t, opts, workers)
			} else if j, err = New(opts); err != nil {
				t.Fatal(err)
			}
			boom := errors.New("boom")
			for i, it := range items {
				if i == stopAt {
					// Abort consumption at the first match of this item.
					calls := 0
					err := j.ProcessTo(it, func(Match) error { calls++; return boom })
					if !errors.Is(err, boom) {
						t.Fatalf("sink error not returned: %v", err)
					}
					if calls != 1 {
						t.Fatalf("sink called %d times after erroring", calls)
					}
					continue
				}
				got, err := j.Process(it)
				if err != nil {
					t.Fatal(err)
				}
				if !apss.EqualMatchSets(got, want[i], 1e-12) {
					t.Fatalf("item %d: diverged after early exit (%d vs %d matches)", i, len(got), len(want[i]))
				}
			}
		})
	}
}

// TestParallelSinkEmissionRace drives cluster joiners under an external
// sink; run with -race this verifies the emission path never calls the
// sink concurrently, although the coordinator's workers compute side by
// side.
func TestParallelSinkEmissionRace(t *testing.T) {
	items := datagen.TweetsProfile().Scaled(0.05).Generate(3)
	opts := Options{Theta: 0.5, Lambda: 0.05}
	want, err := SelfJoin(opts, items)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		j := clusterJoiner(t, opts, workers)
		var got []Match
		for _, it := range items {
			if err := j.ProcessTo(it, func(m Match) error {
				got = append(got, m)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.FlushTo(CollectInto(&got)); err != nil {
			t.Fatal(err)
		}
		if !apss.EqualMatchSets(got, want, 1e-12) {
			t.Fatalf("w%d: %d vs %d matches", workers, len(got), len(want))
		}
	}
}

// TestErrTimeRegressionTyped verifies the typed error contract: equal
// timestamps pass, regressions fail with ErrTimeRegression before
// touching the index, and the joiner stays usable afterwards.
func TestErrTimeRegressionTyped(t *testing.T) {
	v, _ := NewVector([]uint32{1, 2}, []float64{1, 1})
	for _, fw := range []Framework{Streaming, MiniBatch} {
		j, err := New(Options{Theta: 0.5, Lambda: 0.1, Framework: fw})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Process(Item{ID: 0, Time: 5, Vec: v}); err != nil {
			t.Fatal(err)
		}
		if _, err := j.Process(Item{ID: 1, Time: 5, Vec: v}); err != nil {
			t.Fatalf("%v: equal timestamps rejected: %v", fw, err)
		}
		if _, err := j.Process(Item{ID: 2, Time: 1, Vec: v}); !errors.Is(err, ErrTimeRegression) {
			t.Fatalf("%v: want ErrTimeRegression, got %v", fw, err)
		}
		// The regressing item was rejected without corrupting the clock.
		if _, err := j.Process(Item{ID: 3, Time: 6, Vec: v}); err != nil {
			t.Fatalf("%v: joiner unusable after regression: %v", fw, err)
		}
	}
}

// TestTopKTimeRegressionTyped verifies the top-k joiner follows the
// same typed time contract as Joiner.
func TestTopKTimeRegressionTyped(t *testing.T) {
	v, _ := NewVector([]uint32{1, 2}, []float64{1, 1})
	tk, err := NewTopK(Options{Theta: 0.5, Lambda: 0.1, K: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Process(Item{ID: 0, Time: 5, Vec: v}); err != nil {
		t.Fatal(err)
	}
	if err := tk.ProcessTo(Item{ID: 1, Time: 1, Vec: v}, func(Neighbors) error { return nil }); !errors.Is(err, ErrTimeRegression) {
		t.Fatalf("want ErrTimeRegression, got %v", err)
	}
	if _, err := tk.Process(Item{ID: 2, Time: 6, Vec: v}); err != nil {
		t.Fatalf("top-k unusable after regression: %v", err)
	}
}

// TestResumeTimeRegressionTyped covers the restored-joiner path, where
// the public clock is unknown until the engine rejects the item.
func TestResumeTimeRegressionTyped(t *testing.T) {
	v, _ := NewVector([]uint32{1, 2}, []float64{1, 1})
	j, err := New(Options{Theta: 0.5, Lambda: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Process(Item{ID: 0, Time: 10, Vec: v}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := j.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	j2, err := Resume(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Process(Item{ID: 1, Time: 3, Vec: v}); !errors.Is(err, ErrTimeRegression) {
		t.Fatalf("want ErrTimeRegression from resumed joiner, got %v", err)
	}
}

// TestOptionsDecisionTable spot-checks the unified support matrix:
// combinations that used to be silently ignored or scattered across
// operators now all fail with ErrUnsupported.
func TestOptionsDecisionTable(t *testing.T) {
	good, _ := NewVector([]uint32{1, 2}, []float64{3, 4})
	cases := []struct {
		name string
		err  error
	}{
		{"stream-with-K", func() error {
			_, err := New(Options{Theta: 0.5, Lambda: 0.1, K: 2})
			return err
		}()},
		{"topk-without-K", func() error {
			_, err := NewTopK(Options{Theta: 0.5, Lambda: 0.1}, 0)
			return err
		}()},
		{"topk-under-warmup", func() error {
			_, err := NewTopK(Options{Theta: 0.5, Lambda: 0.1,
				DimOrder: DimOrder{Strategy: OrderDocFreqAsc, WarmupItems: 8}}, 2)
			return err
		}()},
		{"batch-with-kernel", func() error {
			_, err := BatchJoin([]Vector{good}, 0.5, BatchOptions{Kernel: SlidingWindow{Tau: 1}})
			return err
		}()},
		{"resume-minibatch", func() error {
			_, err := Resume(bytes.NewReader(nil), Options{Framework: MiniBatch})
			return err
		}()},
		{"resume-dimorder", func() error {
			_, err := Resume(bytes.NewReader(nil), Options{
				DimOrder: DimOrder{Strategy: OrderDocFreqAsc, WarmupItems: 8}})
			return err
		}()},
	}
	for _, c := range cases {
		if !errors.Is(c.err, ErrUnsupported) {
			t.Fatalf("%s: want ErrUnsupported, got %v", c.name, c.err)
		}
	}

	// The K field and the k parameter are the same knob.
	viaField, err := NewTopK(Options{Theta: 0.5, Lambda: 0.1, K: 3}, 0)
	if err != nil || viaField == nil {
		t.Fatalf("Options.K rejected: %v", err)
	}
}

// TestBatchJoinTo verifies the push-based batch join agrees with the
// slice API and honors the dimension-ordering option.
func TestBatchJoinTo(t *testing.T) {
	a, _ := NewVector([]uint32{1, 2}, []float64{3, 4})
	b, _ := NewVector([]uint32{1, 2}, []float64{4, 3})
	c, _ := NewVector([]uint32{9}, []float64{1})
	vs := []Vector{a, b, c}
	for _, opts := range []BatchOptions{
		{},
		{Index: IndexL2AP},
		{DimOrder: DimOrder{Strategy: OrderDocFreqAsc}},
	} {
		want, err := BatchJoin(vs, 0.9, opts)
		if err != nil {
			t.Fatal(err)
		}
		var got []BatchPair
		if err := BatchJoinTo(vs, 0.9, opts, func(p BatchPair) error {
			got = append(got, p)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || len(got) != 1 {
			t.Fatalf("%+v: %d pairs via sink, %d via slice", opts, len(got), len(want))
		}
	}
}

// TestTopKSinkParity drives the top-k joiner through ProcessTo/FlushTo
// and requires the same neighborhoods as Process/Flush.
func TestTopKSinkParity(t *testing.T) {
	items := nearDupStream(30)
	mk := func() *TopKJoiner {
		tk, err := NewTopK(Options{Theta: 0.5, Lambda: 0.1}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}
	ref := mk()
	var want []Neighbors
	for _, it := range items {
		ns, err := ref.Process(it)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, ns...)
	}
	tail, err := ref.Flush()
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, tail...)

	tk := mk()
	var got []Neighbors
	sink := func(n Neighbors) error {
		got = append(got, n)
		return nil
	}
	for _, it := range items {
		if err := tk.ProcessTo(it, sink); err != nil {
			t.Fatal(err)
		}
	}
	if err := tk.FlushTo(sink); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d neighborhoods via sink, %d via slice", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || len(got[i].Matches) != len(want[i].Matches) {
			t.Fatalf("neighborhood %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestProcessToAllocatesNothing: once the window is warm, ProcessTo on
// in-memory items allocates nothing — with δ = 0 and through the reorder
// buffer with δ > 0 alike. The gate, its bound Emit and the release
// callback are built once per Joiner.
func TestProcessToAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pool := make([]Vector, 64)
	for i := range pool {
		dims := make([]uint32, 0, 8)
		vals := make([]float64, 0, 8)
		for d := uint32(r.Intn(20)); len(dims) < 8; d += 1 + uint32(r.Intn(40)) {
			dims = append(dims, d)
			vals = append(vals, 0.1+r.Float64())
		}
		v, err := NewVector(dims, vals)
		if err != nil {
			t.Fatal(err)
		}
		pool[i] = v.Normalize()
	}
	for _, delta := range []float64{0, 20} {
		j, err := New(Options{Theta: 0.5, Lambda: 0.1, Lateness: delta})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		sink := func(Match) error { return nil }
		process := func() {
			// τ ≈ 6.9 at 0.1 per item keeps ~70 items live.
			if err := j.ProcessTo(Item{ID: uint64(n), Time: float64(n) / 10, Vec: pool[n%len(pool)]}, sink); err != nil {
				t.Fatal(err)
			}
			n++
		}
		for range 5000 {
			process()
		}
		if allocs := testing.AllocsPerRun(1000, process); allocs != 0 {
			t.Fatalf("δ=%v: ProcessTo allocates %v objects per item", delta, allocs)
		}
		if !reflect.ValueOf(j.gate).IsZero() {
			t.Fatalf("δ=%v: the Joiner keeps the last call's sink", delta)
		}
	}
}
