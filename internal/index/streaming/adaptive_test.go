package streaming

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"sssj/internal/apss"
	"sssj/internal/dimorder"
	"sssj/internal/metrics"
	"sssj/internal/stream"
)

// This file holds the self-tuning layer's correctness battery. The
// non-negotiable contract is output invariance: whatever the re-ranker
// and the engine selector do, the adaptive index must report exactly the
// pair set of the static configuration — a consistent permutation never
// changes dot products, every engine of the ladder is exact, and
// rebuild-by-replay reconstructs precisely the state of an engine whose
// stream began at the window's first item.

// adaptConfigs enumerates the adaptive feature combinations under test.
// The tiny cadence forces many reviews (and therefore many rebuilds)
// over short test streams.
func adaptConfigs() map[string]Adapt {
	return map[string]Adapt{
		"rerank-docfreq": {Rerank: dimorder.DocFreqAsc, Cadence: 16},
		"rerank-maxval":  {Rerank: dimorder.MaxValueDesc, Cadence: 16},
		"auto":           {Auto: true, Cadence: 16},
		"auto+rerank":    {Auto: true, Rerank: dimorder.DocFreqAsc, Cadence: 16},
	}
}

// TestAdaptiveParityStatic feeds identical streams to a static index and
// its adaptive counterpart and requires the same match set for every
// single item, across engines and feature combinations. In the w=4 cells
// the static reference is the 4-shard group, so the adaptive engine is
// checked against the sharded deployment's output too.
func TestAdaptiveParityStatic(t *testing.T) {
	p := apss.Params{Theta: 0.5, Lambda: 0.05}
	for name, ad := range adaptConfigs() {
		for _, kind := range []Kind{INV, L2, L2AP} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%v/w=%d", name, kind, workers), func(t *testing.T) {
					for seed := int64(0); seed < 2; seed++ {
						items := fuzzItems(seed, 300)
						static, err := newTestIndex(kind, p, Options{}, workers)
						if err != nil {
							t.Fatal(err)
						}
						adaptive, err := New(kind, p, Options{Adapt: ad})
						if err != nil {
							t.Fatal(err)
						}
						for i, it := range items {
							want, err1 := static.Add(it)
							got, err2 := adaptive.Add(it)
							if err1 != nil || err2 != nil {
								t.Fatalf("item %d: static err=%v adaptive err=%v", i, err1, err2)
							}
							if !apss.EqualMatchSets(got, want, 1e-9) {
								t.Fatalf("item %d: adaptive diverged from static %v: got %v want %v", i, kind, got, want)
							}
						}
					}
					// Dimension churn exercises expiry during rebuilds.
					items := churnItems(7, 400)
					static, _ := newTestIndex(kind, p, Options{}, workers)
					adaptive, _ := New(kind, p, Options{Adapt: ad})
					for i, it := range items {
						want, _ := static.Add(it)
						got, err := adaptive.Add(it)
						if err != nil {
							t.Fatal(err)
						}
						if !apss.EqualMatchSets(got, want, 1e-9) {
							t.Fatalf("churn item %d: adaptive diverged from static %v", i, kind)
						}
					}
				})
			}
		}
	}
}

// TestAdaptiveAutoPromotes drives a candidate-heavy stream through the
// auto-selector and requires (a) at least one promotion away from INV,
// (b) strict monotonicity — the engine kind never moves down the ladder
// — and (c) re-ranks actually happening when re-ranking is on.
func TestAdaptiveAutoPromotes(t *testing.T) {
	p := apss.Params{Theta: 0.4, Lambda: 0.01} // long horizon → dense window
	ix, err := New(INV, p, Options{Adapt: Adapt{Auto: true, Rerank: dimorder.DocFreqAsc, Cadence: 32}})
	if err != nil {
		t.Fatal(err)
	}
	rank := func(k Kind) int {
		switch k {
		case INV:
			return 0
		case L2:
			return 1
		default:
			return 2
		}
	}
	last := 0
	for _, it := range fuzzItems(3, 600) {
		if _, err := ix.Add(it); err != nil {
			t.Fatal(err)
		}
		st, ok := AdaptInfo(ix)
		if !ok {
			t.Fatal("AdaptInfo not available on adaptive index")
		}
		if r := rank(st.Kind); r < last {
			t.Fatalf("selector demoted: %v", st.Kind)
		} else {
			last = r
		}
	}
	st, _ := AdaptInfo(ix)
	if st.Switches < 1 || st.Kind == INV {
		t.Fatalf("dense stream never promoted: %+v", st)
	}
	if st.Reranks < 1 || st.OrderedDims == 0 {
		t.Fatalf("re-ranker never produced an order: %+v", st)
	}
	if _, ok := AdaptInfo(mustNew(t, INV, p, Options{})); ok {
		t.Fatal("AdaptInfo reported ok for a plain index")
	}
}

func mustNew(t *testing.T, kind Kind, p apss.Params, opts Options) Index {
	t.Helper()
	ix, err := New(kind, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestAdaptiveCounterBound checks the counter-hygiene contract: replay
// work during rebuilds is withheld from the caller's Counters, so the
// adaptive run's candidate count never exceeds the static INV run's
// (INV admits every in-horizon vector sharing a dimension — no engine
// on the ladder generates more), and Items counts each stream item
// exactly once.
func TestAdaptiveCounterBound(t *testing.T) {
	p := apss.Params{Theta: 0.5, Lambda: 0.05}
	items := fuzzItems(11, 500)
	var cInv, cAd metrics.Counters
	static := mustNew(t, INV, p, Options{Counters: &cInv})
	adaptive := mustNew(t, INV, p, Options{Counters: &cAd, Adapt: Adapt{Auto: true, Rerank: dimorder.DocFreqAsc, Cadence: 16}})
	for _, it := range items {
		if _, err := static.Add(it); err != nil {
			t.Fatal(err)
		}
		if _, err := adaptive.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	if cAd.Items != int64(len(items)) {
		t.Fatalf("adaptive Items=%d, want %d (replay must not count)", cAd.Items, len(items))
	}
	if cAd.Candidates > cInv.Candidates {
		t.Fatalf("adaptive candidates %d exceed static INV %d", cAd.Candidates, cInv.Candidates)
	}
	if cAd.Pairs != cInv.Pairs {
		t.Fatalf("pair counts diverge: adaptive %d static %d", cAd.Pairs, cInv.Pairs)
	}
}

// TestAdaptiveCheckpointRoundtrip cuts an adaptive run mid-stream,
// checkpoints it (serialized as a natural-space INV clone — no format
// bump), and restores it twice: once back into an adaptive index and
// once into a plain static one. Both restored runs must report exactly
// the matches the uninterrupted run reports on the remaining stream.
func TestAdaptiveCheckpointRoundtrip(t *testing.T) {
	p := apss.Params{Theta: 0.5, Lambda: 0.05}
	ad := Adapt{Auto: true, Rerank: dimorder.DocFreqAsc, Cadence: 16}
	items := fuzzItems(5, 400)
	cut := len(items) / 2

	uncut := mustNew(t, INV, p, Options{Adapt: ad})
	cutRun := mustNew(t, INV, p, Options{Adapt: ad})
	for _, it := range items[:cut] {
		if _, err := uncut.Add(it); err != nil {
			t.Fatal(err)
		}
		if _, err := cutRun.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := Save(cutRun, &buf); err != nil {
		t.Fatalf("adaptive Save: %v", err)
	}
	blob := buf.Bytes()

	restoredAdaptive, _, err := LoadFull(bytes.NewReader(blob), Options{Adapt: ad})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := AdaptInfo(restoredAdaptive); !ok {
		t.Fatal("restore with Adapt did not produce an adaptive index")
	}
	restoredPlain, _, err := LoadFull(bytes.NewReader(blob), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items[cut:] {
		want, err := uncut.Add(it)
		if err != nil {
			t.Fatal(err)
		}
		gotA, err := restoredAdaptive.Add(it)
		if err != nil {
			t.Fatal(err)
		}
		gotP, err := restoredPlain.Add(it)
		if err != nil {
			t.Fatal(err)
		}
		if !apss.EqualMatchSets(gotA, want, 1e-9) {
			t.Fatalf("tail item %d: restored adaptive diverged from uninterrupted run", i)
		}
		if !apss.EqualMatchSets(gotP, want, 1e-9) {
			t.Fatalf("tail item %d: restored plain diverged from uninterrupted run", i)
		}
	}
}

// TestOrderedCheckpointPostWarmup is the satellite-2 regression: an
// ordered joiner used to be un-checkpointable for its whole life. After
// the warmup closes, Save must serialize the live window mapped back to
// natural dimension space, and a plain restore must continue with
// exactly the matches the uninterrupted ordered run reports.
func TestOrderedCheckpointPostWarmup(t *testing.T) {
	p := apss.Params{Theta: 0.5, Lambda: 0.05}
	order := WarmupOrder{Strategy: dimorder.DocFreqAsc, Items: 40}
	items := fuzzItems(8, 300)
	cut := 150 // well past the warmup

	uncut := mustNew(t, L2, p, Options{Order: order})
	cutRun := mustNew(t, L2, p, Options{Order: order})
	for _, it := range items[:cut] {
		if _, err := uncut.Add(it); err != nil {
			t.Fatal(err)
		}
		if _, err := cutRun.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := Save(cutRun, &buf); err != nil {
		t.Fatalf("post-warmup ordered Save: %v", err)
	}
	restored, err := Load(bytes.NewReader(buf.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items[cut:] {
		want, _ := uncut.Add(it)
		got, err := restored.Add(it)
		if err != nil {
			t.Fatal(err)
		}
		if !apss.EqualMatchSets(got, want, 1e-9) {
			t.Fatalf("tail item %d: restored run diverged from uninterrupted ordered run", i)
		}
	}
}

// TestOrderedCheckpointMidWarmup is the other half of satellite 2: a
// checkpoint taken while the warmup buffer is still open would silently
// lose the buffered items' matches, so Save must refuse with a typed
// WarmupOpenError reporting the buffered count.
func TestOrderedCheckpointMidWarmup(t *testing.T) {
	p := apss.Params{Theta: 0.5, Lambda: 0.05}
	ix := mustNew(t, L2, p, Options{Order: WarmupOrder{Strategy: dimorder.DocFreqAsc, Items: 100}})
	items := fuzzItems(2, 30)
	for _, it := range items {
		if _, err := ix.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	err := Save(ix, &bytes.Buffer{})
	if err == nil {
		t.Fatal("mid-warmup Save succeeded; buffered matches would be lost")
	}
	if !errors.Is(err, ErrWarmupOpen) {
		t.Fatalf("want ErrWarmupOpen, got %v", err)
	}
	var woe *WarmupOpenError
	if !errors.As(err, &woe) || woe.Buffered != len(items) {
		t.Fatalf("want WarmupOpenError{Buffered: %d}, got %#v", len(items), err)
	}
	// Draining the warmup unblocks checkpointing.
	o := ix.(*orderedIndex)
	if _, err := o.FinishWarmup(); err != nil {
		t.Fatal(err)
	}
	if err := Save(ix, &bytes.Buffer{}); err != nil {
		t.Fatalf("post-drain Save: %v", err)
	}
}

// errorAfterSink returns a sink failing on every match past the first n.
func errorAfterSink(n int, boom error) apss.Sink {
	seen := 0
	return func(apss.Match) error {
		seen++
		if seen > n {
			return boom
		}
		return nil
	}
}

// TestFinishWarmupSinkError is the satellite-3 regression: when the sink
// fails mid-replay, FinishWarmupTo must still index every buffered item
// (the PR 2 sink contract: an emit error stops reporting, never
// indexing), return the first sink error, and leave the wrapper fully
// usable — items indexed after the failure point must be findable.
func TestFinishWarmupSinkError(t *testing.T) {
	p := apss.Params{Theta: 0.3, Lambda: 0.01}
	boom := errors.New("sink exploded")
	ix := mustNew(t, L2, p, Options{Order: WarmupOrder{Strategy: dimorder.DocFreqAsc, Items: 50}}).(*orderedIndex)
	// A near-duplicate stream: every adjacent pair matches, so the replay
	// has plenty of matches to trip the sink on.
	items := fuzzItems(4, 40)
	for _, it := range items {
		if _, err := ix.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.FinishWarmupTo(errorAfterSink(1, boom)); !errors.Is(err, boom) {
		t.Fatalf("want the first sink error, got %v", err)
	}
	if got := ix.Size().Residuals; got != len(items) {
		t.Fatalf("replay stopped early: %d of %d buffered items indexed", got, len(items))
	}
	// The wrapper stays usable and the post-error items are queryable:
	// re-adding the last item at a later time must match it.
	last := items[len(items)-1]
	probe := stream.Item{ID: 999, Time: last.Time + 0.1, Vec: last.Vec}
	ms, err := ix.Add(probe)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range ms {
		if m.X == last.ID || m.Y == last.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("item indexed during the failed replay is not queryable; matches=%v", ms)
	}
}

// TestAdaptRejectsInvalidCombos pins the Options decision table around
// the adaptive layer.
func TestAdaptRejectsInvalidCombos(t *testing.T) {
	p := apss.Params{Theta: 0.5, Lambda: 0.05}
	ad := Adapt{Auto: true}
	if _, err := New(INV, p, Options{Adapt: ad, Order: WarmupOrder{Strategy: dimorder.DocFreqAsc, Items: 5}}); !errors.Is(err, ErrAdapt) {
		t.Fatalf("Adapt+Order accepted: %v", err)
	}
	if _, err := New(L2, p, Options{Adapt: ad, Ablations: Ablations{NoL2Bound: true}}); !errors.Is(err, ErrAdapt) {
		t.Fatalf("Adapt+pruning ablation accepted: %v", err)
	}
	if _, err := New(INV, p, Options{Adapt: ad, Shard: Shard{ID: 0, N: 2}}); !errors.Is(err, ErrShard) {
		t.Fatalf("Adapt on a cluster worker accepted: %v", err)
	}
	if _, err := New(INV, p, Options{Adapt: Adapt{Auto: true, Cadence: -1}}); !errors.Is(err, ErrAdapt) {
		t.Fatalf("negative cadence accepted: %v", err)
	}
	// The scalar-kernel selector is not a pruning ablation and composes.
	if _, err := New(L2, p, Options{Adapt: ad, Ablations: Ablations{ScalarKernel: true}}); err != nil {
		t.Fatalf("Adapt+ScalarKernel rejected: %v", err)
	}
}

// TestAdaptiveAdvanceBarrier covers the event-time face of the wrapper:
// a watermark barrier forwards to the inner engine, prunes the replay
// buffer, and leaves the tail output identical to a static engine that
// saw the same barrier; a stale barrier is a no-op. Size and Params
// forward to the engine currently running.
func TestAdaptiveAdvanceBarrier(t *testing.T) {
	p := apss.Params{Theta: 0.5, Lambda: 0.05}
	items := fuzzItems(9, 200)
	half := len(items) / 2
	ad := mustNew(t, INV, p, Options{Counters: &metrics.Counters{},
		Adapt: Adapt{Rerank: dimorder.DocFreqAsc, Cadence: 16}})
	st := mustNew(t, INV, p, Options{Counters: &metrics.Counters{}})
	for _, it := range items[:half] {
		if _, err := ad.Add(it); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	barrier := (items[half-1].Time + items[half].Time) / 2
	for _, ix := range []Index{ad, st} {
		adv := ix.(Advancer)
		if err := adv.Advance(barrier); err != nil {
			t.Fatal(err)
		}
		if err := adv.Advance(barrier - 1); err != nil { // stale: no-op
			t.Fatal(err)
		}
	}
	for i, it := range items[half:] {
		got, err := ad.Add(it)
		if err != nil {
			t.Fatal(err)
		}
		want, err := st.Add(it)
		if err != nil {
			t.Fatal(err)
		}
		if !apss.EqualMatchSets(got, want, 1e-9) {
			t.Fatalf("tail item %d: adaptive diverged after the barrier", i)
		}
	}
	if ad.Params() != p {
		t.Fatalf("Params() = %+v, want %+v", ad.Params(), p)
	}
	if got, want := ad.Size().Residuals, st.Size().Residuals; got != want {
		t.Fatalf("Size().Residuals = %d, adaptive window diverged from static %d", got, want)
	}
}

// TestOrderedAdvanceAndErrorText covers the ordered wrapper's barrier
// (a no-op while the warmup buffers, forwarded once active) and the
// WarmupOpenError message, which must name the buffered count.
func TestOrderedAdvanceAndErrorText(t *testing.T) {
	p := apss.Params{Theta: 0.5, Lambda: 0.05}
	items := fuzzItems(10, 60)
	ix := mustNew(t, L2, p, Options{Counters: &metrics.Counters{},
		Order: WarmupOrder{Strategy: dimorder.DocFreqAsc, Items: 30}})
	adv := ix.(Advancer)
	for _, it := range items[:10] {
		if _, err := ix.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	if err := adv.Advance(items[9].Time); err != nil { // mid-warmup: buffered, no-op
		t.Fatal(err)
	}
	for _, it := range items[10:] {
		if _, err := ix.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	if err := adv.Advance(items[len(items)-1].Time + 1); err != nil {
		t.Fatal(err)
	}
	msg := (&WarmupOpenError{Buffered: 7}).Error()
	if !strings.Contains(msg, "7 buffered") || !errors.Is(&WarmupOpenError{}, ErrWarmupOpen) {
		t.Fatalf("WarmupOpenError contract broken: %q", msg)
	}
}
