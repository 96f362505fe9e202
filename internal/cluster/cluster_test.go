package cluster

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"sssj/internal/apss"
	"sssj/internal/core"
	"sssj/internal/index/streaming"
	"sssj/internal/leakcheck"
	"sssj/internal/server"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// TestMain fails the package if any test leaves a goroutine running:
// every coordinator, worker server and connection must wind down.
func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m)) }

// genItems builds a deterministic stream over a narrow vocabulary: sparse
// normalized vectors with awkward float coordinates, frequent near-repeats
// (so matches actually occur), strictly increasing times, sequential IDs.
func genItems(seed int64, n int, foreign bool) []stream.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]stream.Item, 0, n)
	var prev vec.Vector
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.Float64() / 2
		var v vec.Vector
		if prev.Dims != nil && rng.Float64() < 0.35 {
			// Perturbed repeat of the previous vector: a likely match.
			vals := append([]float64(nil), prev.Vals...)
			vals[rng.Intn(len(vals))] *= 1 + (rng.Float64()-0.5)/8
			v = vec.MustNew(append([]uint32(nil), prev.Dims...), vals)
		} else {
			nnz := 1 + rng.Intn(5)
			seen := map[uint32]bool{}
			var dims []uint32
			var vals []float64
			for len(dims) < nnz {
				d := uint32(rng.Intn(25))
				if seen[d] {
					continue
				}
				seen[d] = true
				dims = append(dims, d)
				vals = append(vals, 0.05+rng.Float64())
			}
			v = vec.MustNew(dims, vals)
		}
		prev = v
		it := stream.Item{ID: uint64(i), Time: t, Vec: v.Normalize()}
		if foreign && i%2 == 1 {
			it.Side = apss.SideB
		}
		items = append(items, it)
	}
	return items
}

// runSingle is the oracle: one sequential single-process engine over the
// in-order stream.
func runSingle(t *testing.T, kind streaming.Kind, p apss.Params, foreign bool, items []stream.Item) []apss.Match {
	t.Helper()
	j, err := core.NewSTRFull(kind, p, streaming.Options{Foreign: foreign})
	if err != nil {
		t.Fatal(err)
	}
	var out []apss.Match
	for _, it := range items {
		ms, err := j.Add(it)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ms...)
	}
	return out
}

// TestClusterParityGrid pins the acceptance battery: {1,2,4}-worker
// clusters are bit-identical (eps 0) to the single-process engine across
// {INV, L2, L2AP} × {self, foreign} × lateness {0, δ > 0}. Under δ > 0
// the cluster ingests a deterministic within-δ shuffle of the stream and
// must still equal the in-order single-process run — the PR 6 oracle,
// now across process boundaries.
func TestClusterParityGrid(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.1}
	const delta = 3.0
	for _, kind := range []streaming.Kind{streaming.INV, streaming.L2, streaming.L2AP} {
		for _, foreign := range []bool{false, true} {
			items := genItems(11, 160, foreign)
			want := runSingle(t, kind, p, foreign, items)
			if len(want) == 0 {
				t.Fatalf("%v foreign=%v: vacuous oracle", kind, foreign)
			}
			for _, lateness := range []float64{0, delta} {
				feed := items
				if lateness > 0 {
					feed = stream.ShuffleWithin(items, lateness*0.9, 7)
				}
				for _, n := range []int{1, 2, 4} {
					name := kind.String()
					t.Run(name, func(t *testing.T) {
						l, err := StartLocal(kind, p, LocalOptions{Workers: n, Foreign: foreign, Lateness: lateness})
						if err != nil {
							t.Fatal(err)
						}
						defer l.Close()
						var got []apss.Match
						sink := apss.Collector(&got)
						for _, it := range feed {
							if err := l.AddTo(it, sink); err != nil {
								t.Fatal(err)
							}
						}
						if lateness > 0 {
							// Drain the reorder buffer.
							last := items[len(items)-1].Time
							if err := l.AdvanceTo(last+lateness+1, sink); err != nil {
								t.Fatal(err)
							}
						}
						if !apss.EqualMatchSets(got, want, 0) {
							onlyC, onlyS := apss.DiffMatchSets(got, want)
							t.Fatalf("foreign=%v lateness=%v n=%d: cluster %d vs single %d matches; only-cluster=%v only-single=%v",
								foreign, lateness, n, len(got), len(want), onlyC, onlyS)
						}
					})
				}
			}
		}
	}
}

// TestClusterCounters: stream-level counters come from the coordinator
// (no broadcast double-counting), work counters sum over workers, and
// IndexSize aggregates occupancy.
func TestClusterCounters(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.1}
	items := genItems(3, 80, false)
	want := runSingle(t, streaming.L2AP, p, false, items)
	l, err := StartLocal(streaming.L2AP, p, LocalOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var got []apss.Match
	for _, it := range items {
		ms, err := l.Add(it)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ms...)
	}
	st, err := l.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Items != int64(len(items)) {
		t.Fatalf("Items = %d, want %d (broadcast must not double-count)", st.Items, len(items))
	}
	if st.Pairs != int64(len(want)) || len(got) != len(want) {
		t.Fatalf("Pairs = %d, emitted %d, want %d", st.Pairs, len(got), len(want))
	}
	if st.EntriesTraversed == 0 || st.IndexedEntries == 0 {
		t.Fatalf("work counters empty: %+v", st)
	}
	if sz := l.IndexSize(); sz.PostingEntries == 0 && sz.Residuals == 0 {
		t.Fatalf("empty aggregate IndexSize: %+v", sz)
	}
}

// TestClusterTimeOrder: the coordinator enforces the global contract even
// when selective routing would let a lagging worker accept the regression.
func TestClusterTimeOrder(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.1}
	l, err := StartLocal(streaming.L2, p, LocalOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	v1 := vec.MustNew([]uint32{2}, []float64{1}).Normalize() // owner: worker 0
	v2 := vec.MustNew([]uint32{3}, []float64{1}).Normalize() // owner: worker 1
	if _, err := l.Add(stream.Item{ID: 0, Time: 10, Vec: v1}); err != nil {
		t.Fatal(err)
	}
	// Worker 1 has seen nothing; a sequential engine still rejects this.
	if _, err := l.Add(stream.Item{ID: 1, Time: 5, Vec: v2}); !errors.Is(err, streaming.ErrTimeOrder) {
		t.Fatalf("regression accepted: %v", err)
	}
}

// TestWorkerDeathMidStream: killing a worker surfaces a structured
// WorkerError naming it and the merge loop never hangs; TestMain checks
// that no goroutines leak after Close.
func TestWorkerDeathMidStream(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.1}
	l, err := StartLocal(streaming.L2AP, p, LocalOptions{
		Workers: 2,
		Dialer:  server.Dialer{DialTimeout: time.Second, IOTimeout: 2 * time.Second, Retries: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	items := genItems(5, 40, false)
	for _, it := range items[:20] {
		if _, err := l.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	l.StopWorker(1)
	var werr *WorkerError
	for _, it := range items[20:] {
		if _, err := l.Add(it); err != nil {
			if !errors.As(err, &werr) {
				t.Fatalf("want *WorkerError, got %T: %v", err, err)
			}
			break
		}
	}
	if werr == nil {
		t.Fatal("no error after killing worker 1")
	}
	if werr.Index != 1 || werr.Addr == "" {
		t.Fatalf("worker attribution: %+v", werr)
	}
	if !strings.Contains(werr.Error(), "worker 1") {
		t.Fatalf("error text %q does not name the worker", werr.Error())
	}
	// Stats also attributes the dead worker instead of hanging.
	if _, err := l.Stats(); err == nil || !errors.As(err, &werr) {
		t.Fatalf("Stats after death: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Logf("close: %v (tolerated: worker 1 is gone)", err)
	}
}

// TestClusterWatermark: the coordinator's watermark mirrors the
// single-process event-time tier.
func TestClusterWatermark(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.1}
	l, err := StartLocal(streaming.L2, p, LocalOptions{Workers: 2, Lateness: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if wm := l.Watermark(); !math.IsInf(wm, -1) {
		t.Fatalf("initial watermark %v", wm)
	}
	v := vec.MustNew([]uint32{1, 2}, []float64{1, 1}).Normalize()
	if _, err := l.Add(stream.Item{ID: 0, Time: 10, Vec: v}); err != nil {
		t.Fatal(err)
	}
	if wm := l.Watermark(); wm != 8 {
		t.Fatalf("watermark %v, want 8", wm)
	}
	// An ADV heartbeat advances workers to the watermark, not the raw t.
	if err := l.AdvanceTo(20, nil); err != nil {
		t.Fatal(err)
	}
	if wm := l.Watermark(); wm != 18 {
		t.Fatalf("watermark %v, want 18", wm)
	}
}

// TestConnectValidation covers the coordinator's config rejections.
func TestConnectValidation(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.1}
	if _, err := Connect(Config{Params: p}); err == nil {
		t.Fatal("no workers accepted")
	}
	if _, err := Connect(Config{Params: p, Workers: []string{"x"}, Lateness: math.Inf(1)}); err == nil {
		t.Fatal("infinite lateness accepted")
	}
	var werr *WorkerError
	if _, err := Connect(Config{Params: p, Workers: []string{"127.0.0.1:1"},
		Dialer: server.Dialer{DialTimeout: 50 * time.Millisecond}}); !errors.As(err, &werr) || werr.Index != 0 {
		t.Fatalf("unreachable worker: %v", err)
	}
}

// TestCoordinatorJoinerSurface pins the rest of the Joiner-shaped
// surface: Flush/FlushTo are no-ops (STR workers buffer nothing), the
// strict-mode watermark is -Inf and a strict ADV fans out to the
// workers as an engine barrier (stale ones are no-ops), and WorkerError
// unwraps to its cause.
func TestCoordinatorJoinerSurface(t *testing.T) {
	l, err := StartLocal(streaming.L2, apss.Params{Theta: 0.7, Lambda: 0.1}, LocalOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	items := genItems(11, 30, false)
	for _, it := range items[:20] {
		if _, err := l.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	if ms, err := l.Flush(); err != nil || len(ms) != 0 {
		t.Fatalf("Flush = %v, %v; want empty no-op", ms, err)
	}
	if err := l.FlushTo(func(apss.Match) error { return nil }); err != nil {
		t.Fatalf("FlushTo: %v", err)
	}
	if wm := l.Watermark(); !math.IsInf(wm, -1) {
		t.Fatalf("strict-mode watermark = %v, want -Inf", wm)
	}
	// A strict barrier past the last item expires the workers' horizons…
	barrier := items[19].Time + 1000
	if err := l.AdvanceTo(barrier, nil); err != nil {
		t.Fatal(err)
	}
	// …so the pre-barrier neighborhood is gone: replaying an old near
	// neighbor (fresh timestamp) finds nothing.
	far := items[19]
	far.ID, far.Time = 999, barrier
	ms, err := l.Add(far)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("post-barrier item matched %d expired partners", len(ms))
	}
	// A stale barrier is a no-op, not an error.
	if err := l.AdvanceTo(barrier-500, nil); err != nil {
		t.Fatalf("stale barrier: %v", err)
	}
	we := &WorkerError{Index: 1, Addr: "x", Err: streaming.ErrTimeOrder}
	if !errors.Is(we, streaming.ErrTimeOrder) {
		t.Fatal("WorkerError does not unwrap to its cause")
	}
}
