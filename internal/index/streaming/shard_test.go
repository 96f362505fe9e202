package streaming

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"sssj/internal/apss"
	"sssj/internal/dimorder"
	"sssj/internal/metrics"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// runShardCluster drives items through an n-worker group of shard
// engines under the coordinator's routing (Route), deduplicating each
// item's matches by partner across workers (apss.DedupPartners). It returns the merged stream
// and the number of duplicate emissions removed — the parity tests
// assert the dedup path is actually exercised.
func runShardCluster(t *testing.T, kind Kind, p apss.Params, n int, foreign bool, items []stream.Item) ([]apss.Match, int) {
	t.Helper()
	return driveShardCluster(t, kind, p, n, foreign, items, nil)
}

// driveShardCluster is runShardCluster with a hook that sees every
// worker's own matches for every item routed to it, before the dedup.
func driveShardCluster(t *testing.T, kind Kind, p apss.Params, n int, foreign bool, items []stream.Item,
	onAdd func(w int, ix Index, it stream.Item, ms []apss.Match)) ([]apss.Match, int) {
	t.Helper()
	workers := make([]Index, n)
	for i := range workers {
		ix, err := New(kind, p, Options{Shard: Shard{ID: i, N: n}, Foreign: foreign})
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = ix
	}
	var out []apss.Match
	dups := 0
	for _, it := range items {
		var all []apss.Match
		for _, w := range Route(kind, n, it.Vec.Dims, nil) {
			ms, err := workers[w].Add(it)
			if err != nil {
				t.Fatal(err)
			}
			if onAdd != nil {
				onAdd(w, workers[w], it, ms)
			}
			all = append(all, ms...)
		}
		merged := apss.DedupPartners(all)
		dups += len(all) - len(merged)
		out = append(out, merged...)
	}
	return out, dups
}

// runCounted is runKind that also returns the index's counters.
func runCounted(t *testing.T, kind Kind, p apss.Params, opts Options, items []stream.Item) ([]apss.Match, metrics.Counters) {
	t.Helper()
	var c metrics.Counters
	opts.Counters = &c
	return runKind(t, kind, p, opts, 0, items), c
}

// TestShardClusterParity: for every kind, an n-worker group of shard
// engines under coordinator routing must emit exactly the sequential
// engine's matches with bit-identical similarities — including INV,
// whose worker recomputes the full dot in the sequential accumulation
// order.
func TestShardClusterParity(t *testing.T) {
	for _, kind := range []Kind{INV, L2, L2AP, AP} {
		for _, p := range []apss.Params{
			{Theta: 0.5, Lambda: 0.05},
			{Theta: 0.7, Lambda: 0.01},
			{Theta: 0.9, Lambda: 0.2},
		} {
			for seed := int64(0); seed < 3; seed++ {
				items := fuzzItems(seed, 350)
				want := runKind(t, kind, p, Options{}, 0, items)
				for _, n := range []int{1, 2, 3, 4} {
					t.Run(fmt.Sprintf("%v/theta=%g/lambda=%g/seed=%d/n=%d", kind, p.Theta, p.Lambda, seed, n), func(t *testing.T) {
						got, dups := runShardCluster(t, kind, p, n, false, items)
						if !equalMatchesExact(got, want) {
							t.Fatalf("shard cluster diverged: %d vs %d matches", len(got), len(want))
						}
						if n == 1 {
							// A lone shard is the sequential engine, counter
							// for counter.
							lone, lc := runCounted(t, kind, p, Options{Shard: Shard{ID: 0, N: 1}}, items)
							seq, sc := runCounted(t, kind, p, Options{}, items)
							if !equalMatchesExact(lone, seq) || lc != sc {
								t.Fatalf("Shard{0, 1} ≠ Options{}: %d vs %d matches\nlone %+v\nseq  %+v", len(lone), len(seq), lc, sc)
							}
						}
						// With several workers and a narrow vocabulary,
						// duplicate discovery must occur — otherwise the
						// dedup contract is vacuous here.
						if n >= 2 && kind != L2AP && kind != AP && p.Theta == 0.5 && len(want) > 20 && dups == 0 {
							t.Fatalf("no duplicate emissions across %d workers; dedup untested", n)
						}
					})
				}
			}
		}
	}
}

// TestShardForeignParity: the shard-engine group under the foreign join
// must equal the sequential foreign engine bit for bit.
func TestShardForeignParity(t *testing.T) {
	p := apss.Params{Theta: 0.5, Lambda: 0.05}
	for _, kind := range []Kind{INV, L2, L2AP} {
		items := fuzzItems(5, 300)
		for i := range items {
			if i%2 == 1 {
				items[i].Side = apss.SideB
			}
		}
		want := runKind(t, kind, p, Options{Foreign: true}, 0, items)
		if len(want) == 0 {
			t.Fatalf("%v: foreign oracle vacuous", kind)
		}
		for _, n := range []int{2, 4} {
			got, _ := runShardCluster(t, kind, p, n, true, items)
			if !equalMatchesExact(got, want) {
				t.Fatalf("%v/n=%d: foreign shard cluster diverged: %d vs %d", kind, n, len(got), len(want))
			}
		}
	}
}

// TestShardAdvanceBarrier: watermark barriers broadcast to every worker
// (as the coordinator does after each WM) must keep the group's output
// identical to a sequential engine receiving the same barriers.
func TestShardAdvanceBarrier(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.1}
	for _, kind := range []Kind{INV, L2, L2AP} {
		items := fuzzItems(9, 200)
		seq, err := New(kind, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		n := 3
		workers := make([]Index, n)
		for i := range workers {
			ix, err := New(kind, p, Options{Shard: Shard{ID: i, N: n}})
			if err != nil {
				t.Fatal(err)
			}
			workers[i] = ix
		}
		var want, got []apss.Match
		for k, it := range items {
			ms, err := seq.Add(it)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, ms...)
			var all []apss.Match
			for _, w := range Route(kind, n, it.Vec.Dims, nil) {
				wms, err := workers[w].Add(it)
				if err != nil {
					t.Fatal(err)
				}
				all = append(all, wms...)
			}
			got = append(got, apss.DedupPartners(all)...)
			if k%17 == 16 && k+1 < len(items) {
				// Stay at or below the next arrival so the barrier's
				// no-earlier-item promise holds.
				barrier := it.Time + (items[k+1].Time-it.Time)/2
				if err := seq.(Advancer).Advance(barrier); err != nil {
					t.Fatal(err)
				}
				for _, w := range workers {
					if err := w.(Advancer).Advance(barrier); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if !equalMatchesExact(got, want) {
			t.Fatalf("%v: barrier run diverged: %d vs %d", kind, len(got), len(want))
		}
	}
}

// TestShardOptionValidation pins the Shard column of the decision
// table.
func TestShardOptionValidation(t *testing.T) {
	p := apss.Params{Theta: 0.5, Lambda: 0.1}
	for _, bad := range []Options{
		{Shard: Shard{ID: 2, N: 2}},
		{Shard: Shard{ID: -1, N: 2}},
		{Shard: Shard{ID: 1, N: 0}},
		{Shard: Shard{ID: 0, N: 2}, Ablations: Ablations{NoRemscore: true}},
		{Shard: Shard{ID: 0, N: 2}, Order: WarmupOrder{Strategy: dimorder.DocFreqAsc, Items: 4}},
	} {
		if _, err := New(L2, p, bad); !errors.Is(err, ErrShard) {
			t.Fatalf("options %+v: want ErrShard, got %v", bad, err)
		}
	}
	for _, kind := range []Kind{INV, L2, L2AP, AP} {
		ix, err := New(kind, p, Options{Shard: Shard{ID: 1, N: 3}})
		if err != nil {
			t.Fatalf("%v: valid shard options rejected: %v", kind, err)
		}
		if _, ok := ix.(SinkIndex); !ok {
			t.Fatalf("%v: shard index is not a SinkIndex", kind)
		}
		if _, ok := ix.(Advancer); !ok {
			t.Fatalf("%v: shard index is not an Advancer", kind)
		}
	}
	// L2AP on a non-exponential kernel is rejected in shard mode too.
	if _, err := New(L2AP, p, Options{Shard: Shard{ID: 0, N: 2}, Kernel: apss.SlidingWindow{Tau: 5}}); !errors.Is(err, ErrKernel) {
		t.Fatal("shard L2AP accepted a non-exponential kernel")
	}
}

// TestShardSizeParams: shard indexes report their own occupancy (owned
// posting lists, full residual set) and the configured params, for both
// the INV and the engine-backed shards.
func TestShardSizeParams(t *testing.T) {
	p := apss.Params{Theta: 0.5, Lambda: 0.1}
	items := fuzzItems(3, 40)
	for _, kind := range []Kind{INV, L2, L2AP} {
		var total int
		for i := 0; i < 2; i++ {
			ix, err := New(kind, p, Options{Shard: Shard{ID: i, N: 2}})
			if err != nil {
				t.Fatal(err)
			}
			if got := ix.Params(); got != p {
				t.Fatalf("%v shard %d: Params = %+v, want %+v", kind, i, got, p)
			}
			for _, it := range items {
				if _, err := ix.Add(it); err != nil {
					t.Fatal(err)
				}
			}
			sz := ix.Size()
			if sz.Residuals == 0 || sz.PostingEntries == 0 || sz.Lists == 0 {
				t.Fatalf("%v shard %d: degenerate SizeInfo %+v", kind, i, sz)
			}
			total += sz.PostingEntries
		}
		// Dimension sharding partitions the postings: the shards together
		// hold exactly one entry per (item, dimension).
		seq, err := New(kind, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			if _, err := seq.Add(it); err != nil {
				t.Fatal(err)
			}
		}
		if want := seq.Size().PostingEntries; total != want {
			t.Fatalf("%v: shards hold %d posting entries, sequential %d", kind, total, want)
		}
	}
}

// shardFuzzStream decodes a fuzz input into a time-ordered stream. Each
// item takes 2+2·nnz bytes: a time gap in sixteenths, a header whose
// low three bits are nnz−1 and whose bit 3 is the foreign-join side,
// then nnz (dimension, value) byte pairs, the dimension taken mod 24 and
// the value as (1+b)/256. Vectors are normalized; a repeated dimension
// keeps its last value. At most 300 items are decoded.
func shardFuzzStream(data []byte, foreign bool) []stream.Item {
	var items []stream.Item
	tm := 0.0
	for len(data) >= 2 && len(items) < 300 {
		gap, head := data[0], data[1]
		nnz := int(head&7) + 1
		data = data[2:]
		if len(data) < 2*nnz {
			break
		}
		m := make(map[uint32]float64, nnz)
		for k := 0; k < nnz; k++ {
			m[uint32(data[2*k])%24] = (1 + float64(data[2*k+1])) / 256
		}
		data = data[2*nnz:]
		tm += float64(gap) / 16
		side := apss.SideA
		if foreign && head&8 != 0 {
			side = apss.SideB
		}
		items = append(items, stream.Item{ID: uint64(len(items)), Time: tm, Side: side, Vec: vec.FromMap(m).Normalize()})
	}
	return items
}

// shardFuzzParams maps the fuzzer's selectors to join parameters:
// θ ∈ [0.3, 0.99] at a resolution of 1e-5, λ ∈ [0.001, 0.5].
func shardFuzzParams(thetaSel uint16, lambdaSel uint8) apss.Params {
	return apss.Params{
		Theta:  0.3 + 0.69*float64(thetaSel)/math.MaxUint16,
		Lambda: 0.001 + 0.499*float64(lambdaSel)/math.MaxUint8,
	}
}

// thetaSelBelow returns the largest θ selector whose θ does not exceed
// the best decayed similarity of any pair in the stream data decodes
// to: a seed whose strongest true pair sits right at the threshold.
func thetaSelBelow(data []byte, lambdaSel uint8) uint16 {
	items := shardFuzzStream(data, false)
	lambda := shardFuzzParams(0, lambdaSel).Lambda
	best := 0.0
	for i := range items {
		for j := range i {
			best = max(best, vec.Dot(items[i].Vec, items[j].Vec)*math.Exp(-lambda*(items[i].Time-items[j].Time)))
		}
	}
	return uint16(math.Floor((best - 0.3) / 0.69 * math.MaxUint16))
}

// FuzzShardParity: an in-process group of shard engines must reproduce
// the sequential engine bit for bit, and each worker must keep the
// per-worker half of the contract in shard.go: it emits exactly the true
// matches it meets, those whose candidate has an indexed coordinate at
// a dimension it owns and the query shares. The second check is what
// makes a worker's unsound rejection visible: the group's dedup would
// otherwise hide it whenever another worker also meets the pair.
func FuzzShardParity(f *testing.F) {
	// A true pair met by worker 0 only at dimension 2, its top owned
	// contact, with part of the dot on dimensions 9 and 11 above it that
	// worker 0 does not own, and θ right below its similarity. y's
	// dimension-0 coordinate is its residual; x's prefix through
	// dimension 2 alone is below θ. Worker 0's kill bound at dimension 2
	// equals the similarity up to rounding, and it admits the pair only
	// through the non-owned mass above.
	tight := []byte{
		0, 3, 0, 178, 2, 153, 9, 68, 11, 68, // y
		16, 3, 0, 76, 2, 201, 9, 96, 11, 96, // x, one time unit later
	}
	f.Add(tight, uint8(0), uint8(0), false, thetaSelBelow(tight, 0), uint8(0))
	f.Add(tight, uint8(1), uint8(0), false, thetaSelBelow(tight, 0), uint8(0))
	// L2AP: z raises the max of dimension 1, which moves y's boundary
	// down so that its coordinate there (worker 0 does not own it)
	// joins the indexed suffix; then x = y arrives. Worker 0 meets y only
	// at dimension 4, and most of the dot sits on the re-indexed part, so
	// its per-slot statistics must have been refreshed.
	reindex := []byte{
		0, 2, 1, 191, 3, 114, 4, 123, // y
		16, 1, 1, 255, 6, 15, // z
		16, 2, 1, 191, 3, 114, 4, 123, // x = y
	}
	f.Add(reindex, uint8(1), uint8(0), false, uint16(37992), uint8(0)) // θ ≈ 0.70001
	f.Add(reindex, uint8(1), uint8(0), true, uint16(37992), uint8(0))
	// Mixed streams over the whole grid.
	mixed := []byte{
		3, 2, 1, 200, 5, 90, 7, 40, 2, 10, 1, 180, 5, 100, 4, 3, 7, 60, 8, 30, 1, 150, 22, 9,
		5, 4, 1, 190, 5, 95, 7, 45, 2, 11, 9, 40, 12, 5, 2, 80, 13, 250, 19, 6,
		1, 10, 1, 170, 5, 110, 7, 50, 9, 2, 5, 120, 6, 99, 13, 240, 6, 1, 2, 70, 13, 230,
	}
	for i, kind := range []uint8{0, 1, 2} {
		f.Add(mixed, kind, uint8(i), i == 1, uint16(20000), uint8(10*i))
	}
	f.Fuzz(func(t *testing.T, data []byte, kindSel, nSel uint8, foreign bool, thetaSel uint16, lambdaSel uint8) {
		kind := []Kind{L2, L2AP, AP}[int(kindSel)%3]
		n := 2 + int(nSel)%3
		p := shardFuzzParams(thetaSel, lambdaSel)
		items := shardFuzzStream(data, foreign)
		if len(items) < 2 {
			return
		}

		seq, err := New(kind, p, Options{Foreign: foreign})
		if err != nil {
			t.Fatal(err)
		}
		wantBy := make(map[uint64][]apss.Match, len(items))
		var want []apss.Match
		for _, it := range items {
			ms, err := seq.Add(it)
			if err != nil {
				t.Fatal(err)
			}
			wantBy[it.ID] = ms
			want = append(want, ms...)
		}

		got, _ := driveShardCluster(t, kind, p, n, foreign, items, func(w int, ix Index, it stream.Item, ms []apss.Match) {
			e := ix.(*engine)
			var met []apss.Match
			for _, m := range wantBy[it.ID] {
				if meetsOwned(e, it, m.Y) {
					met = append(met, m)
				}
			}
			if !equalMatchesExact(ms, met) {
				t.Fatalf("%v n=%d θ=%v λ=%v: worker %d on item %d emitted %v, met %v",
					kind, n, p.Theta, p.Lambda, w, it.ID, ms, met)
			}
		})
		if !equalMatchesExact(got, want) {
			t.Fatalf("%v n=%d θ=%v λ=%v: shard group diverged: %d vs %d matches", kind, n, p.Theta, p.Lambda, len(got), len(want))
		}
	})
}

// meetsOwned reports whether worker e's scan of x reaches candidate y:
// y has an indexed coordinate at a dimension e owns and x has.
func meetsOwned(e *engine, x stream.Item, y uint64) bool {
	met := false
	e.ascendRes(func(sl uint32, meta *smeta) {
		if e.slots.id[sl] != y {
			return
		}
		for _, d := range meta.vec.Dims[meta.boundary:] {
			if e.shard.owns(d) && x.Vec.At(d) != 0 {
				met = true
			}
		}
	})
	return met
}
