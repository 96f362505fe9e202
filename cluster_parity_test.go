package sssj

import (
	"context"
	"testing"

	"sssj/internal/apss"
	"sssj/internal/cluster"
	"sssj/internal/core"
	"sssj/internal/index/streaming"
)

// clusterJoiner is New(opts) with its engine replaced by an in-process
// n-worker cluster (cluster.StartLocal: loopback shard-engine servers
// behind a coordinator) — the deployed sharded shape behind the Joiner's
// own reorder, emission and flush path. opts must select the Streaming
// framework, the decay window and the default kernel; Stats stays
// untouched, since the workers count on their side of the wire.
func clusterJoiner(t testing.TB, opts Options, n int) *Joiner {
	t.Helper()
	if err := opts.validate(opStream); err != nil {
		t.Fatal(err)
	}
	params, err := paramsFor(opts)
	if err != nil {
		t.Fatal(err)
	}
	kind := streaming.L2
	switch opts.Index {
	case IndexINV:
		kind = streaming.INV
	case IndexL2AP:
		kind = streaming.L2AP
	}
	cl, err := cluster.StartLocal(kind, params, cluster.LocalOptions{Workers: n, Foreign: opts.Join == JoinForeign})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return newJoiner(cl, params, opts, newReorderFor(opts))
}

// clusterJoin is SelfJoin on clusterJoiner. A self-join ignores side
// tags, but a self-join worker refuses side B, so they are cleared.
func clusterJoin(t testing.TB, opts Options, n int, items []Item) []Match {
	t.Helper()
	if opts.Join != JoinForeign {
		items = append([]Item(nil), items...)
		for i := range items {
			items[i].Side = SideA
		}
	}
	var out []Match
	if err := clusterJoiner(t, opts, n).runTo(context.Background(), SliceSource(items), CollectInto(&out)); err != nil {
		t.Fatal(err)
	}
	return out
}

// joinOn is SelfJoin for workers ≤ 1 and clusterJoin otherwise.
func joinOn(t testing.TB, opts Options, workers int, items []Item) []Match {
	t.Helper()
	if workers > 1 {
		return clusterJoin(t, opts, workers, items)
	}
	ms, err := SelfJoin(opts, items)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// FuzzClusterParity fuzzes the cluster-tier oracle: for a derived
// stream and a fuzz-chosen index × join mode × worker count, an
// in-process cluster (real loopback servers behind the coordinator)
// must reproduce the sequential engine bit for bit — the end-to-end
// guarantee the deployment mode advertises, including the line
// protocol's float round trip.
func FuzzClusterParity(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(42), uint8(1), uint8(1), uint8(1))
	f.Add(uint64(7), uint8(2), uint8(2), uint8(2))
	f.Add(uint64(1234), uint8(4), uint8(1), uint8(1))
	f.Add(uint64(99), uint8(5), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, cfg, thetaSel, workerSel uint8) {
		items := fuzzForeignItems(seed, 50)
		if len(items) == 0 {
			return
		}
		theta := []float64{0.5, 0.7, 0.9}[int(thetaSel)%3]
		kind := []streaming.Kind{streaming.INV, streaming.L2, streaming.L2AP}[int(cfg)%3]
		foreign := cfg%6 >= 3
		if !foreign {
			for i := range items {
				items[i].Side = SideA
			}
		}
		workers := []int{1, 2, 4}[int(workerSel)%3]
		p := apss.Params{Theta: theta, Lambda: 0.1}

		oracle, err := core.NewSTRFull(kind, p, streaming.Options{Foreign: foreign})
		if err != nil {
			t.Fatal(err)
		}
		var want []apss.Match
		for _, it := range items {
			ms, err := oracle.Add(it)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, ms...)
		}

		cl, err := cluster.StartLocal(kind, p, cluster.LocalOptions{Workers: workers, Foreign: foreign})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		var got []apss.Match
		for _, it := range items {
			ms, err := cl.Add(it)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, ms...)
		}
		if !apss.EqualMatchSets(got, want, 0) {
			t.Fatalf("cluster ≠ sequential: %d vs %d matches (seed %d cfg %d θ %v workers %d)",
				len(got), len(want), seed, cfg, theta, workers)
		}
	})
}
