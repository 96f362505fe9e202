package sssj

import (
	"bytes"
	"fmt"
	"testing"

	"sssj/internal/apss"
	"sssj/internal/index/streaming"
	"sssj/internal/metrics"
	"sssj/internal/stream"
)

// These tests pin the vectorized verification kernels (kernelv.go) to
// the frozen scalar kernels (kernel_scalar.go) across every deployment
// shape the library offers: the sequential engine, cluster shards, self
// vs foreign joins, and bounded disorder. "Parity" here is the strong
// form the kernel files promise — bit-identical match sets at eps 0
// AND identical pruning Counters, so the time-threshold tiers and the
// per-slot decay cache are provably shortcuts, never a behavior change.

// kernelDeploy names one deployment shape of the streaming index.
type kernelDeploy struct {
	name   string
	shards int  // cluster-worker group size (0 = the sequential engine)
	lone   bool // run only the group's last worker, fed every item
}

var kernelDeploys = []kernelDeploy{
	{name: "w1"},
	{name: "w4", shards: 4},
	{name: "s1", shards: 2, lone: true},
	{name: "s2", shards: 2},
}

// runKernel drives items through one deployment with the chosen kernel
// implementation and returns the emitted matches and final counters.
// delta > 0 shuffles the stream within delta and fronts the index with
// a reorder buffer, so the kernels see the arrival patterns the
// event-time layer actually produces. kernel overrides the exponential
// decay (nil keeps it).
func runKernel(t testing.TB, kind streaming.Kind, p apss.Params, kernel apss.Kernel, d kernelDeploy, foreign, scalar bool, delta float64, items []Item) ([]apss.Match, metrics.Counters) {
	t.Helper()
	var c metrics.Counters
	ab := streaming.Ablations{ScalarKernel: scalar}
	var out []apss.Match
	var add func(it Item) error
	if d.shards > 0 {
		workers := make([]streaming.Index, d.shards)
		lone := []int{d.shards - 1}
		for i := range workers {
			if d.lone && i != lone[0] {
				continue
			}
			ix, err := streaming.New(kind, p, streaming.Options{
				Shard: streaming.Shard{ID: i, N: d.shards}, Foreign: foreign,
				Kernel: kernel, Ablations: ab, Counters: &c,
			})
			if err != nil {
				t.Fatal(err)
			}
			workers[i] = ix
		}
		add = func(it Item) error {
			var all []apss.Match
			targets := lone
			if !d.lone {
				targets = streaming.Route(kind, d.shards, it.Vec.Dims, nil)
			}
			for _, w := range targets {
				ms, err := workers[w].Add(it)
				if err != nil {
					return err
				}
				all = append(all, ms...)
			}
			out = append(out, apss.DedupPartners(all)...)
			return nil
		}
	} else {
		ix, err := streaming.New(kind, p, streaming.Options{
			Foreign: foreign, Kernel: kernel, Ablations: ab, Counters: &c,
		})
		if err != nil {
			t.Fatal(err)
		}
		add = func(it Item) error {
			ms, err := ix.Add(it)
			out = append(out, ms...)
			return err
		}
	}
	if delta > 0 {
		r := stream.NewReorder(delta)
		for _, it := range stream.ShuffleWithin(items, delta, harnessShuffleSeed) {
			if err := r.Push(it, add); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Flush(add); err != nil {
			t.Fatal(err)
		}
	} else {
		for _, it := range items {
			if err := add(it); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out, c
}

// TestKernelParityGrid: the full deployment grid. For each cell the
// vectorized kernels must reproduce the frozen scalar kernels exactly:
// identical match sets at eps 0 and identical Counters, so every
// pruning decision — not just the surviving pairs — agrees.
func TestKernelParityGrid(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.1}
	base := fuzzForeignItems(11, 250)
	selfItems := make([]Item, len(base))
	copy(selfItems, base)
	for i := range selfItems {
		selfItems[i].Side = SideA
	}
	for _, kind := range []streaming.Kind{streaming.INV, streaming.L2, streaming.L2AP} {
		for _, d := range kernelDeploys {
			for _, foreign := range []bool{false, true} {
				items := selfItems
				mode := "self"
				if foreign {
					items, mode = base, "foreign"
				}
				for _, delta := range []float64{0, 3} {
					name := fmt.Sprintf("%v/%s/%s/delta%v", kind, d.name, mode, delta)
					t.Run(name, func(t *testing.T) {
						want, wc := runKernel(t, kind, p, nil, d, foreign, true, delta, items)
						got, gc := runKernel(t, kind, p, nil, d, foreign, false, delta, items)
						if !apss.EqualMatchSets(got, want, 0) {
							onlyG, onlyW := apss.DiffMatchSets(got, want)
							t.Fatalf("vectorized ≠ scalar: %d vs %d matches (only-vec %v, only-scalar %v)",
								len(got), len(want), onlyG, onlyW)
						}
						if gc != wc {
							t.Fatalf("counters diverge:\nvec    %+v\nscalar %+v", gc, wc)
						}
					})
				}
			}
		}
	}
}

// kernelCkptRun runs the first half of items under one kernel, saves
// the index, reloads it under (possibly) the other kernel, runs the
// second half, and returns the continuation's matches and counters.
func kernelCkptRun(t *testing.T, kind streaming.Kind, p apss.Params, foreign, scalarBefore, scalarAfter bool, items []Item, half int) ([]apss.Match, metrics.Counters) {
	t.Helper()
	opts := streaming.Options{
		Foreign:   foreign,
		Ablations: streaming.Ablations{ScalarKernel: scalarBefore},
		Counters:  &metrics.Counters{},
	}
	ix, err := streaming.New(kind, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items[:half] {
		if _, err := ix.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := streaming.Save(ix, &buf); err != nil {
		t.Fatal(err)
	}
	var c metrics.Counters
	opts.Ablations = streaming.Ablations{ScalarKernel: scalarAfter}
	opts.Counters = &c
	ix2, err := streaming.Load(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	var out []apss.Match
	for _, it := range items[half:] {
		ms, err := ix2.Add(it)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ms...)
	}
	return out, c
}

// TestKernelParityCheckpoint proves the block kernel's extra state — the
// tmax summaries, the slot-addressed residual table — is derived state:
// a snapshot written by either kernel loads into either kernel with no
// format change, the rebuilt state steers the continuation to the exact
// matches of an uncheckpointed scalar run, and all four before×after
// kernel pairs agree on the continuation's Counters. In the w4 cells the
// uncheckpointed reference runs on four routed cluster workers (a
// sharded engine cannot be checkpointed), so the continuation is also
// held to the sharded deployment's output.
func TestKernelParityCheckpoint(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.1}
	base := fuzzForeignItems(5, 200)
	half := len(base) / 2
	selfItems := make([]Item, len(base))
	copy(selfItems, base)
	for i := range selfItems {
		selfItems[i].Side = SideA
	}
	for _, kind := range []streaming.Kind{streaming.INV, streaming.L2, streaming.L2AP} {
		for _, workers := range []int{0, 4} {
			for _, foreign := range []bool{false, true} {
				items := selfItems
				mode := "self"
				if foreign {
					items, mode = base, "foreign"
				}
				name := fmt.Sprintf("%v/w%d/%s", kind, workers, mode)
				t.Run(name, func(t *testing.T) {
					// Reference: uncheckpointed scalar run; keep only the
					// matches the second half of the stream emits.
					d := kernelDeploy{shards: workers}
					all, _ := runKernel(t, kind, p, nil, d, foreign, true, 0, items)
					late := make(map[uint64]bool, len(items)-half)
					for _, it := range items[half:] {
						late[it.ID] = true
					}
					var want []apss.Match
					for _, m := range all {
						if late[m.X] {
							want = append(want, m)
						}
					}
					var refC *metrics.Counters
					for _, before := range []bool{true, false} {
						for _, after := range []bool{true, false} {
							got, c := kernelCkptRun(t, kind, p, foreign, before, after, items, half)
							if !apss.EqualMatchSets(got, want, 0) {
								onlyG, onlyW := apss.DiffMatchSets(got, want)
								t.Fatalf("save=%v load=%v: continuation ≠ scalar run: %d vs %d matches (only-ckpt %v, only-ref %v)",
									before, after, len(got), len(want), onlyG, onlyW)
							}
							if refC == nil {
								refC = &c
							} else if c != *refC {
								t.Fatalf("save=%v load=%v: continuation counters diverge:\ngot %+v\nref %+v",
									before, after, c, *refC)
							}
						}
					}
				})
			}
		}
	}
}

// FuzzKernelParity is the differential fuzz target for the kernel
// rewrite: a fuzz-chosen stream, kind, deployment, join mode, decay
// kernel, and disorder bound must produce bit-identical matches and
// Counters under the block and frozen scalar kernels.
func FuzzKernelParity(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(42), uint8(4), uint8(1), uint8(1))
	f.Add(uint64(7), uint8(8), uint8(2), uint8(2))
	f.Add(uint64(1234), uint8(21), uint8(1), uint8(3))
	f.Add(uint64(5), uint8(25), uint8(1), uint8(0))
	f.Add(uint64(77), uint8(42), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, cfg, thetaSel, deltaSel uint8) {
		items := fuzzForeignItems(seed, 60)
		if len(items) == 0 {
			return
		}
		theta := []float64{0.5, 0.7, 0.9}[int(thetaSel)%3]
		kind := []streaming.Kind{streaming.INV, streaming.L2, streaming.L2AP}[int(cfg)%3]
		d := kernelDeploys[int(cfg/3)%len(kernelDeploys)]
		foreign := (cfg/12)%2 == 1
		if !foreign {
			for i := range items {
				items[i].Side = SideA
			}
		}
		// The tiers read the decay only through Kernel.Factor and
		// Kernel.Horizon; L2AP insists on the exponential.
		var kernel apss.Kernel
		if (cfg/24)%2 == 1 && kind != streaming.L2AP {
			kernel = apss.Polynomial{Alpha: 0.2, P: 1.5}
		}
		delta := []float64{0, 0.5, 2, 10}[int(deltaSel)%4]
		p := apss.Params{Theta: theta, Lambda: 0.1}
		want, wc := runKernel(t, kind, p, kernel, d, foreign, true, delta, items)
		got, gc := runKernel(t, kind, p, kernel, d, foreign, false, delta, items)
		if !apss.EqualMatchSets(got, want, 0) {
			t.Fatalf("vectorized ≠ scalar: %d vs %d matches (seed %d cfg %d θ %v δ %v)",
				len(got), len(want), seed, cfg, theta, delta)
		}
		if gc != wc {
			t.Fatalf("counters diverge (seed %d cfg %d θ %v δ %v):\nvec    %+v\nscalar %+v",
				seed, cfg, theta, delta, gc, wc)
		}
	})
}
