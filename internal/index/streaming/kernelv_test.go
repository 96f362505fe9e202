package streaming

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sssj/internal/apss"
	"sssj/internal/datagen"
	"sssj/internal/metrics"
	"sssj/internal/stream"
)

// checkBlockSummaries asserts the admissibility invariant of the
// disordered-chain decay bracket on every live block of ch: tmax is an
// upper bound on the live entries' t. (It may over-state — it is a
// monotone maximum over ever-held entries — but must never under-state,
// or a time-threshold reject could drop a real candidate.)
func checkBlockSummaries(t *testing.T, ar *parena, ch *chain) {
	t.Helper()
	for b := ch.oldest; b >= 0; b = ar.newer[b] {
		base := int(b) << blockShift
		for i := ar.off[b]; i < ar.end[b]; i++ {
			if ai := base + int(i); ar.t[ai] > ar.tmax[b] {
				t.Fatalf("block %d: t=%v exceeds tmax %v", b, ar.t[ai], ar.tmax[b])
			}
		}
	}
}

// TestArenaSummariesOrdered: tmax stays admissible on a time-ordered
// chain through pushes, oldest-end sweeps, and newest-end cuts —
// including blocks recycled through the freelist, whose tmax must reset
// on alloc.
func TestArenaSummariesOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ar := &parena{withPnorm: true}
	ch := newChain()
	now, tau := 0.0, 8.0
	for i := 0; i < 2000; i++ {
		now += rng.Float64() * 0.3
		ar.push(ch, uint32(i), now, rng.Float64(), rng.Float64())
		switch rng.Intn(10) {
		case 0:
			ar.sweepOrdered(ch, now, tau)
		case 1:
			// Cut at a random live position, like descendCut's expiry cut.
			if ch.n > 1 {
				b := ch.oldest
				ar.cutAt(ch, b, ar.off[b])
			}
		}
		checkBlockSummaries(t, ar, ch)
	}
}

// TestArenaSummariesCompacted: tmax stays admissible on a disordered
// (AP-style) chain through compact and vcompact, whose write-cursor
// moves fold surviving entries into their destination block's tmax.
func TestArenaSummariesCompacted(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ar := &parena{withPnorm: true}
	ch := newChain()
	now := 0.0
	for i := 0; i < 1500; i++ {
		now += rng.Float64() * 0.3
		// Disordered insertion times, like re-indexed residuals.
		ar.push(ch, uint32(i), now-rng.Float64()*5, rng.Float64(), rng.Float64())
		switch rng.Intn(8) {
		case 0:
			ar.compact(ch, func(int) bool { return rng.Intn(4) > 0 })
		case 1:
			ar.vcompact(ch, now, 6.0, func(b int32, base, lo, hi int, live uint16) {})
		}
		checkBlockSummaries(t, ar, ch)
	}
}

// runKernelPair feeds items to two indexes that differ only in the scan
// kernel and requires bit-identical matches and counters. after, if not
// nil, is called on each index after every item.
func runKernelPair(t *testing.T, kind Kind, p apss.Params, opts Options, workers int, items []stream.Item, after func(ix Index, i int)) {
	t.Helper()
	run := func(scalar bool) ([]apss.Match, metrics.Counters) {
		var c metrics.Counters
		o := opts
		o.Counters = &c
		o.Ablations.ScalarKernel = scalar
		ix, err := newTestIndex(kind, p, o, workers)
		if err != nil {
			t.Fatal(err)
		}
		var out []apss.Match
		for i, it := range items {
			ms, err := ix.Add(it)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ms...)
			if after != nil {
				after(ix, i)
			}
		}
		return out, c
	}
	want, wc := run(true)
	got, gc := run(false)
	if !apss.EqualMatchSets(got, want, 0) {
		onlyG, onlyW := apss.DiffMatchSets(got, want)
		t.Fatalf("block kernel ≠ scalar: %d vs %d matches (only-block %v, only-scalar %v)",
			len(got), len(want), onlyG, onlyW)
	}
	if gc != wc {
		t.Fatalf("counters diverge:\nblock  %+v\nscalar %+v", gc, wc)
	}
}

// TestOutOfContractParity: floats outside the unit-vector contract —
// values and prefix norms past 1, negative values, NaN, and (reachable
// only by corrupting the index, as a bad checkpoint could) negative
// prefix norms — void the pruning bounds' soundness for both kernels
// alike, but must not make the block kernel's tiers decide anything the
// scalar kernel's products would not: the tiers' monotonicity arguments
// must hold for whatever floats arrive, or fall back to the exact test.
func TestOutOfContractParity(t *testing.T) {
	// A long window over a fast decay: blocks whose lanes' decays differ
	// widely, where a bracket applied to the wrong sign shows.
	p := apss.Params{Theta: 0.2, Lambda: 0.05}
	// negatePnorms flips the sign of every stored prefix norm after every
	// fifth item. Both kernels keep identical arenas, so they see the
	// same corruption.
	negatePnorms := func(ix Index, i int) {
		if e, ok := ix.(*engine); ok && i%5 == 0 {
			for k := range e.ar.pnorm {
				e.ar.pnorm[k] = -e.ar.pnorm[k]
			}
		}
	}
	for _, tc := range []struct {
		name  string
		scale []float64 // per-coordinate multipliers applied to every 5th vector
		after func(ix Index, i int)
	}{
		{"in-range", []float64{1}, nil},
		{"val-over", []float64{1.5}, nil},
		{"val-neg-over", []float64{-1.5, 1.5}, nil},
		{"pnorm-over", []float64{3, 0.1}, nil},
		{"pnorm-neg", []float64{1}, negatePnorms},
		{"val-nan", []float64{math.NaN(), 1}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			items := fuzzItems(41, 300)
			for i := 0; i < len(items); i += 5 {
				v := items[i].Vec.Clone()
				for k := range v.Vals {
					v.Vals[k] *= tc.scale[k%len(tc.scale)]
				}
				items[i].Vec = v
			}
			for _, opts := range []Options{{}, {Shard: Shard{ID: 1, N: 2}}} {
				runKernelPair(t, L2, p, opts, 0, items, tc.after)
			}
		})
	}
}

// countingKernel counts Factor evaluations.
type countingKernel struct {
	apss.Kernel
	calls *int64
}

func (k countingKernel) Factor(dt float64) float64 {
	*k.calls++
	return k.Kernel.Factor(dt)
}

// liveBlocks counts the blocks of x's chains whose newest lane is within
// the horizon at x's time — the blocks a time-ordered scan visits.
func liveBlocks(ar *parena, lists map[uint32]*chain, x stream.Item, tau float64) (blocks, chains int64) {
	for _, d := range x.Vec.Dims {
		ch := lists[d]
		if ch == nil {
			continue
		}
		chains++
		for b := ch.newest; b >= 0; b = ar.older[b] {
			if x.Time-ar.t[int(b)<<blockShift+int(ar.end[b])-1] <= tau {
				blocks++
			}
		}
	}
	return blocks, chains
}

// TestTimeTiersEffective: the parity tests prove the time-threshold
// tiers and the per-slot decay cache sound; this proves they do what
// they are for. Through a counting kernel, every probe must evaluate
// Factor at most once per candidate it admits and once per block it
// visits (the newest-lane bracket of the first-touch kill), plus two
// per scanned coordinate — the probes that verify its admission window,
// or the rejected entries of a chain too short to build one for — never
// once per posting entry, which is what the scalar kernel pays. The
// sequential engine must also save at least 3× the scalar kernel's calls
// overall; a lone shard's looser shard-local bounds admit more
// candidates, so it is held to the per-probe budget only.
func TestTimeTiersEffective(t *testing.T) {
	items := datagen.RCV1Profile().Scaled(0.25).Generate(3)
	p := apss.Params{Theta: 0.7, Lambda: 0.001}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"engine", Options{}},
		{"shard", Options{Shard: Shard{ID: 1, N: 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls, scalarCalls int64
			var c metrics.Counters
			opts := tc.opts
			opts.Counters = &c
			opts.Kernel = countingKernel{apss.Exponential{Lambda: p.Lambda}, &calls}
			ix, err := New(L2, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Counters = nil
			opts.Kernel = countingKernel{apss.Exponential{Lambda: p.Lambda}, &scalarCalls}
			opts.Ablations.ScalarKernel = true
			ref, err := New(L2, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			e := ix.(*engine)
			for _, it := range items {
				blocks, chains := liveBlocks(&e.ar, e.lists, it, e.tau)
				calls0, cands0 := calls, c.Candidates
				if _, err := ix.Add(it); err != nil {
					t.Fatal(err)
				}
				if _, err := ref.Add(it); err != nil {
					t.Fatal(err)
				}
				used, budget := calls-calls0, c.Candidates-cands0+blocks+2*chains
				if used > budget {
					t.Fatalf("item %d: %d Factor calls for %d candidates, %d blocks, %d chains",
						it.ID, used, c.Candidates-cands0, blocks, chains)
				}
			}
			if c.Candidates == 0 || calls == 0 {
				t.Fatalf("degenerate stream: %d candidates, %d Factor calls", c.Candidates, calls)
			}
			// The scalar kernel evaluates one factor per live entry it meets
			// and one more per candidate it verifies.
			if !e.sharded && 3*calls > scalarCalls {
				t.Fatalf("%d Factor calls against the scalar kernel's %d: the tiers are not skipping entries",
					calls, scalarCalls)
			}
		})
	}
}

// TestScalarKernelParity pins the vectorized kernels to the frozen
// scalar kernels from inside the package, driving every scalar entry
// point (sequential engine, inverted index, parallel shards, a lone
// sharded worker) directly. The root-level grid proves deployment-shaped
// parity end to end; this one keeps the frozen oracle itself under
// in-package test.
func TestScalarKernelParity(t *testing.T) {
	p := apss.Params{Theta: 0.55, Lambda: 0.1}
	base := fuzzItems(31, 300)
	rng := rand.New(rand.NewSource(32))
	sided := make([]stream.Item, len(base))
	copy(sided, base)
	for i := range sided {
		if rng.Intn(2) == 1 {
			sided[i].Side = apss.SideB
		}
	}
	deploys := []struct {
		name    string
		opts    Options
		workers int // > 1: the shard group of group_test.go
	}{
		{"seq", Options{}, 0},
		{"w3", Options{}, 3},
		{"s1", Options{Shard: Shard{ID: 1, N: 2}}, 0},
	}
	for _, kind := range []Kind{INV, L2, L2AP, AP} {
		for _, d := range deploys {
			for _, foreign := range []bool{false, true} {
				items, mode := base, "self"
				if foreign {
					items, mode = sided, "foreign"
				}
				t.Run(fmt.Sprintf("%v/%s/%s", kind, d.name, mode), func(t *testing.T) {
					opts := d.opts
					opts.Foreign = foreign
					runKernelPair(t, kind, p, opts, d.workers, items, nil)
				})
				// The tiers read the decay only through Factor and Horizon,
				// so a heavy-tailed kernel must pass the same cell (INV
				// and L2 accept any kernel).
				if kind != INV && kind != L2 {
					continue
				}
				t.Run(fmt.Sprintf("%v/%s/%s/poly", kind, d.name, mode), func(t *testing.T) {
					opts := d.opts
					opts.Foreign = foreign
					opts.Kernel = apss.Polynomial{Alpha: 0.3, P: 1.5}
					runKernelPair(t, kind, p, opts, d.workers, items, nil)
				})
			}
		}
	}
}
