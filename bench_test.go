// Benchmarks regenerating the paper's evaluation artifacts (§7): one
// benchmark per table and figure, plus per-item microbenchmarks. Each
// bench runs the corresponding harness experiment on a reduced grid and
// scaled-down datasets so `go test -bench=.` completes quickly; use
// cmd/sssjbench for the full-size runs recorded in EXPERIMENTS.md.
package sssj_test

import (
	"testing"
	"time"

	"sssj"
	"sssj/internal/apss"
	"sssj/internal/core"
	"sssj/internal/datagen"
	"sssj/internal/harness"
	"sssj/internal/index/streaming"
	"sssj/internal/stream"
)

// benchCfg is the reduced configuration for benchmark runs.
func benchCfg() harness.Config {
	return harness.Config{
		Scale:   0.05,
		Seed:    1,
		Budget:  5 * time.Second,
		Thetas:  []float64{0.5, 0.9},
		Lambdas: []float64{0.001, 0.1},
	}
}

// BenchmarkTable1Datasets regenerates Table 1 (dataset characteristics).
func BenchmarkTable1Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.RunTable1(benchCfg())
		if len(rows) != 4 {
			b.Fatal("table 1 incomplete")
		}
	}
}

// BenchmarkTable2Completion regenerates Table 2 (fraction of
// configurations finishing within the budget).
func BenchmarkTable2Completion(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		cells := harness.RunTable2(cfg)
		if len(cells) != 24 {
			b.Fatal("table 2 incomplete")
		}
	}
}

// BenchmarkFigure2EntriesRatio regenerates Figure 2 (entries traversed,
// STR/MB ratio vs tau).
func BenchmarkFigure2EntriesRatio(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		pts := harness.RunFigure2(cfg)
		if len(pts) == 0 {
			b.Fatal("figure 2 empty")
		}
	}
}

// BenchmarkFigure3RCV1 regenerates Figure 3 (MB vs STR on RCV1).
func BenchmarkFigure3RCV1(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if len(harness.RunFigure3(cfg)) == 0 {
			b.Fatal("figure 3 empty")
		}
	}
}

// BenchmarkFigure4WebSpam regenerates Figure 4 (MB vs STR on WebSpam).
func BenchmarkFigure4WebSpam(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if len(harness.RunFigure4(cfg)) == 0 {
			b.Fatal("figure 4 empty")
		}
	}
}

// BenchmarkFigure5Indexes regenerates Figure 5 (STR index comparison,
// time, RCV1).
func BenchmarkFigure5Indexes(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if len(harness.RunFigure5(cfg)) == 0 {
			b.Fatal("figure 5 empty")
		}
	}
}

// BenchmarkFigure6Entries regenerates Figure 6 (STR index comparison,
// entries traversed, Tweets).
func BenchmarkFigure6Entries(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if len(harness.RunFigure6(cfg)) == 0 {
			b.Fatal("figure 6 empty")
		}
	}
}

// BenchmarkFigure7Lambda regenerates Figure 7 (STR-L2 time vs lambda).
func BenchmarkFigure7Lambda(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if len(harness.RunFigure78(cfg)) == 0 {
			b.Fatal("figure 7 empty")
		}
	}
}

// BenchmarkFigure8Theta regenerates Figure 8 (STR-L2 time vs theta). The
// underlying grid is the same as Figure 7's; the bench exists so each
// figure has a named target.
func BenchmarkFigure8Theta(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if len(harness.RunFigure78(cfg)) == 0 {
			b.Fatal("figure 8 empty")
		}
	}
}

// BenchmarkFigure9Horizon regenerates Figure 9 (time vs tau regression).
func BenchmarkFigure9Horizon(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if len(harness.RunFigure9(cfg)) != 4 {
			b.Fatal("figure 9 incomplete")
		}
	}
}

// ---------------------------------------------------------------------------
// Per-item microbenchmarks.

func benchStreamItems(b *testing.B, prof datagen.Profile) []stream.Item {
	b.Helper()
	return prof.Scaled(0.25).Generate(7)
}

// BenchmarkSTRPerItem measures per-item cost of each streaming index on
// the RCV1 profile.
func BenchmarkSTRPerItem(b *testing.B) {
	items := benchStreamItems(b, datagen.RCV1Profile())
	p := apss.Params{Theta: 0.7, Lambda: 0.01}
	for _, k := range streaming.Kinds() {
		b.Run(k.String(), func(b *testing.B) {
			idx, err := streaming.New(k, p, streaming.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := items[i%len(items)]
				it.ID = uint64(i)
				it.Time = items[len(items)-1].Time + float64(i)*0.25
				if _, err := idx.Add(it); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBruteForcePerItem is the unindexed baseline for the same
// workload.
func BenchmarkBruteForcePerItem(b *testing.B) {
	items := benchStreamItems(b, datagen.RCV1Profile())
	p := apss.Params{Theta: 0.7, Lambda: 0.01}
	bf, err := core.NewBruteForce(p, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := items[i%len(items)]
		it.ID = uint64(i)
		it.Time = items[len(items)-1].Time + float64(i)*0.25
		if _, err := bf.Add(it); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEnd measures the full join over each dataset profile with
// the recommended STR-L2 configuration.
func BenchmarkEndToEnd(b *testing.B) {
	p := apss.Params{Theta: 0.7, Lambda: 0.01}
	for _, prof := range datagen.Profiles() {
		items := prof.Scaled(0.1).Generate(3)
		b.Run(prof.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := harness.RunOne(items, prof.Name, harness.FrameworkSTR, "L2", p, 0)
				if !res.Completed {
					b.Fatal("run did not complete")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Emission-path benchmarks: the before/after comparison for the sink
// redesign. BenchmarkProcessSlice drives the legacy pull-and-copy API
// (every call materializes a []Match); BenchmarkProcessSink drives the
// same joiner through ProcessTo, where matches flow to the consumer
// with no intermediate slice. Run with
//
//	go test -bench 'BenchmarkProcess' -benchmem
//
// and compare allocs/op: the sink path sheds the per-call result-slice
// growth entirely.

// benchMatchHeavyItems builds a stream of alternating near-identical
// vectors in quick succession, so every Process call reports several
// in-horizon matches — the workload where result-slice allocation
// actually shows up.
func benchMatchHeavyItems(n int) []sssj.Item {
	items := make([]sssj.Item, n)
	for i := range items {
		vals := []float64{1, 2, 2}
		if i%2 == 1 {
			vals = []float64{1, 2, 1.9}
		}
		v, err := sssj.NewVector([]uint32{1, 2, 3}, vals)
		if err != nil {
			panic(err)
		}
		items[i] = sssj.Item{ID: uint64(i), Time: float64(i) * 0.5, Vec: v}
	}
	return items
}

func benchProcessOpts() sssj.Options { return sssj.Options{Theta: 0.7, Lambda: 0.1} }

// BenchmarkProcessSlice measures the slice-returning Process call.
func BenchmarkProcessSlice(b *testing.B) {
	items := benchMatchHeavyItems(1024)
	j, err := sssj.New(benchProcessOpts())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		it := items[i%len(items)]
		it.ID = uint64(i)
		it.Time = float64(i) * 0.5
		ms, err := j.Process(it)
		if err != nil {
			b.Fatal(err)
		}
		total += len(ms)
	}
	if b.N > 8 && total == 0 {
		b.Fatal("match-heavy workload produced no matches")
	}
}

// BenchmarkProcessSink measures the same workload through ProcessTo.
func BenchmarkProcessSink(b *testing.B) {
	items := benchMatchHeavyItems(1024)
	j, err := sssj.New(benchProcessOpts())
	if err != nil {
		b.Fatal(err)
	}
	total := 0
	sink := func(m sssj.Match) error {
		total++
		return nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := items[i%len(items)]
		it.ID = uint64(i)
		it.Time = float64(i) * 0.5
		if err := j.ProcessTo(it, sink); err != nil {
			b.Fatal(err)
		}
	}
	if b.N > 8 && total == 0 {
		b.Fatal("match-heavy workload produced no matches")
	}
}
