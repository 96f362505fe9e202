package perf_test

import (
	"bytes"
	"fmt"

	"sssj/internal/perf"
)

// report fabricates a deterministic report for the examples.
func report(name string, itemsPerSec float64, pairs int64) perf.Report {
	return perf.Report{
		Scenario: perf.Scenario{Name: name, Profile: "RCV1", Framework: "STR", Index: "L2", Theta: 0.7, Lambda: 0.01},
		Items:    1000, Pairs: pairs, ElapsedSec: 1, Completed: true,
		ItemsPerSec: itemsPerSec, PairsPerSec: float64(pairs),
		Latency: perf.LatencySummary{P50: 1e4, P90: 3e4, P99: 9e4, Mean: 1.5e4, Max: 2e5, Count: 1000},
	}
}

func file(reports ...perf.Report) *perf.File {
	return &perf.File{
		Schema: perf.Schema, Version: perf.SchemaVersion,
		GoVersion: "go1.24", GOMAXPROCS: 1, Scale: 0.25, Seed: 1,
		Reports: reports,
	}
}

// ExampleWrite shows the envelope of the BENCH JSON artifact: the
// versioned schema header every reader validates before trusting the
// numbers.
func ExampleWrite() {
	var buf bytes.Buffer
	if err := perf.Write(&buf, file(report("RCV1/STR-L2/t0.70/w1", 2000, 42))); err != nil {
		panic(err)
	}
	f, err := perf.Read(&buf)
	if err != nil {
		panic(err)
	}
	fmt.Printf("schema=%s v%d scenarios=%d\n", f.Schema, f.Version, len(f.Reports))
	fmt.Printf("%s: %.0f items/s, %d pairs, p99=%.0fns\n",
		f.Reports[0].Scenario.Name, f.Reports[0].ItemsPerSec, f.Reports[0].Pairs, f.Reports[0].Latency.P99)
	// Output:
	// schema=sssj-bench v1 scenarios=1
	// RCV1/STR-L2/t0.70/w1: 2000 items/s, 42 pairs, p99=90000ns
}

// ExampleCompare joins a current run against a committed baseline and
// flags the scenario that slowed down past the threshold — the check
// `sssjbench -baseline old.json` runs in CI.
func ExampleCompare() {
	baseline := file(
		report("RCV1/STR-L2/t0.70/w1", 2000, 42),
		report("RCV1/STR-INV/t0.70/w1", 4000, 42),
	)
	current := file(
		report("RCV1/STR-L2/t0.70/w1", 2100, 42),  // a little faster: fine
		report("RCV1/STR-INV/t0.70/w1", 1000, 42), // 4× slower: regression
	)
	c := perf.Compare(baseline, current, perf.CompareOpts{Threshold: 0.25})
	for _, d := range c.Deltas {
		fmt.Printf("%s: %.2fx regression=%v\n", d.Name, d.ItemsPerSecRatio, d.Regression)
	}
	fmt.Println("ok:", c.Ok())
	// Output:
	// RCV1/STR-L2/t0.70/w1: 1.05x regression=false
	// RCV1/STR-INV/t0.70/w1: 0.25x regression=true
	// ok: false
}
