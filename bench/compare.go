package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// manifest is the part of BENCHMARK.json -compare and the tests read.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// manifestPath is where the benchmark is declared, relative to the root
// of the checkout the benchmark runs from.
const manifestPath = "BENCHMARK.json"

// exactCounters are the per-layer metrics taken from the program's own
// counters: they must repeat exactly for a given seed.
var exactCounters = []string{
	"streaming.entries_traversed_per_item", "streaming.candidates_per_item", "streaming.full_dots_per_item",
	"streaming.indexed_entries_per_item", "streaming.expired_entries_per_item",
	"streaming.posting_entries_live", "streaming.lists_live", "streaming.residuals_live",
	"streaming.arena_blocks_live", "streaming.checkpoint_bytes", "stream.late_drops",
	"apss.pairs_per_item", "cluster.fanout_per_item",
}

// verdict judges metric m going from a to b under its bound. A median
// worse by more than the bound and by more than the spread (the
// interquartile distance over the median, the wider of the two sides)
// has "regressed". Otherwise a spread wider than the bound means the
// runs cannot resolve a change of that size: "unresolved", not "ok".
func verdict(m manifestMetric, a, b summary) string {
	spread := max(a.spread(), b.spread())
	worse := b.Median - a.Median
	if m.Better == "higher" {
		worse = -worse
	}
	if a.Median != 0 && worse/a.Median > max(m.Bound, spread) {
		return "regressed"
	}
	if spread > m.Bound {
		return "unresolved"
	}
	return "ok"
}

// failedShare is the share of attempted items that failed.
func failedShare(r *result) float64 { return ratio(float64(r.Failed), float64(r.Attempted)) }

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files, a failed_share row per workload (any increase is a
// regression) and one row per exact counter that differs, and fails
// unless every row is "ok".
func compareFiles(pathA, pathB string) error {
	var mf manifest
	var a, b report
	for _, f := range []struct {
		path string
		into any
	}{{manifestPath, &mf}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(f.path, f.into); err != nil {
			return err
		}
	}
	fmt.Printf("A: %v\nB: %v\n", a.Env, b.Env)
	if a.Env.Seconds != b.Env.Seconds || a.Env.Scale != b.Env.Scale {
		return fmt.Errorf("the two files were measured with different -seconds or -scale")
	}
	const row = "%-18s %-22s %12.6g %25s %12.6g %25s %+6.1f%% %5.0f%%  %s\n"
	fmt.Printf("%-18s %-22s %12s %25s %12s %25s %7s %6s  %s\n",
		"workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "change", "bound", "verdict")
	bad := 0
	for _, w := range mf.Workloads {
		ra, rb := a.EndToEnd[w.Name], b.EndToEnd[w.Name]
		if ra == nil || rb == nil {
			fmt.Printf("%-18s missing from a result file\n", w.Name)
			bad++
			continue
		}
		for _, m := range mf.EndToEnd {
			sa, sb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			v := verdict(m, sa, sb)
			if v != "ok" {
				bad++
			}
			fmt.Printf(row, w.Name, m.Name,
				sa.Median, fmt.Sprintf("[%.5g, %.5g]", sa.Q1, sa.Q3),
				sb.Median, fmt.Sprintf("[%.5g, %.5g]", sb.Q1, sb.Q3), 100*ratio(sb.Median-sa.Median, sa.Median), 100*m.Bound, v)
		}
		fa, fb, v := failedShare(ra), failedShare(rb), "ok"
		if fb > fa {
			v = "regressed"
			bad++
		}
		fmt.Printf(row, w.Name, "failed_share", fa, "", fb, "", 100*ratio(fb-fa, fa), 0.0, v)
		if la, lb := a.PerLayer[w.Name], b.PerLayer[w.Name]; la != nil && lb != nil {
			for _, c := range exactCounters {
				if ca, cb := la.Metrics[c].Median, lb.Metrics[c].Median; ca != cb {
					fmt.Printf("%-18s %-40s %v in A, %v in B: an exact counter differs\n", w.Name, c, ca, cb)
					bad++
				}
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are not ok", bad)
	}
	return nil
}
