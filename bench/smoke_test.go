package main

import (
	"encoding/json"
	"regexp"
	"sort"
	"strings"
	"testing"

	"sssj"
)

// smokeConfig is -scale tiny with just enough time for the minimum
// number of passes.
var smokeConfig = config{seed: 1, seconds: 0.2, tiny: true}

func readManifest(t *testing.T) manifest {
	t.Helper()
	var mf manifest
	if err := readJSON("../BENCHMARK.json", &mf); err != nil {
		t.Fatal(err)
	}
	return mf
}

// TestManifestMatchesCode keeps BENCHMARK.json and the metric tables in
// the code in step: same names, same units, same order of workloads.
func TestManifestMatchesCode(t *testing.T) {
	mf := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, declared []manifestMetric, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code %d", kind, len(declared), len(defs))
			return
		}
		seen := map[string]bool{}
		for i, m := range declared {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the code %s [%s]", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
			if !name.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s metric name %q is malformed or repeated", kind, m.Name)
			}
			seen[m.Name] = true
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
		}
	}
	check("end_to_end", mf.EndToEnd, endToEnd)
	check("per_layer", mf.PerLayer, perLayer)
	for _, m := range mf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code %d", len(mf.Workloads), len(workloads))
	}
	for i, w := range mf.Workloads {
		if w.Name != workloads[i].name || !name.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, w.Name, workloads[i].name)
		}
		if w.Why != workloads[i].why || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be the code's, one line of at most 200 characters", w.Name)
		}
	}
	for _, c := range exactCounters {
		if _, ok := newResult("", perLayer).Units[c]; !ok {
			t.Errorf("exact counter %s is not a per-layer metric", c)
		}
	}
}

// lastLineKeys parses the contract's last line and returns its metric
// names.
func lastLineKeys(t *testing.T, line string) []string {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &obj); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(obj) != 4 || obj["correct"] == nil || obj["attempted"] == nil || obj["failed"] == nil || obj["metrics"] == nil {
		t.Fatalf("last line has keys %v, want exactly correct, attempted, failed, metrics", obj)
	}
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(obj["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	var names []string
	for n, m := range metrics {
		if m.Value == nil || m.Unit == "" {
			t.Errorf("metric %s lacks a value or a unit", n)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func declaredNames(ms []manifestMetric) []string {
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload in both modes at -scale tiny. Each must
// pass its own output checks and emit exactly the metrics BENCHMARK.json
// declares; the exact counters must repeat across two traced runs.
func TestSmoke(t *testing.T) {
	mf := readManifest(t)
	for _, sp := range workloads {
		t.Run(sp.name, func(t *testing.T) {
			res, err := runEndToEnd(sp, smokeConfig, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minPasses*sp.items/tinyFactor {
				t.Errorf("end-to-end run: correct=%v failed=%d attempted=%d notes=%v", res.Correct, res.Failed, res.Attempted, res.Notes)
			}
			if got, want := lastLineKeys(t, lastLine(res, endToEnd)), declaredNames(mf.EndToEnd); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("end-to-end metrics emitted: %v\ndeclared: %v", got, want)
			}
			for _, d := range endToEnd {
				if res.Metrics[d.name].Median <= 0 {
					t.Errorf("%s = %v: an end-to-end metric is never 0", d.name, res.Metrics[d.name].Median)
				}
			}

			first, err := runTraced(sp, smokeConfig)
			if err != nil {
				t.Fatal(err)
			}
			if !first.Correct || first.Failed != 0 || len(first.spans) == 0 {
				t.Errorf("traced run: correct=%v failed=%d spans=%d notes=%v", first.Correct, first.Failed, len(first.spans), first.Notes)
			}
			if got, want := lastLineKeys(t, lastLine(first, perLayer)), declaredNames(mf.PerLayer); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("per-layer metrics emitted: %v\ndeclared: %v", got, want)
			}
			if acc := first.Metrics["trace.accounted_share"].Median; acc < 0.8 || acc > 1.2 {
				t.Errorf("spans account for %.0f%% of the traced pass", 100*acc)
			}
			second, err := runTraced(sp, smokeConfig)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range exactCounters {
				if a, b := first.Metrics[c].Median, second.Metrics[c].Median; a != b {
					t.Errorf("%s: %v in one run, %v in the next", c, a, b)
				}
			}
		})
	}
}

// TestWireDigestsEqualInProcess feeds the blocks of the two loopback
// workloads to an in-process joiner: over the wire the program must
// report the same pairs.
func TestWireDigestsEqualInProcess(t *testing.T) {
	for _, name := range []string{"daemon-loopback", "cluster2-loopback"} {
		t.Run(name, func(t *testing.T) {
			sp, err := workloadByName(name)
			if err != nil {
				t.Fatal(err)
			}
			sp = sp.scaled(true)
			inst, err := sp.setup(sp, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			inst.pass(1)
			if err := inst.finish(); err != nil {
				t.Fatal(err)
			}
			var blocks []*block
			switch inst := inst.(type) {
			case *daemonInstance:
				blocks = inst.blks[:]
			case *clusterInstance:
				blocks = []*block{inst.blk}
			}
			var want digest
			for _, blk := range blocks {
				j, err := sssj.New(sssj.Options{Theta: sp.theta, Lambda: sp.lambda})
				if err != nil {
					t.Fatal(err)
				}
				dig := newPassDigests(sp.items, sp.prefix)
				l := &libInstance{sp: sp, blk: blk, joiner: j, process: j.ProcessTo, sink: dig.sink}
				l.pass(0)
				l.pass(1)
				want.merge(dig.pass(1))
			}
			if got := inst.digests().pass(1); !got.samePairs(want) || got.Pairs == 0 {
				t.Errorf("over the wire %v, in process %v", got, want)
			}
		})
	}
}
