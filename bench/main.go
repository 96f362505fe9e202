// Command bench is the repository's benchmark: four steady-state
// workloads, six end-to-end metrics each, and a span-traced per-layer
// breakdown. BENCHMARK.json at the repository root declares it; README.md
// beside this file explains the workloads and how to read the output.
//
//	bash bench/run.sh                          # every workload, both modes
//	bash bench/run.sh -workload scan-heavy     # one workload, end-to-end metrics
//	bash bench/run.sh -workload scan-heavy -trace 1 -spans spans.json
//	bash bench/run.sh -out a.json; bash bench/run.sh -out b.json
//	bash bench/run.sh -compare a.json b.json
//
// With -workload, the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

//go:embed expected.json
var expectedJSON []byte

// expectations are the pass-1 digests committed for one seed at full
// scale, produced by -rebase from a brute-force run of the same stream.
type expectations struct {
	Seed      int64             `json:"seed"`
	Workloads map[string]digest `json:"workloads"`
}

func (e *expectations) lookup(workload string, cfg config) (digest, bool) {
	if e == nil || cfg.tiny || cfg.seed != e.Seed {
		return digest{}, false
	}
	d, ok := e.Workloads[workload]
	return d, ok
}

// rebase brute-forces pass 1 of every workload at full scale and writes
// the digests to path.
func rebase(path string, seed int64) error {
	exp := expectations{Seed: seed, Workloads: map[string]digest{}}
	for _, sp := range workloads {
		inst, err := sp.setup(sp, seed, false)
		if err != nil {
			return err
		}
		ref, err := inst.references(sp.items)
		if ferr := inst.finish(); err == nil {
			err = ferr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		exp.Workloads[sp.name] = ref
		fmt.Printf("%-18s %v\n", sp.name, ref)
	}
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// report is the -out file: everything a later -compare needs.
type report struct {
	Env       environment        `json:"env"`
	EndToEnd  map[string]*result `json:"end_to_end"`
	PerLayer  map[string]*result `json:"per_layer"`
	Workloads []string           `json:"workloads"`
}

// printResult prints every metric of a result by name with its unit,
// and the quartiles over passes beside each median.
func printResult(res *result, defs []metricDef) {
	fmt.Printf("%s: %d passes, %d items attempted, %d failed, %d latency samples per pass, correct=%v\n",
		res.Workload, res.Passes, res.Attempted, res.Failed, res.Samples, res.Correct)
	for _, d := range defs {
		m := res.Metrics[d.name]
		fmt.Printf("  %-40s %14.6g %-13s [q1 %.6g, q3 %.6g, n %d]\n", d.name, m.Median, d.unit, m.Q1, m.Q3, m.N)
	}
	for _, n := range res.Notes {
		fmt.Printf("  MISMATCH: %s\n", n)
	}
}

// lastLine renders the one-line JSON object the benchmark contract asks
// for.
func lastLine(res *result, defs []metricDef) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.name] = value{res.Metrics[d.name].Median, d.unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(data)
}

func run() error {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all four, in both modes)")
		seed     = flag.Int64("seed", 1, "seed of the stream generators, the benchmark's only input")
		seconds  = flag.Float64("seconds", 15, "how long each workload measures; BENCHMARK.json's run_seconds, which its driver passes")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from traced passes")
		scale    = flag.String("scale", "full", "full, or tiny for a smoke run with 1/20 the items")
		spans    = flag.String("spans", "", "with -trace 1: write the spans of the last traced pass to this file as JSON")
		out      = flag.String("out", "", "write results and environment to this file as JSON")
		compare  = flag.Bool("compare", false, "-compare a.json b.json: apply BENCHMARK.json's bounds to two -out files and exit")
		rebaseTo = flag.String("rebase", "", "recompute the expected digests by brute force, write them to this file and exit")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare wants two result files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *scale != "full" && *scale != "tiny" {
		return fmt.Errorf("-scale must be full or tiny, not %q", *scale)
	}
	if *workload != "" {
		if _, err := workloadByName(*workload); err != nil {
			return err
		}
	}
	if *rebaseTo != "" {
		return rebase(*rebaseTo, *seed)
	}
	var want expectations
	if err := json.Unmarshal(expectedJSON, &want); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	cfg := config{seed: *seed, seconds: *seconds, tiny: *scale == "tiny"}
	rep := report{Env: readEnvironment(*seed, *scale, *seconds), EndToEnd: map[string]*result{}, PerLayer: map[string]*result{}}
	fmt.Println(rep.Env)

	var final string
	correct := true
	for _, sp := range workloads {
		if *workload != "" && sp.name != *workload {
			continue
		}
		rep.Workloads = append(rep.Workloads, sp.name)
		if *workload == "" || *trace == 0 {
			res, err := runEndToEnd(sp, cfg, &want)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			printResult(res, endToEnd)
			rep.EndToEnd[sp.name], final, correct = res, lastLine(res, endToEnd), correct && res.Correct
		}
		if *workload == "" || *trace != 0 {
			res, err := runTraced(sp, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			printResult(res, perLayer)
			rep.PerLayer[sp.name], final, correct = res, lastLine(res, perLayer), correct && res.Correct
			if *spans != "" {
				if err := writeSpans(*spans, res.spans); err != nil {
					return err
				}
			}
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *workload != "" {
		fmt.Println(final)
	}
	if !correct {
		return fmt.Errorf("output check failed")
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
