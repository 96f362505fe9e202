// Command sssjbench regenerates the paper's evaluation artifacts — every
// table and figure of §7 on the synthetic dataset analogues — and runs
// the standing perf scenario matrix that produces the machine-readable
// BENCH JSON baseline.
//
// Usage:
//
//	sssjbench -exp table1
//	sssjbench -exp table2 -scale 0.5 -budget 5s
//	sssjbench -exp all
//	sssjbench -exp perf -json BENCH_PR3.json
//	sssjbench -exp perf -baseline BENCH_PR3.json        # exits 1 on regression
//	sssjbench -checkjson BENCH_PR3.json                 # validate an artifact
//
// Experiments: table1, table2, fig2..fig9, delay (the §4 reporting-delay
// claim), ablation (per-bound pruning attribution), perf (the BENCH
// JSON scenario matrix), or all. See DESIGN.md for the experiment index
// and EXPERIMENTS.md for recorded paper-vs-measured outcomes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"sssj/internal/datagen"
	"sssj/internal/harness"
	"sssj/internal/perf"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sssjbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sssjbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp    = fs.String("exp", "all", "experiment: table1 table2 fig2..fig9 delay ablation perf all")
		scale  = fs.Float64("scale", 0.25, "dataset size multiplier")
		seed   = fs.Int64("seed", 1, "dataset generation seed")
		budget = fs.Duration("budget", 10*time.Second, "per-run time budget (the paper's 3h timeout analog)")
		csv    = fs.String("csv", "", "also dump raw grid results as CSV to this path (fig3..fig9)")

		profile = fs.String("profile", "",
			"restrict the perf matrix to one dataset profile (matrix covers "+
				datagen.NameList(perf.Profiles(perf.DefaultScenarios()))+
				"; all datagen profiles: "+datagen.NameList(datagen.ProfileNames())+"; empty = all)")
		jsonOut  = fs.String("json", "", "perf: write the BENCH JSON artifact to this path")
		baseline = fs.String("baseline", "", "perf: compare against this BENCH JSON baseline; exit nonzero past the regression threshold")
		regress  = fs.Float64("regress", perf.DefaultThreshold, "perf: tolerated fractional items/s drop vs the baseline before failing")
		allocReg = fs.Float64("allocregress", perf.DefaultAllocThreshold, "perf: tolerated fractional objects/item growth vs the baseline before failing (negative disables)")
		repeats  = fs.Int("repeats", perf.DefaultRepeats, "perf: measure each scenario N times and report the best (noise is one-sided)")
		check    = fs.String("checkjson", "", "validate that the BENCH JSON file at this path parses against the schema, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *check != "" {
		f, err := perf.ReadFile(*check)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: valid %s v%d artifact, %d scenario(s), scale=%v seed=%d\n",
			*check, f.Schema, f.Version, len(f.Reports), f.Scale, f.Seed)
		return nil
	}
	// The perf-only flags do nothing under the paper experiments; reject
	// rather than silently not gating (a CI job that forgets -exp perf
	// must fail loudly, not skip its baseline comparison).
	if *exp != "perf" {
		perfOnly := map[string]bool{"json": true, "baseline": true, "regress": true, "allocregress": true, "repeats": true, "profile": true}
		var misused []string
		fs.Visit(func(fl *flag.Flag) {
			if perfOnly[fl.Name] {
				misused = append(misused, "-"+fl.Name)
			}
		})
		if len(misused) > 0 {
			return fmt.Errorf("%s require -exp perf (got -exp %s)", strings.Join(misused, ", "), *exp)
		}
	}
	if *exp == "perf" {
		if *regress <= 0 || *regress >= 1 {
			return fmt.Errorf("-regress must be in (0, 1), got %v", *regress)
		}
		// Zero is ambiguous (perf.Compare treats it as "use the default"),
		// so reject it rather than silently widening a gate the operator
		// asked to close; near-zero tolerance is a small positive value.
		if *allocReg == 0 {
			return fmt.Errorf("-allocregress must be nonzero: positive tolerance (e.g. 0.01 for near-zero) or negative to disable")
		}
		return runPerf(stdout, *profile, *jsonOut, *baseline, *regress, *allocReg,
			perf.RunConfig{Scale: *scale, Seed: *seed, Budget: *budget, Repeats: *repeats})
	}
	cfg := harness.Config{Scale: *scale, Seed: *seed, Budget: *budget}

	dumpCSV := func(results []harness.Result) {
		if *csv == "" {
			return
		}
		f, err := os.Create(*csv)
		if err != nil {
			fmt.Fprintln(stderr, "csv:", err)
			return
		}
		defer f.Close()
		if err := harness.WriteCSV(f, results); err != nil {
			fmt.Fprintln(stderr, "csv:", err)
		}
	}

	experiments := map[string]func(io.Writer, harness.Config){
		"table1": func(w io.Writer, c harness.Config) { harness.PrintTable1(w, harness.RunTable1(c)) },
		"table2": func(w io.Writer, c harness.Config) { harness.PrintTable2(w, harness.RunTable2(c)) },
		"fig2":   func(w io.Writer, c harness.Config) { harness.PrintFigure2(w, harness.RunFigure2(c)) },
		"fig3": func(w io.Writer, c harness.Config) {
			res := harness.RunFigure3(c)
			dumpCSV(res)
			harness.PrintTimeGrid(w, "Figure 3: MB vs STR on RCV1", res)
		},
		"fig4": func(w io.Writer, c harness.Config) {
			res := harness.RunFigure4(c)
			dumpCSV(res)
			harness.PrintTimeGrid(w, "Figure 4: MB vs STR on WebSpam", res)
		},
		"fig5": func(w io.Writer, c harness.Config) {
			res := harness.RunFigure5(c)
			dumpCSV(res)
			harness.PrintTimeGrid(w, "Figure 5: STR indexes on RCV1", res)
		},
		"fig6": func(w io.Writer, c harness.Config) {
			res := harness.RunFigure6(c)
			dumpCSV(res)
			harness.PrintEntriesGrid(w, "Figure 6: STR indexes on Tweets", res)
		},
		"fig7": func(w io.Writer, c harness.Config) {
			res := harness.RunFigure78(c)
			dumpCSV(res)
			harness.PrintFigure7(w, res)
		},
		"fig8": func(w io.Writer, c harness.Config) {
			res := harness.RunFigure78(c)
			dumpCSV(res)
			harness.PrintFigure8(w, res)
		},
		"fig9": func(w io.Writer, c harness.Config) { harness.PrintFigure9(w, harness.RunFigure9(c)) },
		"delay": func(w io.Writer, c harness.Config) {
			p := harness.Params{Theta: 0.7, Lambda: 0.01}
			stats, err := harness.RunDelay(c, "RCV1", p)
			if err != nil {
				fmt.Fprintln(w, "delay:", err)
				return
			}
			harness.PrintDelay(w, "RCV1", p, stats)
		},
		"ablation": func(w io.Writer, c harness.Config) {
			p := harness.Params{Theta: 0.7, Lambda: 0.01}
			res, err := harness.RunAblation(c, "RCV1", p)
			if err != nil {
				fmt.Fprintln(w, "ablation:", err)
				return
			}
			harness.PrintAblation(w, "RCV1", p, res)
		},
	}
	order := []string{"table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "delay", "ablation"}

	if *exp == "all" {
		for _, name := range order {
			fmt.Fprintf(stdout, "==== %s ====\n", name)
			start := time.Now()
			experiments[name](stdout, cfg)
			fmt.Fprintf(stdout, "(%s in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		}
		return nil
	}
	fn, ok := experiments[*exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	fn(stdout, cfg)
	return nil
}

// errRegression is the perf compare verdict; main exits nonzero on it.
var errRegression = errors.New("perf regression vs baseline")

// runPerf measures the scenario matrix, optionally writes the BENCH JSON
// artifact, and optionally compares against a committed baseline.
func runPerf(stdout io.Writer, profile, jsonOut, baseline string, threshold, allocThreshold float64, cfg perf.RunConfig) error {
	all := perf.DefaultScenarios()
	scs := perf.FilterByProfile(all, profile)
	if len(scs) == 0 {
		return fmt.Errorf("no perf scenarios for profile %q (matrix covers %s)",
			profile, datagen.NameList(perf.Profiles(all)))
	}
	fmt.Fprintf(stdout, "perf: %d scenario(s), scale=%v seed=%d budget=%v\n",
		len(scs), cfg.Scale, cfg.Seed, cfg.Budget)
	f, err := perf.RunAll(scs, cfg, nil)
	if err != nil {
		return err
	}
	perf.PrintReports(stdout, f.Reports)
	if jsonOut != "" {
		if err := perf.WriteFile(jsonOut, f); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%s v%d, %d scenarios)\n", jsonOut, f.Schema, f.Version, len(f.Reports))
	}
	if baseline != "" {
		base, err := perf.ReadFile(baseline)
		if err != nil {
			return err
		}
		c := perf.Compare(base, f, perf.CompareOpts{Threshold: threshold, AllocThreshold: allocThreshold})
		perf.PrintComparison(stdout, c)
		if !c.Ok() {
			return fmt.Errorf("%w: %d regression(s), %d missing scenario(s), %d config mismatch(es)",
				errRegression, c.Regressions(), len(c.MissingInCurrent), len(c.ConfigMismatch))
		}
	}
	return nil
}
