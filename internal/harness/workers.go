package harness

import (
	"fmt"
	"io"
	"runtime"

	"sssj/internal/datagen"
)

// WorkersResult records one worker-count run of the scaling sweep.
type WorkersResult struct {
	Dataset     string
	Workers     int // 0 = the sequential engine
	Result      Result
	ItemsPerSec float64
	Speedup     float64 // vs the sequential run of the same dataset
}

// DefaultWorkerCounts is the sweep grid for the parallel-scaling
// experiment: the sequential engine plus powers of two up to twice the
// machine's core count.
func DefaultWorkerCounts() []int {
	out := []int{0}
	for w := 2; w <= 2*runtime.NumCPU() && w <= 16; w *= 2 {
		out = append(out, w)
	}
	if len(out) == 1 {
		out = append(out, 2) // single-core machine: still exercise the sharded path
	}
	return out
}

// RunWorkers sweeps the in-process STR-L2 shard group over worker
// counts on each dataset profile, reporting throughput and speedup
// relative to the sequential engine. This experiment has no analog in
// the paper (its evaluation is single-threaded, §7); it quantifies what
// dimension sharding costs on one core.
func RunWorkers(cfg Config, counts []int) []WorkersResult {
	cfg = cfg.withDefaults()
	if len(counts) == 0 {
		counts = DefaultWorkerCounts()
	}
	p := Params{Theta: 0.7, Lambda: 0.01}
	var out []WorkersResult
	for _, prof := range datagen.Profiles() {
		items := prof.Scaled(cfg.Scale).Generate(cfg.Seed)
		base := 0.0
		for _, w := range counts {
			res := RunOneWorkers(items, prof.Name, FrameworkSTR, "L2", p, cfg.Budget, w)
			wr := WorkersResult{Dataset: prof.Name, Workers: w, Result: res}
			if res.Completed && res.Elapsed > 0 {
				wr.ItemsPerSec = float64(res.Stats.Items) / res.Elapsed.Seconds()
			}
			if w <= 1 {
				base = wr.ItemsPerSec
			} else if base > 0 && wr.ItemsPerSec > 0 {
				wr.Speedup = wr.ItemsPerSec / base
			}
			out = append(out, wr)
		}
	}
	return out
}

// PrintWorkers renders the scaling sweep.
func PrintWorkers(w io.Writer, results []WorkersResult) {
	fmt.Fprintf(w, "Parallel scaling: STR-L2 sharded engine (GOMAXPROCS=%d)\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%-10s %8s %12s %12s %9s\n", "dataset", "workers", "items/s", "elapsed", "speedup")
	for _, r := range results {
		label := "seq"
		if r.Workers > 1 {
			label = fmt.Sprintf("%d", r.Workers)
		}
		speedup := ""
		if r.Speedup > 0 {
			speedup = fmt.Sprintf("%.2fx", r.Speedup)
		}
		fmt.Fprintf(w, "%-10s %8s %12.0f %12v %9s\n",
			r.Dataset, label, r.ItemsPerSec, r.Result.Elapsed.Round(1e6), speedup)
	}
}
