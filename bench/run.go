package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// metricDef declares one metric; BENCHMARK.json repeats name and unit
// and adds direction and bound (a test keeps the two in step).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"throughput_items_s", "items/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"cpu_us_per_item", "us"},
	{"alloc_bytes_per_item", "B"},
	{"setup_s", "s"},
}

const (
	// minPasses is the fewest timed passes a median is taken over.
	minPasses = 5
	// openRate is the total arrival rate of the traced run's open-loop
	// phase, items/s.
	openRate = 8000
	// closedShare is the part of a traced daemon run spent in the closed
	// loop; the rest is the open loop.
	closedShare = 0.5
)

// passStats is one timed pass.
type passStats struct {
	items, failed int
	wall, cpu     time.Duration
	alloc, objs   uint64
	gcPause       time.Duration
	p50, p99      float64 // µs
	lagP99        float64 // µs, open loop only
}

// cpuTime returns the user + system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timedPass runs pass k and measures it from outside. Everything that
// is not the pass — preparing its input, reading counters, sorting the
// latency sample — happens outside the timers.
func timedPass(inst instance, k int) passStats {
	inst.prepare(k)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, t0 := cpuTime(), time.Now()
	out := inst.pass(k)
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	runtime.ReadMemStats(&after)
	slices.Sort(out.lat)
	slices.Sort(out.lag)
	return passStats{
		items: out.items, failed: out.failed, wall: wall, cpu: cpu,
		alloc: after.TotalAlloc - before.TotalAlloc, objs: after.Mallocs - before.Mallocs,
		gcPause: time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		p50:     float64(percentile(out.lat, 50)) / 1e3,
		p99:     float64(percentile(out.lat, 99)) / 1e3,
		lagP99:  float64(percentile(out.lag, 99)) / 1e3,
	}
}

// timedPasses runs passes from k on until there are at least minPasses
// of them and they have measured for at least seconds. It returns the
// next pass index.
func timedPasses(inst instance, k int, seconds float64) ([]passStats, int) {
	var out []passStats
	for timed := 0.0; len(out) < minPasses || timed < seconds; k++ {
		p := timedPass(inst, k)
		timed += p.wall.Seconds()
		out = append(out, p)
	}
	return out, k
}

// column extracts one figure per pass.
func column(ps []passStats, f func(passStats) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

// result is what one workload reports in one mode.
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Passes    int                `json:"passes"`
	Samples   int                `json:"latency_samples_per_pass"`
	Metrics   map[string]summary `json:"metrics"`
	Units     map[string]string  `json:"units"`
	Notes     []string           `json:"notes,omitempty"`
	spans     []span
}

func newResult(name string, defs []metricDef) *result {
	r := &result{Workload: name, Correct: true, Metrics: map[string]summary{}, Units: map[string]string{}}
	for _, d := range defs {
		r.Metrics[d.name] = summary{} // a layer the workload does not touch reports 0
		r.Units[d.name] = d.unit
	}
	return r
}

func (r *result) set(name string, v ...float64) {
	if _, ok := r.Units[name]; !ok {
		panic("undeclared metric " + name)
	}
	r.Metrics[name] = summarize(v)
}

func (r *result) fail(items int, format string, args ...any) {
	r.Correct = false
	r.Failed += items
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// runEndToEnd measures the end-to-end metrics of one workload with
// tracing off and checks its output.
func runEndToEnd(sp spec, cfg config, want *expectations) (*result, error) {
	sp = sp.scaled(cfg.tiny)
	res := newResult(sp.name, endToEnd)
	t0 := time.Now()
	inst, err := sp.setup(sp, cfg.seed, false)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", time.Since(t0).Seconds())

	runtime.GC()
	passes, next := timedPasses(inst, 1, cfg.seconds)
	if err := inst.finish(); err != nil {
		return nil, err
	}

	res.Passes, res.Samples = len(passes), passes[0].items
	for _, p := range passes {
		res.Attempted += p.items
		res.Failed += p.failed
	}
	if res.Failed > 0 {
		res.fail(0, "%d of %d items failed", res.Failed, res.Attempted)
	}
	res.set("throughput_items_s", column(passes, func(p passStats) float64 { return float64(p.items) / p.wall.Seconds() })...)
	res.set("cpu_us_per_item", column(passes, func(p passStats) float64 { return us(int64(p.cpu), p.items) })...)
	res.set("alloc_bytes_per_item", column(passes, func(p passStats) float64 { return float64(p.alloc) / float64(p.items) })...)
	res.set("latency_p50_us", column(passes, func(p passStats) float64 { return p.p50 })...)
	res.set("latency_p99_us", column(passes, func(p passStats) float64 { return p.p99 })...)
	verify(res, inst, sp, cfg, next-1, want)
	return res, nil
}

// verify checks a finished instance's output, outside every timer.
// Passes 1…passes were fed after the warm-up pass 0.
//
//   - Every pass is the same block shifted in time by an exactly
//     representable amount, so each must report the same pair set with
//     bit-identical similarities as pass 1.
//   - The pairs of the first prefix items of pass 1 must be the ones
//     core.BruteForce reports on the sorted stream.
//   - For seed 1 at full scale, pass 1 must match the digest committed in
//     expected.json, which -rebase produced by brute force.
func verify(res *result, inst instance, sp spec, cfg config, passes int, want *expectations) {
	digs := inst.digests()
	first := digs.pass(1)
	for k := 2; k <= passes; k++ {
		if d := digs.pass(k); !d.samePairs(first) || d.SimBits != first.SimBits {
			res.fail(sp.items, "pass %d reported %v, pass 1 reported %v", k, d, first)
		}
	}
	ref, err := inst.references(sp.prefix)
	if err != nil {
		res.fail(sp.prefix, "brute-force reference: %v", err)
	} else if got := digs.prefixOf(1); !got.samePairs(ref) || (!sp.roundedSims && !got.closeSims(ref)) {
		res.fail(sp.prefix, "first %d items of pass 1 reported %v, brute force reports %v", sp.prefix, got, ref)
	}
	if exp, ok := want.lookup(sp.name, cfg); ok {
		if !first.samePairs(exp) || (!sp.roundedSims && !first.closeSims(exp)) {
			res.fail(sp.items, "pass 1 reported %v, expected.json has %v", first, exp)
		}
	}
}
