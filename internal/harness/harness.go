// Package harness drives the paper's experimental evaluation (§7): it
// sweeps the (θ, λ) grid over the four dataset profiles, runs every
// framework × index combination under a per-run time budget, and prints
// the rows/series behind each table and figure.
//
// Absolute numbers differ from the paper's (different hardware, scaled
// datasets); the reproduction targets the shapes: who wins, by what
// factor, and where the crossovers fall.
package harness

import (
	"fmt"
	"io"
	"time"

	"sssj/internal/apss"
	"sssj/internal/cluster"
	"sssj/internal/core"
	"sssj/internal/datagen"
	"sssj/internal/index/static"
	"sssj/internal/index/streaming"
	"sssj/internal/metrics"
	"sssj/internal/stream"
)

// Framework names used in results.
const (
	FrameworkSTR = "STR"
	FrameworkMB  = "MB"
)

// IndexNames lists the index schemes the paper evaluates in both
// frameworks (AP is excluded, as in §7).
func IndexNames() []string { return []string{"INV", "L2AP", "L2"} }

// DefaultThetas is the paper's θ range (§7, "Algorithms").
func DefaultThetas() []float64 { return []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.99} }

// DefaultLambdas is the paper's λ range (§7).
func DefaultLambdas() []float64 { return []float64{1e-4, 1e-3, 1e-2, 1e-1} }

// Config controls a sweep.
type Config struct {
	Scale   float64       // dataset size multiplier (1 = profile default)
	Seed    int64         // generation seed
	Budget  time.Duration // per-run budget; 0 = unlimited (Table 2's 3h analog)
	Thetas  []float64     // defaults to DefaultThetas
	Lambdas []float64     // defaults to DefaultLambdas
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if len(c.Thetas) == 0 {
		c.Thetas = DefaultThetas()
	}
	if len(c.Lambdas) == 0 {
		c.Lambdas = DefaultLambdas()
	}
	return c
}

// Result records one algorithm run on one configuration.
type Result struct {
	Dataset   string
	Framework string
	Index     string
	Theta     float64
	Lambda    float64
	Tau       float64
	Elapsed   time.Duration
	Completed bool // finished within the budget
	Matches   int
	Stats     metrics.Counters
	// IndexSize is the index occupancy at end of run (zero under MB,
	// which buffers windows instead of maintaining one index).
	IndexSize streaming.SizeInfo
}

// Label renders "FRAMEWORK-INDEX".
func (r Result) Label() string { return r.Framework + "-" + r.Index }

// newJoiner instantiates a framework × index combination. foreign
// selects the two-stream foreign join; adapt enables the self-tuning
// layer (STR only; the index name "AUTO" additionally turns on the
// engine selector, starting from the INV floor).
func newJoiner(framework, index string, p apss.Params, c *metrics.Counters, foreign bool, adapt streaming.Adapt) (core.Joiner, error) {
	switch framework {
	case FrameworkSTR:
		var k streaming.Kind
		switch index {
		case "INV":
			k = streaming.INV
		case "L2AP":
			k = streaming.L2AP
		case "L2":
			k = streaming.L2
		case "AUTO":
			k = streaming.INV
			adapt.Auto = true
		default:
			return nil, fmt.Errorf("harness: unknown index %q", index)
		}
		return core.NewSTRFull(k, p, streaming.Options{Counters: c, Foreign: foreign, Adapt: adapt})
	case FrameworkMB:
		var k static.Kind
		switch index {
		case "INV":
			k = static.INV
		case "AP":
			k = static.AP
		case "L2AP":
			k = static.L2AP
		case "L2":
			k = static.L2
		default:
			return nil, fmt.Errorf("harness: unknown index %q", index)
		}
		var mbOpts []core.MBOption
		if foreign {
			mbOpts = append(mbOpts, core.WithForeign())
		}
		return core.NewMiniBatch(k, p, c, mbOpts...)
	default:
		return nil, fmt.Errorf("harness: unknown framework %q", framework)
	}
}

// RunOpts tunes a single measured run beyond the paper's defaults. The
// zero value reproduces RunOne exactly.
type RunOpts struct {
	// Budget is the cooperative per-run deadline; 0 = unlimited.
	Budget time.Duration
	// Latency, when non-nil, receives one observation per processed item:
	// the wall-clock nanoseconds that item spent inside the joiner
	// (candidate generation + verification + indexing). Enabling it costs
	// two monotonic-clock reads per item, so the throughput of an
	// instrumented run is a hair below an uninstrumented one; perf
	// reports always measure with it on, keeping runs comparable to each
	// other.
	Latency *metrics.Histogram
	// Foreign measures the two-stream foreign join A ⋈ B instead of the
	// self-join: the measured loop tags the stream's items with
	// alternating sides (even positions → A, odd → B), the canonical
	// interleaved two-stream workload. The underlying item slice is not
	// modified, so foreign and self scenarios can share one generated
	// stream.
	Foreign bool
	// Reorder routes the measured loop through the bounded-lateness
	// reorder stage (stream.Reorder with δ = Lateness) after perturbing
	// the input with stream.ShuffleWithin(items, Lateness, ShuffleSeed) —
	// the event-time pipeline as the production entry points run it. With
	// Lateness = 0 the shuffle is the identity and the stage is a
	// pass-through, measuring its pure per-item overhead.
	Reorder bool
	// Lateness is the reorder stage's lateness bound δ; used only with
	// Reorder.
	Lateness float64
	// Cluster, when > 0, measures the multi-process tier instead of an
	// in-process joiner: an in-process cluster of Cluster shard-engine
	// worker servers on loopback behind a coordinator
	// (internal/cluster.StartLocal). STR only. The measured loop then
	// includes the full line-protocol round trip per item — the cluster
	// scenarios are deployment-shape measurements, not engine ones.
	Cluster int
	// Sessions, when > 0, measures the multi-tenant service shape: one
	// server hosting that many identically-configured sessions, the
	// stream dealt round-robin across them over per-session client
	// connections (see sessionsJoiner). STR only; like Cluster, a
	// deployment-shape measurement including the line-protocol round
	// trip per item.
	Sessions int
	// Adapt enables the self-tuning layer on STR runs: online dimension
	// re-ranking (Adapt.Rerank) and, together with the index name
	// "AUTO", the online engine selector. Ignored by Cluster and
	// Sessions runs.
	Adapt streaming.Adapt
}

// ShuffleSeed seeds the within-δ input perturbation of Reorder runs: one
// fixed seed, so bench runs and oracle tests exercise the same disorder.
const ShuffleSeed int64 = 1

// Supported reports whether the framework × index names denote a
// combination this harness can construct (the same judgment newJoiner
// makes), so callers like internal/perf need not duplicate the support
// matrix.
func Supported(framework, index string) bool {
	var c metrics.Counters
	_, err := newJoiner(framework, index, apss.Params{Theta: 0.5, Lambda: 0.1}, &c, false, streaming.Adapt{})
	return err == nil
}

// RunOne executes one configuration over a pre-generated stream with a
// cooperative per-run budget: the deadline is checked between items, so a
// run that exceeds it stops early and is marked not completed — the
// harness analog of the paper's 3-hour timeout.
func RunOne(items []stream.Item, dataset, framework, index string, p apss.Params, budget time.Duration) Result {
	return RunOneOpts(items, dataset, framework, index, p, RunOpts{Budget: budget})
}

// RunOneOpts is the fully instrumented run entry point: RunOne plus
// the cluster, session, foreign and adaptive variants and optional
// per-item latency capture. Every other Run* helper funnels through it.
func RunOneOpts(items []stream.Item, dataset, framework, index string, p apss.Params, o RunOpts) Result {
	budget := o.Budget
	res := Result{
		Dataset:   dataset,
		Framework: framework,
		Index:     index,
		Theta:     p.Theta,
		Lambda:    p.Lambda,
		Tau:       p.Horizon(),
	}
	var j core.Joiner
	var err error
	if o.Cluster > 0 {
		j, err = newClusterJoiner(framework, index, p, o)
	} else if o.Sessions > 0 {
		j, err = newSessionsJoiner(framework, index, p, o)
	} else {
		j, err = newJoiner(framework, index, p, &res.Stats, o.Foreign, o.Adapt)
	}
	if err != nil {
		return res
	}
	if cl, ok := j.(io.Closer); ok {
		defer cl.Close()
	}
	// Count matches through the sink path: the measured loop then runs
	// the same zero-copy delivery the production entry points use, with
	// no per-item result slice distorting the timings.
	sj, _ := j.(core.SinkJoiner)
	count := func(m apss.Match) error {
		res.Matches++
		return nil
	}
	add := func(it stream.Item) error {
		if sj != nil {
			return sj.AddTo(it, count)
		}
		ms, err := j.Add(it)
		res.Matches += len(ms)
		return err
	}
	flush := func() error {
		if sj != nil {
			return sj.FlushTo(count)
		}
		ms, err := j.Flush()
		res.Matches += len(ms)
		return err
	}
	if o.Reorder {
		items = stream.ShuffleWithin(items, o.Lateness, ShuffleSeed)
		var reo *stream.Reorder
		if o.Foreign && o.Lateness > 0 {
			reo = stream.NewSidedReorder(o.Lateness)
		} else {
			reo = stream.NewReorder(o.Lateness)
		}
		// The shuffle is admissible under δ by construction, so the stage
		// drops nothing: the joiner sees the sorted stream, later.
		joinerAdd, joinerFlush := add, flush
		add = func(it stream.Item) error { return reo.Push(it, joinerAdd) }
		flush = func() error {
			if err := reo.Flush(joinerAdd); err != nil {
				return err
			}
			return joinerFlush()
		}
	}
	start := time.Now()
	deadline := time.Time{}
	if budget > 0 {
		deadline = start.Add(budget)
	}
	completed := true
	for i, it := range items {
		if o.Foreign && i%2 == 1 {
			it.Side = apss.SideB // tag the loop's copy; the shared slice stays untouched
		}
		var itemStart time.Time
		if o.Latency != nil {
			itemStart = time.Now()
		}
		err := add(it)
		if o.Latency != nil {
			o.Latency.ObserveDuration(time.Since(itemStart))
		}
		if err != nil {
			completed = false
			break
		}
		if budget > 0 && i%32 == 31 && time.Now().After(deadline) {
			completed = false
			break
		}
	}
	if completed {
		if err := flush(); err != nil {
			completed = false
		}
		if budget > 0 && time.Now().After(deadline) {
			completed = false
		}
	}
	res.Elapsed = time.Since(start)
	res.Completed = completed
	if sz, ok := j.(interface{ IndexSize() streaming.SizeInfo }); ok {
		res.IndexSize = sz.IndexSize()
	}
	// A joiner that aggregates its own counters (the cluster coordinator
	// sums its workers') overrides the locally threaded ones.
	if sp, ok := j.(interface {
		Stats() (metrics.Counters, error)
	}); ok {
		if c, err := sp.Stats(); err == nil {
			res.Stats = c
		}
	}
	return res
}

// newClusterJoiner boots the in-process cluster tier for a measured run:
// o.Cluster shard-engine worker servers on loopback ports behind a
// coordinator. The caller closes the returned joiner.
func newClusterJoiner(framework, index string, p apss.Params, o RunOpts) (core.Joiner, error) {
	if framework != FrameworkSTR {
		return nil, fmt.Errorf("harness: cluster runs require the STR framework, got %q", framework)
	}
	var k streaming.Kind
	switch index {
	case "INV":
		k = streaming.INV
	case "L2AP":
		k = streaming.L2AP
	case "L2":
		k = streaming.L2
	default:
		return nil, fmt.Errorf("harness: unknown index %q", index)
	}
	return cluster.StartLocal(k, p, cluster.LocalOptions{
		Workers: o.Cluster,
		Foreign: o.Foreign,
	})
}

// Datasets materializes the four profiles at the configured scale.
func Datasets(cfg Config) map[string][]stream.Item {
	cfg = cfg.withDefaults()
	out := make(map[string][]stream.Item, 4)
	for _, p := range datagen.Profiles() {
		out[p.Name] = p.Scaled(cfg.Scale).Generate(cfg.Seed)
	}
	return out
}

// Grid enumerates the (θ, λ) grid of a config.
func Grid(cfg Config) []apss.Params {
	cfg = cfg.withDefaults()
	var out []apss.Params
	for _, l := range cfg.Lambdas {
		for _, t := range cfg.Thetas {
			out = append(out, apss.Params{Theta: t, Lambda: l})
		}
	}
	return out
}
