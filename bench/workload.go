package main

import (
	"fmt"
	"time"

	"sssj/internal/apss"
	"sssj/internal/datagen"
)

// config is what one invocation asks of a workload.
type config struct {
	seed    int64
	seconds float64
	tiny    bool // -scale tiny: blocks 1/20 the size, λ × 20 so the window shrinks with them
}

// spec sizes one workload. The names are fixed: later changes are judged
// on them.
type spec struct {
	name, why string
	profile   datagen.Profile
	items     int // block length per stream
	theta     float64
	lambda    float64
	lateness  float64 // reorder bound δ, and the disorder injected into the arrival order
	prefix    int     // items of pass 1 recomputed by brute force on every run
	// roundedSims marks a workload whose matches come back with their
	// similarity rounded (ADD replies carry six decimals): only its pair
	// set is compared with the reference, not its similarity sum.
	roundedSims bool
	setup       func(sp spec, seed int64, traced bool) (instance, error)
}

// tinyFactor is how much -scale tiny shrinks a block; λ grows by the
// same factor, so the live window stays the same share of the block.
const tinyFactor = 20

func (sp spec) scaled(tiny bool) spec {
	if tiny {
		sp.items /= tinyFactor
		sp.lambda *= tinyFactor
		sp.prefix /= tinyFactor
	}
	return sp
}

func (sp spec) params() apss.Params { return apss.Params{Theta: sp.theta, Lambda: sp.lambda} }

// workloads lists the four workloads. Block lengths are sized so that a
// pass gives at least 50k latency samples and takes 2.5–5 s on the
// 2-core machine the baseline was measured on (thin-pipeline and
// daemon-loopback 1.5–2 s, so that their text stays under 100 MB and
// their open-loop pass at openRate under 15 s), and so that set-up, at
// least minPasses timed passes and the output check end within 35 s.
var workloads = []spec{
	{
		name:    "scan-heavy",
		why:     "in-process STR-L2, 3.6k-item live window: posting-list scans are >90% of the time, parse/reorder/wire do nothing",
		profile: datagen.RCV1Profile(), items: 125000, theta: 0.7, lambda: 1e-4, prefix: 10000,
		setup: newLibInstance,
	},
	{
		name:    "thin-pipeline",
		why:     "text parse -> reorder of a shuffled stream -> STR-L2 with a tiny window -> formatted matches: insert/expire churn, not scans",
		profile: datagen.TweetsProfile(), items: 200000, theta: 0.7, lambda: 0.01, lateness: 20, prefix: 10000,
		setup: newLibInstance,
	},
	{
		name:    "daemon-loopback",
		why:     "two client connections to one server over loopback TCP: protocol, session queue and socket work dwarf the join",
		profile: datagen.RCV1Profile(), items: 50000, theta: 0.7, lambda: 0.01, prefix: 10000,
		roundedSims: true, setup: newDaemonInstance,
	},
	{
		name:    "cluster2-loopback",
		why:     "coordinator fanning out to two shard-engine workers over loopback: routing, exact verification and the slower worker set the pace",
		profile: datagen.RCV1Profile(), items: 50000, theta: 0.7, lambda: 1e-3, prefix: 10000,
		setup: newClusterInstance,
	},
}

func workloadByName(name string) (spec, error) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// passOut is what one pass over the block measured. The slices are
// reused by the next pass.
type passOut struct {
	items  int
	failed int     // items that returned an error: ERR, BUSY after one retry, or a late drop (a *TimeRegressionError)
	lat    []int64 // per-item latency, ns
	lag    []int64 // open loop only: how late each send started, ns
}

// instance is a workload that has been set up: streams generated,
// servers booted, window and arenas filled by pass 0.
type instance interface {
	// prepare does the untimed work pass k needs (re-encoding text).
	prepare(k int)
	// pass feeds pass k of every stream to the program.
	pass(k int) passOut
	// finish drains output still buffered in the program into the
	// digests and stops what set-up started.
	finish() error
	// digests returns the per-pass match digests gathered so far.
	digests() *passDigests
	// references brute-forces the first prefix items of pass 1.
	references(prefix int) (digest, error)
	// phases reports how long set-up spent generating and warming up.
	phases() setupPhases
}

// setupPhases is where set-up spent its time, and the live heap once the
// inputs existed but before the program held anything.
type setupPhases struct {
	generate, warmup time.Duration
	baseHeap         uint64
}
