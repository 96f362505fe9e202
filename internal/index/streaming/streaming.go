// Package streaming implements the STR-framework indexes of the paper
// (§5, Algorithms 5–8): incremental indexes over an unbounded stream with
// time filtering built in.
//
// Three schemes are provided, matching the paper's evaluation:
//
//	INV  — plain inverted index with time-ordered posting lists; backward
//	       scans stop and truncate at the first expired entry (§5.1, §6.2).
//	L2   — the paper's contribution (§5.4): only the data-independent ℓ2
//	       bounds, so no max-vector maintenance, no re-indexing, and
//	       time-ordered lists that support backward truncation.
//	L2AP — the streaming adaptation of Anastasiu & Karypis (§5.3): adds the
//	       AP bounds, which require the monotone max vector m (with
//	       re-indexing when it grows) and the decayed max vector m̂λ.
//
// Every index is query-then-insert: Add(x) first reports all earlier
// stream items whose time-dependent similarity with x reaches θ, then
// makes x available to future queries.
package streaming

import (
	"errors"
	"fmt"

	"sssj/internal/apss"
	"sssj/internal/metrics"
	"sssj/internal/stream"
)

// Kind selects a streaming indexing scheme.
type Kind int

// The streaming schemes evaluated in the paper, plus AP. §5.2 notes the
// streaming version of AP is not efficient in practice and the paper omits
// it from the evaluation; it is provided here as an ablation (the L2AP
// engine with the ℓ2 bounds switched off) to let the benchmarks quantify
// that claim.
const (
	INV Kind = iota
	L2AP
	L2
	AP
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case INV:
		return "INV"
	case L2AP:
		return "L2AP"
	case L2:
		return "L2"
	case AP:
		return "AP"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds lists the streaming schemes of the paper's evaluation (AP is
// excluded, matching §7; it remains constructible via New).
func Kinds() []Kind { return []Kind{INV, L2AP, L2} }

// Options configures a streaming index.
type Options struct {
	// Counters receives operation counts; nil disables counting.
	Counters *metrics.Counters
	// Kernel overrides the decay kernel. Defaults to the paper's
	// apss.Exponential{Lambda: params.Lambda}. STR-L2AP and STR-AP
	// require the exponential kernel (the m̂λ bound exploits exponential
	// decay).
	Kernel apss.Kernel
	// Ablations switches off individual pruning rules. Output is
	// unchanged — every rule is a pure optimization — but the work
	// counters grow; the ablation benchmarks use this to attribute the
	// speedups of §7 to specific bounds.
	Ablations Ablations
	// Order enables the warmup-learned dimension-ordering extension
	// (see WarmupOrder). The zero value disables it, matching the paper.
	Order WarmupOrder
	// Adapt enables the statistics-free self-tuning layer (see Adapt):
	// incremental dimension re-ranking and/or online engine selection.
	// Mutually exclusive with Order (it subsumes it), Shard, and the
	// pruning Ablations; the zero value disables it.
	Adapt Adapt
	// Shard configures the index as one worker of an N-way
	// dimension-sharded cluster group (see the Shard type and shard.go).
	// It is an ownership predicate on the one engine of each scheme: with
	// N > 1 posting entries are stored only for owned dimensions,
	// admission uses shard-local bounds on the total similarity, and
	// verification is always exact; the zero value and N = 1 own every
	// dimension and build the sequential engine. Mutually exclusive with
	// the pruning Ablations, Order and Adapt. A worker with N > 1
	// cannot be checkpointed (Save and Load return ErrShard).
	Shard Shard
	// Foreign switches the index from a self-join to a two-stream
	// foreign join A ⋈ B: each item carries a stream.Item.Side tag, and
	// only cross-side pairs are admitted as candidates and emitted.
	//
	// Soundness and the oracle property: every per-pair pruning bound of
	// the self-join remains valid verbatim — side gating only removes
	// candidates, never loosens a bound — and the global statistics
	// (boundaries, pscores, m, m̂λ) are deliberately kept identical to
	// the self-join over the same interleaved stream (a max over A ∪ B
	// dominates the per-side max, so bounds built on it stay safe for
	// cross-side pairs). The foreign join over an interleaved stream is
	// therefore exactly the side-filtered self-join, with bit-identical
	// similarities — the metamorphic oracle the test battery checks.
	Foreign bool
}

// Ablations disables individual pruning rules of the prefix-filtering
// engines (no effect on INV, which has none).
type Ablations struct {
	// NoRemscore admits every posting entry's vector as a candidate,
	// skipping the remscore test (Algorithm 7, line 8).
	NoRemscore bool
	// NoL2Bound skips the early ℓ2 candidate pruning (Algorithm 7,
	// lines 10–12).
	NoL2Bound bool
	// NoVerifyBounds skips the ps1/ds1/sz2 checks (Algorithm 8,
	// lines 3–6), computing the exact similarity for every candidate.
	NoVerifyBounds bool
	// NoIndexBound indexes every coordinate instead of only the suffix
	// past the b1/b2 threshold crossing (Algorithm 6, lines 10–14),
	// degenerating the index toward INV with residual machinery intact.
	NoIndexBound bool
	// ScalarKernel selects the frozen entry-at-a-time candidate-scan
	// kernel (kernel_scalar.go) instead of the vectorized block kernel
	// (kernelv.go). Unlike the pruning ablations above this is an
	// implementation selector, not an algorithm change: both kernels
	// produce bit-identical matches and counters, and it is therefore
	// allowed on cluster-worker engines too. It exists as the parity
	// oracle for the kernel tests and as an ablation knob for the
	// verification-kernel benchmarks.
	ScalarKernel bool
}

// pruning returns a with the kernel-implementation selector cleared,
// leaving only the flags that change which pruning rules run. The
// engine-eligibility checks in New compare against this: pruning
// ablations require the sequential engine, but ScalarKernel is valid
// everywhere.
func (a Ablations) pruning() Ablations {
	a.ScalarKernel = false
	return a
}

// Index is a streaming SSSJ index.
type Index interface {
	// Add reports all items y already in the stream with
	// sim_Δt(x, y) ≥ θ, then inserts x. Items must arrive in
	// non-decreasing time order; Add returns an error otherwise.
	Add(x stream.Item) ([]apss.Match, error)
	// Size reports current index occupancy, the quantity that makes MB
	// fail by memory and STR feasible (§7, Table 2 discussion).
	Size() SizeInfo
	// Params returns the join parameters the index was built with.
	Params() apss.Params
}

// SinkIndex is an Index whose native reporting path is push-based: AddTo
// hands each match to emit the moment it is verified, with no
// intermediate slice. Every index built by New implements it; Add is the
// collect-into-a-slice adapter over AddTo.
//
// AddTo always processes x to completion: if emit returns an error, the
// remaining matches of x are dropped, x is still indexed, and the first
// emit error is returned — so a consumer can stop mid-stream and the
// index stays exactly as consistent as after a fully consumed item.
type SinkIndex interface {
	Index
	AddTo(x stream.Item, emit apss.Sink) error
}

// Advancer is implemented by indexes that accept event-time watermark
// barriers. Advance(t) promises that no item with Time < t will ever be
// added; the index moves its stream clock to t and performs the same
// horizon expiry and sweep maintenance an arrival at t would, without
// processing an item. A stale barrier (t at or behind the clock) is a
// no-op; a barrier on a fresh index establishes the clock floor, so a
// later item behind t is rejected like any regression.
//
// Every index built by New implements Advancer (the interface is
// asserted, not embedded in Index, to keep frozen reference
// implementations in the test suite valid).
type Advancer interface {
	Advance(t float64) error
}

// collectAdd adapts the push path to the pull API: it runs AddTo with a
// sink that appends to a fresh slice.
func collectAdd(ix SinkIndex, x stream.Item) ([]apss.Match, error) {
	var out []apss.Match
	err := ix.AddTo(x, apss.Collector(&out))
	return out, err
}

// SizeInfo reports current index occupancy.
type SizeInfo struct {
	PostingEntries int // live entries across all posting lists
	Residuals      int // vectors in the residual direct index
	Lists          int // posting lists with at least one live entry
	TrackedDims    int // dimensions tracked by the m/m̂λ statistics (L2AP/AP only)
}

// ErrTimeOrder is returned when items arrive with decreasing timestamps.
var ErrTimeOrder = errors.New("streaming: items must arrive in time order")

// ErrKernel is returned when a scheme does not support the chosen kernel.
var ErrKernel = errors.New("streaming: unsupported decay kernel for scheme")

// ErrShard reports an invalid Shard (cluster-worker) configuration.
var ErrShard = errors.New("streaming: invalid Shard configuration")

// New builds a streaming index of the given kind. Every returned index
// also implements SinkIndex, the push-based reporting path.
func New(kind Kind, params apss.Params, opts Options) (Index, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	c := opts.Counters
	if c == nil {
		c = &metrics.Counters{}
	}
	kernel := opts.Kernel
	if kernel == nil {
		kernel = apss.Exponential{Lambda: params.Lambda}
	}
	if opts.Shard != (Shard{}) {
		if opts.Shard.ID < 0 || opts.Shard.ID >= opts.Shard.N {
			return nil, fmt.Errorf("%w: Shard.ID must be in [0, Shard.N), got %d/%d", ErrShard, opts.Shard.ID, opts.Shard.N)
		}
		if opts.Ablations.pruning() != (Ablations{}) {
			return nil, fmt.Errorf("%w: ablations require the sequential engine", ErrShard)
		}
		if opts.Order != (WarmupOrder{}) {
			return nil, fmt.Errorf("%w: dimension-ordering warmup is not supported on a cluster worker", ErrShard)
		}
		if opts.Adapt.enabled() {
			return nil, fmt.Errorf("%w: the self-tuning layer is not supported on a cluster worker (coordinator routing is keyed by natural dimensions)", ErrShard)
		}
	}
	if opts.Adapt.enabled() {
		if opts.Order != (WarmupOrder{}) {
			return nil, fmt.Errorf("%w: Adapt replaces the warmup-learned dimension order; configure one or the other", ErrAdapt)
		}
		if opts.Ablations.pruning() != (Ablations{}) {
			return nil, fmt.Errorf("%w: pruning ablations require a fixed engine", ErrAdapt)
		}
		return newAdaptiveIndex(kind, params, kernel, opts, c)
	}
	ix, err := newCoreIndex(kind, params, kernel, opts.Shard, opts.Foreign, opts.Ablations, c)
	if err != nil {
		return nil, err
	}
	return newOrderedIndex(ix, opts.Order), nil
}

// newCoreIndex builds a bare engine — no ordering or adaptive wrapper —
// of the given kind: the engine owning shard's dimensions (every
// dimension for the zero Shard). It is the shared constructor of New and
// the adaptive index's rebuild path.
func newCoreIndex(kind Kind, params apss.Params, kernel apss.Kernel, shard Shard, foreign bool, abl Ablations, c *metrics.Counters) (SinkIndex, error) {
	switch kind {
	case INV, L2:
	case L2AP, AP:
		if _, ok := kernel.(apss.Exponential); !ok {
			return nil, fmt.Errorf("%w: STR-%v needs apss.Exponential, got %T", ErrKernel, kind, kernel)
		}
	default:
		return nil, fmt.Errorf("streaming: unknown kind %d", int(kind))
	}
	if kind == INV {
		return newInvIndex(params, kernel, foreign, abl.ScalarKernel, shard, c), nil
	}
	return newEngine(params, kernel, kind != L2, kind != AP, abl, foreign, shard, c), nil
}
