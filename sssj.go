// Package sssj implements streaming similarity self-join: finding, in an
// unbounded stream of timestamped sparse vectors, all pairs whose
// time-dependent cosine similarity
//
//	sim(x, y) = dot(x, y) · exp(-λ·|t(x)−t(y)|)
//
// reaches a threshold θ. It is a from-scratch reproduction of
// "Streaming Similarity Self-Join" (De Francisci Morales & Gionis,
// VLDB 2016), including both of the paper's frameworks — Streaming (STR)
// and MiniBatch (MB) — and all of its indexing schemes (INV, AP, L2AP, and
// the paper's streaming-optimized L2 index).
//
// # Quick start
//
// The join is push-based: matches flow to the consumer the moment they
// are verified. The range-over-func iterator is the idiomatic surface:
//
//	for m, err := range sssj.Matches(ctx, sssj.Options{Theta: 0.7, Lambda: 0.01}, src) {
//	    if err != nil { ... }
//	    ... // breaking out stops the join
//	}
//
// For item-at-a-time control, feed a Joiner and receive matches through
// a MatchSink (ProcessTo) or as slices (Process):
//
//	j, err := sssj.New(sssj.Options{Theta: 0.7, Lambda: 0.01})
//	if err != nil { ... }
//	for item := range input {
//	    err := j.ProcessTo(item, func(m sssj.Match) error { ...; return nil })
//	    ...
//	}
//	err = j.FlushTo(sink)
//
// The default configuration (STR framework, L2 index) is the paper's
// recommended, most scalable combination.
//
// Beyond the paper's self-join, the same engines run a two-stream
// foreign join A ⋈ B (probes from one stream match only items of the
// other); see JoinMode and ForeignJoiner.
package sssj

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"sssj/internal/apss"
	"sssj/internal/core"
	"sssj/internal/dimorder"
	"sssj/internal/index/static"
	"sssj/internal/index/streaming"
	"sssj/internal/metrics"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// Re-exported core types. Vector is a sparse vector with sorted
// dimensions; Item is a timestamped vector; Match is a reported similar
// pair; Params bundles (θ, λ); Stats carries operation counters; Source
// yields stream items; Kernel generalizes the decay function; Side tags
// an item's input stream for the two-stream (foreign) join.
type (
	Vector = vec.Vector
	Item   = stream.Item
	Match  = apss.Match
	Params = apss.Params
	Stats  = metrics.Counters
	Source = stream.Source
	Kernel = apss.Kernel
	Side   = apss.Side
)

// The two sides of a foreign join (see Side and ForeignJoiner). The
// zero value is SideA, so untagged items of a self-join all share one
// side.
const (
	SideA = apss.SideA
	SideB = apss.SideB
)

// Decay kernels (see Kernel). Exponential is the paper's definition and
// the default; the others are extensions.
type (
	Exponential   = apss.Exponential
	SlidingWindow = apss.SlidingWindow
	Polynomial    = apss.Polynomial
)

// Framework selects between the paper's two algorithmic frameworks.
type Framework int

// Frameworks.
const (
	// Streaming (STR, Algorithm 5) maintains one incremental index with
	// time filtering built in and reports matches online. The paper's
	// recommendation.
	Streaming Framework = iota
	// MiniBatch (MB, Algorithm 1) indexes τ-length windows with a batch
	// index used as a black box; matches are reported with up to 2τ
	// delay.
	MiniBatch
)

// String implements fmt.Stringer.
func (f Framework) String() string {
	switch f {
	case Streaming:
		return "STR"
	case MiniBatch:
		return "MB"
	default:
		return fmt.Sprintf("Framework(%d)", int(f))
	}
}

// IndexKind selects an indexing scheme.
type IndexKind int

// Index kinds.
const (
	// IndexL2 is the paper's contribution (§5.4): ℓ2-only bounds, no
	// global statistics, no re-indexing. The recommended default.
	IndexL2 IndexKind = iota
	// IndexINV is the plain inverted index with no residual filtering.
	IndexINV
	// IndexL2AP is the streaming adaptation of Anastasiu & Karypis's
	// L2AP, combining the AP and ℓ2 bounds.
	IndexL2AP
	// IndexAP is Bayardo et al.'s scheme; supported only under MiniBatch
	// (§5.2: its streaming version is not efficient in practice).
	IndexAP
	// IndexAuto lets the joiner pick the scheme online: it starts on the
	// cheap INV index and promotes toward L2 and L2AP when windowed work
	// counters say the filtering machinery would pay for itself. The
	// promotion ladder is monotone (it never demotes, so it cannot
	// thrash) and the reported pair set is identical to any fixed
	// scheme's. Streaming framework with the decay window only; see
	// Options.Adaptive for the companion re-ranker and the review
	// cadence.
	IndexAuto
)

// String implements fmt.Stringer.
func (k IndexKind) String() string {
	switch k {
	case IndexL2:
		return "L2"
	case IndexINV:
		return "INV"
	case IndexL2AP:
		return "L2AP"
	case IndexAP:
		return "AP"
	case IndexAuto:
		return "auto"
	default:
		return fmt.Sprintf("IndexKind(%d)", int(k))
	}
}

// JoinMode selects which pairs of the stream a joiner reports.
type JoinMode int

// Join modes.
const (
	// JoinSelf is the paper's streaming similarity self-join: every
	// in-horizon pair above θ is reported, regardless of item sides.
	// The default.
	JoinSelf JoinMode = iota
	// JoinForeign is the two-stream foreign join A ⋈ B: every item
	// carries a Side tag and only cross-side pairs are reported. On an
	// interleaved stream it produces exactly the side-filtered self-join
	// — same pairs, bit-identical similarities — while skipping the
	// candidate work for same-side pairs. See ForeignJoiner for the
	// two-stream entry points.
	JoinForeign
)

// String implements fmt.Stringer.
func (m JoinMode) String() string {
	switch m {
	case JoinSelf:
		return "self"
	case JoinForeign:
		return "foreign"
	default:
		return fmt.Sprintf("JoinMode(%d)", int(m))
	}
}

// ErrUnsupported reports an Options combination outside the support
// matrix of the operator it was handed to (see the decision table in
// Options.validate).
var ErrUnsupported = errors.New("sssj: unsupported option combination")

// ErrTimeRegression reports an item whose timestamp falls strictly
// behind the joiner's event-time watermark. With Options.Lateness zero
// (the default) the watermark is simply the latest timestamp seen, so
// this is the classic "timestamps must be non-decreasing" rejection;
// with Lateness δ > 0 items may arrive up to δ out of order and only
// items later than that are rejected. The offending item never touches
// the index and the joiner remains usable.
//
// The concrete error is a *TimeRegressionError carrying the item's
// timestamp and the watermark it fell behind; errors.Is(err,
// ErrTimeRegression) holds for it.
var ErrTimeRegression = errors.New("sssj: timestamps must be non-decreasing")

// TimeRegressionError is the structured form of ErrTimeRegression: the
// rejected item's identity, its timestamp, and the event-time watermark
// it arrived behind (watermark = latest time seen − Options.Lateness,
// per side under the foreign join). errors.Is against ErrTimeRegression
// matches it; errors.As extracts the fields. Each rejection is also
// counted in Stats.LateDrops.
type TimeRegressionError struct {
	// ID is the rejected item's identifier.
	ID uint64
	// Time is the rejected item's timestamp.
	Time float64
	// Watermark is the event-time watermark Time fell strictly behind.
	Watermark float64
}

// Error implements error.
func (e *TimeRegressionError) Error() string {
	return fmt.Sprintf("%v: item %d at t=%v behind watermark t=%v",
		ErrTimeRegression, e.ID, e.Time, e.Watermark)
}

// Unwrap makes errors.Is(err, ErrTimeRegression) hold.
func (e *TimeRegressionError) Unwrap() error { return ErrTimeRegression }

// Options is the single configuration surface shared by every operator
// in the package: the streaming threshold join (New), the top-k
// neighborhood join (NewTopK), the static batch join (BatchJoin), and
// checkpoint restore (Resume). Theta and Lambda are required by the
// streaming operators; everything else defaults to the paper's
// recommended setup (STR framework, L2 index, exponential decay). Each
// operator validates the combination against one shared decision table
// and reports unsupported ones with ErrUnsupported.
type Options struct {
	// Theta is the similarity threshold θ in (0, 1].
	Theta float64
	// Lambda is the time-decay factor λ > 0. Together they fix the time
	// horizon τ = ln(1/θ)/λ beyond which pairs can never match.
	Lambda float64
	// Framework selects STR (default) or MB.
	Framework Framework
	// Index selects the indexing scheme (default IndexL2).
	Index IndexKind
	// Kernel overrides exponential decay (extension). Only STR with
	// IndexINV or IndexL2 supports non-exponential kernels.
	Kernel Kernel
	// Stats, when non-nil, receives operation counters.
	Stats *Stats
	// DimOrder enables the dimension-ordering extension (the paper's
	// suggested future work). Under MiniBatch, each window's batch index
	// orders dimensions by the chosen strategy; under Streaming, a
	// permutation is learned from the first WarmupItems items and applied
	// thereafter (matches among warmup items are delayed until the
	// warmup closes). The zero value keeps natural order, as in the
	// paper.
	DimOrder DimOrder
	// K is the neighborhood size of the top-k join (NewTopK); it must be
	// 0 for every other operator. The NewTopK k parameter is shorthand
	// for setting this field.
	K int
	// Join selects the self-join (default) or the two-stream foreign
	// join (see JoinMode). Under JoinForeign every processed Item must
	// carry its Side tag; the ForeignJoiner wrapper and the Foreign*
	// entry points manage the tagging for you. Supported by both
	// frameworks, all indexes, DimOrder, custom kernels, and
	// Resume; the batch join and the top-k join reject it (BatchJoin's
	// vector input carries no sides, and a one-sided neighborhood is not
	// yet defined).
	Join JoinMode
	// Lateness is the bounded event-time lateness δ ≥ 0 (default 0). With
	// δ > 0, items may arrive up to δ out of timestamp order: the joiner
	// buffers them in a reorder stage and releases them in event-time
	// order once the watermark (latest time seen − δ) passes them, so the
	// match set is bit-identical to the one a perfectly ordered stream
	// would produce. Items arriving strictly behind the watermark are
	// rejected with ErrTimeRegression (a *TimeRegressionError) and counted
	// in Stats.LateDrops. With δ = 0 (the default) the strict
	// non-decreasing contract applies unchanged, at no buffering cost.
	// Under the foreign join each side keeps its own event-time clock and
	// the watermark is the older of the two, so one stream may run ahead
	// of the other by more than δ without losing items. Supported by the
	// streaming operators and Resume; the batch and top-k joins reject a
	// nonzero δ.
	Lateness float64
	// Window selects the join's window semantics (default: the paper's
	// exponential-decay model). See Window and WindowKind for the
	// tumbling and sliding modes and their support matrix.
	Window Window
	// Adaptive enables the statistics-free self-tuning extension: an
	// online dimension re-ranker and/or the engine auto-selector (also
	// reachable as Index: IndexAuto). Streaming framework with the decay
	// window and the default kernel only; the foreign join, Lateness,
	// and Resume all compose. The zero value disables it. See
	// the Adaptive type.
	Adaptive Adaptive
}

// WindowKind selects the event-time window semantics of the streaming
// join.
type WindowKind int

// Window kinds.
const (
	// WindowDecay is the paper's model and the default: similarity decays
	// continuously with the pair's time gap, sim = dot · Kernel(Δt).
	WindowDecay WindowKind = iota
	// WindowTumbling cuts the stream into disjoint windows of length
	// Size, anchored at the first item, and reports every pair inside a
	// window with dot ≥ θ when the window closes (Sim is the raw dot; no
	// decay). Matches are delayed up to one window. Runs on any batch
	// index kind; DimOrder is rejected.
	WindowTumbling
	// WindowSliding reports every pair at most Size apart with dot ≥ θ,
	// fully online (Sim is the raw dot; no decay) — the classic
	// sliding-window join, realized as the streaming framework over the
	// hard-window kernel. IndexINV and IndexL2 only (the L2AP m̂λ bound
	// needs exponential decay); DimOrder and the foreign join compose.
	WindowSliding
)

// String implements fmt.Stringer.
func (k WindowKind) String() string {
	switch k {
	case WindowDecay:
		return "decay"
	case WindowTumbling:
		return "tumbling"
	case WindowSliding:
		return "sliding"
	default:
		return fmt.Sprintf("WindowKind(%d)", int(k))
	}
}

// Window configures the window semantics of the join (see WindowKind).
// The zero value is the paper's decay model. For the tumbling and
// sliding kinds, Size is the window length in stream time units and
// must be positive and finite; Lambda may be left zero (the window
// defines the horizon) and Kernel must be nil (the window defines the
// kernel). Window modes run under the Streaming framework's operator
// surface (New, Join, Matches and friends) only.
type Window struct {
	// Kind selects the semantics (default WindowDecay).
	Kind WindowKind
	// Size is the window length; required > 0 for the tumbling and
	// sliding kinds, required 0 for WindowDecay.
	Size float64
}

// Adaptive configures the statistics-free self-tuning extension. Unlike
// DimOrder — which buffers a warmup, delays its matches, and then fixes
// the permutation forever — the adaptive layer never buffers and never
// delays: it maintains per-dimension frequency and max-value counters
// online, periodically recomputes the ranking, and rebuilds the live
// window (bounded by the horizon) under the new permutation. Engine
// selection works the same way, promoting INV → L2 → L2AP from cheap
// work counters with hysteresis. Both adaptations are output-invisible:
// the reported pair set is always exactly the static configuration's.
type Adaptive struct {
	// Rerank selects the dimension ordering maintained online; OrderNone
	// (the default) leaves natural order.
	Rerank DimStrategy
	// Cadence is how many processed items pass between adaptation
	// reviews. Values < 1 use the package default (2048); setting it
	// without enabling Rerank or Auto (or IndexAuto) is rejected.
	Cadence int
	// Auto enables the engine selector, starting from Options.Index.
	// Index: IndexAuto is shorthand for Auto from the INV floor.
	Auto bool
}

// enabled reports whether the struct itself switches any adaptation on
// (Index: IndexAuto also enables the layer; callers check both).
func (a Adaptive) enabled() bool { return a.Auto || a.Rerank != OrderNone }

// DimOrder configures the dimension-ordering extension.
type DimOrder struct {
	// Strategy ranks dimensions; OrderNone disables the extension.
	Strategy DimStrategy
	// WarmupItems is how many leading stream items the Streaming
	// framework learns the permutation from (ignored by MiniBatch,
	// which learns from each full window). Required > 0 when Strategy
	// is set under Streaming.
	WarmupItems int
}

// DimStrategy ranks dimensions for the ordering extension.
type DimStrategy = dimorder.Strategy

// Ordering strategies.
const (
	// OrderNone keeps natural dimension order (the paper's setting).
	OrderNone = dimorder.None
	// OrderDocFreqAsc puts rare dimensions in the unindexed prefix.
	OrderDocFreqAsc = dimorder.DocFreqAsc
	// OrderMaxValueDesc front-loads large-valued dimensions.
	OrderMaxValueDesc = dimorder.MaxValueDesc
)

// opMode names the operator consuming an Options value. The validate
// decision table keys support on it.
type opMode int

const (
	opStream opMode = iota // New: streaming threshold join
	opTopK                 // NewTopK: bounded-neighborhood join
	opBatch                // BatchJoin: static all-pairs search
	opResume               // Resume: restore from a checkpoint
)

// validate is the single support decision table behind ErrUnsupported.
// Every operator taking Options funnels through it, so the support
// matrix lives in exactly one place:
//
//	               STR                MB            batch     resume
//	INV            yes                yes           yes       yes
//	L2             yes (default)      yes           yes       yes
//	L2AP           yes                yes           yes       yes
//	AP             no (§5.2)          yes           yes       no (§5.2)
//	custom Kernel  INV/L2 any; L2AP   no            no        as STR
//	               exponential only
//	DimOrder       warmup (STR) /     per window    strategy  no
//	               needs WarmupItems                only
//	K              top-k only (>= 1); 0 elsewhere
//	Join foreign   yes                yes           no        yes
//	               (top-k: no)
//	Lateness > 0   yes                yes           no        yes
//	Window         tumbling: any index, no DimOrder, no kernel
//	               sliding:  INV/L2 under STR; DimOrder, foreign OK
//	               stream op only (top-k, batch, and resume reject both kinds)
//	Adaptive /     STR + decay window + default kernel only; foreign,
//	IndexAuto      Lateness, resume OK; excludes DimOrder (it
//	               subsumes it); top-k and batch reject it
//
// Batch ignores Framework, Theta, and Lambda (the threshold is an
// explicit argument and there is no time); Resume ignores Index, Theta,
// and Lambda (they come from the checkpoint itself).
func (o Options) validate(mode opMode) error {
	switch o.Join {
	case JoinSelf:
	case JoinForeign:
		if mode == opBatch {
			return fmt.Errorf("%w: the batch join's vector input carries no sides; use the streaming foreign join", ErrUnsupported)
		}
		if mode == opTopK {
			return fmt.Errorf("%w: top-k neighborhoods are not defined for the foreign join", ErrUnsupported)
		}
	default:
		return fmt.Errorf("%w: unknown join mode %v", ErrUnsupported, o.Join)
	}
	if mode == opTopK && o.K < 1 {
		return fmt.Errorf("%w: top-k needs K >= 1, got %d", ErrUnsupported, o.K)
	}
	if mode != opTopK && o.K != 0 {
		return fmt.Errorf("%w: K is the top-k neighborhood size; use NewTopK", ErrUnsupported)
	}
	if o.Lateness < 0 || math.IsNaN(o.Lateness) || math.IsInf(o.Lateness, 0) {
		return fmt.Errorf("%w: Lateness must be finite and >= 0, got %v", ErrUnsupported, o.Lateness)
	}
	if o.Lateness > 0 && (mode == opTopK || mode == opBatch) {
		return fmt.Errorf("%w: Lateness applies to the streaming joins only", ErrUnsupported)
	}
	switch o.Window.Kind {
	case WindowDecay:
		if o.Window.Size != 0 {
			return fmt.Errorf("%w: Window.Size is set but Window.Kind is the decay default", ErrUnsupported)
		}
	case WindowTumbling, WindowSliding:
		if !(o.Window.Size > 0) || math.IsInf(o.Window.Size, 1) {
			return fmt.Errorf("%w: %v window needs finite Size > 0, got %v", ErrUnsupported, o.Window.Kind, o.Window.Size)
		}
		if mode != opStream {
			return fmt.Errorf("%w: window modes exist only for the streaming threshold join", ErrUnsupported)
		}
		if o.Framework != Streaming {
			return fmt.Errorf("%w: window modes run on the Streaming operator surface (MiniBatch has its own windows)", ErrUnsupported)
		}
		if o.Kernel != nil {
			return fmt.Errorf("%w: a window mode defines its own kernel", ErrUnsupported)
		}
		if o.Window.Kind == WindowSliding {
			if o.Index != IndexINV && o.Index != IndexL2 {
				return fmt.Errorf("%w: the sliding window runs on IndexINV or IndexL2 (the L2AP m̂λ bound needs exponential decay)", ErrUnsupported)
			}
		} else if o.DimOrder.Strategy != OrderNone {
			return fmt.Errorf("%w: the tumbling window does not support DimOrder", ErrUnsupported)
		}
	default:
		return fmt.Errorf("%w: unknown window kind %v", ErrUnsupported, o.Window.Kind)
	}
	adaptive := o.Adaptive.enabled() || o.Index == IndexAuto
	if o.Adaptive.Cadence < 0 {
		return fmt.Errorf("%w: Adaptive.Cadence must be >= 0, got %d", ErrUnsupported, o.Adaptive.Cadence)
	}
	if !adaptive && o.Adaptive.Cadence != 0 {
		return fmt.Errorf("%w: Adaptive.Cadence is set but neither Adaptive.Rerank, Adaptive.Auto, nor IndexAuto is enabled", ErrUnsupported)
	}
	if adaptive {
		if mode == opBatch || mode == opTopK {
			return fmt.Errorf("%w: the adaptive layer applies to the streaming threshold join only", ErrUnsupported)
		}
		if o.Framework != Streaming {
			return fmt.Errorf("%w: the adaptive layer requires the Streaming framework", ErrUnsupported)
		}
		if o.Window.Kind != WindowDecay {
			return fmt.Errorf("%w: the adaptive layer runs under the decay window only", ErrUnsupported)
		}
		if o.Kernel != nil {
			return fmt.Errorf("%w: the adaptive layer requires the default exponential kernel (engine promotion to L2AP depends on it)", ErrUnsupported)
		}
		if o.DimOrder.Strategy != OrderNone {
			return fmt.Errorf("%w: Adaptive replaces the DimOrder warmup; configure one or the other", ErrUnsupported)
		}
	}
	switch mode {
	case opBatch:
		switch o.Index {
		case IndexINV, IndexAP, IndexL2AP, IndexL2:
		default:
			return fmt.Errorf("%w: unknown index %v", ErrUnsupported, o.Index)
		}
		if o.Kernel != nil {
			return fmt.Errorf("%w: the batch join has no time axis, so no decay kernel", ErrUnsupported)
		}
		return nil
	case opResume:
		if o.Framework != Streaming {
			return fmt.Errorf("%w: checkpoints exist only for the Streaming framework", ErrUnsupported)
		}
		if o.DimOrder.Strategy != OrderNone {
			return fmt.Errorf("%w: cannot resume into a dimension-ordered index (the checkpoint's residual splits are tied to natural order)", ErrUnsupported)
		}
		return nil
	}
	// opStream and opTopK share the streaming rules.
	switch o.Framework {
	case Streaming:
		switch o.Index {
		case IndexINV, IndexL2AP, IndexL2:
		case IndexAuto: // vetted by the adaptive block above
		case IndexAP:
			// The tumbling window is a per-window batch join, where AP is
			// fine (as under MiniBatch); only the true streaming index
			// lacks it.
			if o.Window.Kind != WindowTumbling {
				return fmt.Errorf("%w: STR-AP (paper §5.2 omits it as impractical)", ErrUnsupported)
			}
		default:
			return fmt.Errorf("%w: unknown index %v", ErrUnsupported, o.Index)
		}
		if o.Kernel != nil && o.Index == IndexL2AP {
			if _, ok := o.Kernel.(Exponential); !ok {
				return fmt.Errorf("%w: STR-L2AP needs exponential decay (the m̂λ bound exploits it), got %T", ErrUnsupported, o.Kernel)
			}
		}
		if o.DimOrder.Strategy != OrderNone {
			if o.DimOrder.WarmupItems < 1 {
				return fmt.Errorf("%w: Streaming DimOrder needs WarmupItems > 0", ErrUnsupported)
			}
			if mode == opTopK {
				return fmt.Errorf("%w: top-k cannot run under a DimOrder warmup (delayed matches would corrupt neighborhood finalization)", ErrUnsupported)
			}
		}
	case MiniBatch:
		if mode == opTopK {
			return fmt.Errorf("%w: top-k requires the Streaming framework", ErrUnsupported)
		}
		switch o.Index {
		case IndexINV, IndexAP, IndexL2AP, IndexL2:
		default:
			return fmt.Errorf("%w: unknown index %v", ErrUnsupported, o.Index)
		}
		if o.Kernel != nil {
			return fmt.Errorf("%w: MB supports only exponential decay", ErrUnsupported)
		}
	default:
		return fmt.Errorf("%w: unknown framework %v", ErrUnsupported, o.Framework)
	}
	return nil
}

// Joiner is a streaming similarity self-join operator. Process and Flush
// must not be called concurrently from multiple goroutines: a stream has
// one arrival order, and the operator advances its clock with each item.
//
// Timestamps must be non-decreasing across Process calls (equal stamps
// are fine). An item that regresses is rejected with ErrTimeRegression
// before it reaches the index — the time-filtering bounds all assume a
// monotone clock — and the joiner remains usable: the offending item is
// simply not part of the stream.
//
// A Joiner drives the paper's sequential engine on the calling
// goroutine. To scale out, run the cluster tier (cmd/sssjc).
type Joiner struct {
	inner  core.SinkJoiner
	params Params
	opts   Options
	// reo is the event-time admission stage: with Options.Lateness 0 it
	// is a zero-buffer strict-order check, with δ > 0 a bounded reorder
	// buffer releasing items behind the watermark (see Options.Lateness).
	reo *stream.Reorder
	// gate latches the sink errors of the current ProcessTo, FlushTo or
	// AdvanceTo call, so a consumer stop never aborts a release batch
	// mid-way and AddTo's return carries only engine errors; endCall
	// resets it, dropping the caller's sink, as the call returns. emit (the
	// gate's bound Emit) and release (the reorder stage's callback into
	// inner) are built once by newJoiner, so a call allocates no closure.
	gate    apss.Gate
	emit    apss.Sink
	release func(stream.Item) error
}

// newJoiner assembles a Joiner around its framework and reorder stage.
func newJoiner(inner core.SinkJoiner, params Params, opts Options, reo *stream.Reorder) *Joiner {
	j := &Joiner{inner: inner, params: params, opts: opts, reo: reo}
	j.emit = j.gate.Emit
	j.release = func(it stream.Item) error { return j.inner.AddTo(it, j.emit) }
	return j
}

// New builds a Joiner.
func New(opts Options) (*Joiner, error) {
	if err := opts.validate(opStream); err != nil {
		return nil, err
	}
	params, err := paramsFor(opts)
	if err != nil {
		return nil, err
	}
	inner, err := buildJoiner(opts, params)
	if err != nil {
		return nil, err
	}
	return newJoiner(inner, params, opts, newReorderFor(opts)), nil
}

// paramsFor derives the effective (θ, λ) of an already-validated
// Options value. Window modes have no decay, so λ may be left zero;
// it is synthesized so the shared Params invariants hold and
// Params.Horizon() equals the window size.
func paramsFor(opts Options) (Params, error) {
	params := Params{Theta: opts.Theta, Lambda: opts.Lambda}
	if opts.Window.Kind != WindowDecay && params.Lambda == 0 {
		if params.Theta == 1 {
			params.Lambda = 1 / opts.Window.Size
		} else {
			params.Lambda = math.Log(1/params.Theta) / opts.Window.Size
		}
	}
	if err := params.Validate(); err != nil {
		return Params{}, err
	}
	return params, nil
}

// newReorderFor builds the joiner's event-time admission stage. The
// foreign join gets per-side clocks only when a reorder window is
// actually open (δ > 0): at δ = 0 the sided watermark would stall on
// the unseen side, while the strict single-clock check is exactly the
// interleaved-stream contract the foreign join documents.
func newReorderFor(opts Options) *stream.Reorder {
	if opts.Join == JoinForeign && opts.Lateness > 0 {
		return stream.NewSidedReorder(opts.Lateness)
	}
	return stream.NewReorder(opts.Lateness)
}

// buildJoiner constructs the framework × index combination of an
// already-validated Options value.
func buildJoiner(opts Options, params Params) (core.SinkJoiner, error) {
	switch opts.Window.Kind {
	case WindowTumbling:
		var kind static.Kind
		switch opts.Index {
		case IndexINV:
			kind = static.INV
		case IndexAP:
			kind = static.AP
		case IndexL2AP:
			kind = static.L2AP
		default:
			kind = static.L2
		}
		return core.NewTumbling(kind, params.Theta, opts.Window.Size, opts.Stats, opts.Join == JoinForeign)
	case WindowSliding:
		// The sliding window is STR over the hard-window kernel: same
		// engine, same bounds, factor 1 inside the window and 0 outside.
		opts.Kernel = SlidingWindow{Tau: opts.Window.Size}
	}
	switch opts.Framework {
	case Streaming:
		var kind streaming.Kind
		switch opts.Index {
		case IndexINV, IndexAuto: // IndexAuto starts at the INV floor
			kind = streaming.INV
		case IndexL2AP:
			kind = streaming.L2AP
		default:
			kind = streaming.L2
		}
		sopts := streaming.Options{
			Counters: opts.Stats,
			Kernel:   opts.Kernel,
			Foreign:  opts.Join == JoinForeign,
		}
		if opts.DimOrder.Strategy != OrderNone {
			sopts.Order = streaming.WarmupOrder{
				Strategy: opts.DimOrder.Strategy,
				Items:    opts.DimOrder.WarmupItems,
			}
		}
		if opts.Adaptive.enabled() || opts.Index == IndexAuto {
			sopts.Adapt = streaming.Adapt{
				Rerank:  opts.Adaptive.Rerank,
				Cadence: opts.Adaptive.Cadence,
				Auto:    opts.Adaptive.Auto || opts.Index == IndexAuto,
			}
		}
		return core.NewSTRFull(kind, params, sopts)
	default: // MiniBatch; validate rejected everything else
		var kind static.Kind
		switch opts.Index {
		case IndexINV:
			kind = static.INV
		case IndexAP:
			kind = static.AP
		case IndexL2AP:
			kind = static.L2AP
		default:
			kind = static.L2
		}
		var mbOpts []core.MBOption
		if opts.DimOrder.Strategy != OrderNone {
			mbOpts = append(mbOpts, core.WithOrder(opts.DimOrder.Strategy))
		}
		if opts.Join == JoinForeign {
			mbOpts = append(mbOpts, core.WithForeign())
		}
		return core.NewMiniBatch(kind, params, opts.Stats, mbOpts...)
	}
}

// Process feeds the next stream item (timestamps must be non-decreasing;
// see the Joiner contract) and returns the matches reportable so far.
// Under STR all matches involving the new item are returned immediately;
// under MB matches are released at window boundaries.
//
// Process is the collect adapter over ProcessTo: it buffers the matches
// into a fresh slice. Hot paths should prefer ProcessTo, which delivers
// each match as it is verified with no intermediate allocation.
func (j *Joiner) Process(it Item) ([]Match, error) {
	var out []Match
	err := j.ProcessTo(it, apss.Collector(&out))
	return out, err
}

// Flush releases matches still buffered at end of stream (MB windows,
// STR dimension-ordering warmups; a no-op otherwise). It is the collect
// adapter over FlushTo.
func (j *Joiner) Flush() ([]Match, error) {
	var out []Match
	err := j.FlushTo(apss.Collector(&out))
	return out, err
}

// Params returns the join parameters.
func (j *Joiner) Params() Params { return j.params }

// Options returns the effective configuration the joiner runs with.
func (j *Joiner) Options() Options { return j.opts }

// IndexSize reports current index occupancy: live posting entries,
// residual vectors, and non-empty posting lists. It is the quantity the
// time-filtering property keeps bounded (§3). ok is false under the
// MiniBatch framework, which buffers windows instead of maintaining one
// index.
type IndexSize = streaming.SizeInfo

// IndexSize implements the accessor described on the IndexSize type.
func (j *Joiner) IndexSize() (IndexSize, bool) {
	s, ok := j.inner.(*core.STR)
	if !ok {
		return IndexSize{}, false
	}
	return s.IndexSize(), true
}

// AdaptState is the self-tuner's introspection surface: the engine kind
// currently in force and the adaptation counts. See Joiner.AdaptState.
type AdaptState = streaming.AdaptState

// AdaptState reports the self-tuning layer's current state — which
// engine is running, how many dimension re-ranks and engine promotions
// have happened. ok is false when the joiner is not adaptive (no
// Options.Adaptive features and not IndexAuto).
func (j *Joiner) AdaptState() (AdaptState, bool) {
	s, ok := j.inner.(*core.STR)
	if !ok {
		return AdaptState{}, false
	}
	return s.AdaptInfo()
}

// Horizon returns the time horizon τ = ln(1/θ)/λ.
func (j *Joiner) Horizon() float64 { return horizonFor(j.opts, j.params) }

// horizonFor is the one place the kernel-vs-params horizon rule lives:
// a window mode's horizon is the window size, a custom kernel defines
// its own horizon, otherwise τ = ln(1/θ)/λ. Both the threshold join and
// top-k finalization derive from it.
func horizonFor(opts Options, params Params) float64 {
	if opts.Window.Kind != WindowDecay {
		return opts.Window.Size
	}
	if opts.Kernel != nil {
		return opts.Kernel.Horizon(params.Theta)
	}
	return params.Horizon()
}

// Join drains a source through a fresh Joiner and returns all matches.
// It is the collect adapter over JoinCtx; prefer JoinCtx (or Matches)
// when the result set is large or the consumer is incremental.
func Join(opts Options, src Source) ([]Match, error) {
	var out []Match
	err := JoinCtx(context.Background(), opts, src, apss.Collector(&out))
	return out, err
}

// SelfJoin runs the join over an in-memory stream.
func SelfJoin(opts Options, items []Item) ([]Match, error) {
	return Join(opts, stream.NewSliceSource(items))
}

// NewVector builds a sparse vector from parallel dimension/value slices
// (sorted and deduplicated for you) and normalizes it to unit length, the
// representation the join expects.
func NewVector(dims []uint32, vals []float64) (Vector, error) {
	v, err := vec.New(dims, vals)
	if err != nil {
		return Vector{}, err
	}
	return v.Normalize(), nil
}

// SliceSource returns a Source over an in-memory item slice (the slice
// is not copied), for feeding Join, JoinCtx, or Matches.
func SliceSource(items []Item) Source { return stream.NewSliceSource(items) }

// ReadText returns a Source over the text dataset format:
// "<timestamp> <dim>:<val> ..." per line. Vectors are normalized on read.
func ReadText(r io.Reader) Source { return stream.NewTextReader(r) }

// ReadBinary returns a Source over the binary dataset format produced by
// WriteBinary (see cmd/sssjconvert).
func ReadBinary(r io.Reader) Source { return stream.NewBinaryReader(r) }

// WriteBinary writes items in the binary dataset format.
func WriteBinary(w io.Writer, items []Item) error { return stream.WriteBinary(w, items) }

// WriteText writes items in the text dataset format.
func WriteText(w io.Writer, items []Item) error { return stream.WriteText(w, items) }

// ParamsFromHorizon derives λ from a desired horizon τ per the §3
// methodology: pick θ, pick the gap τ at which identical items stop being
// similar, and set λ = ln(1/θ)/τ.
func ParamsFromHorizon(theta, tau float64) (Params, error) {
	return apss.FromHorizon(theta, tau)
}
