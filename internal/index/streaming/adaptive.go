package streaming

import (
	"errors"
	"fmt"

	"sssj/internal/adapt"
	"sssj/internal/apss"
	"sssj/internal/dimorder"
	"sssj/internal/metrics"
	"sssj/internal/stream"
)

// Adapt configures the statistics-free self-tuning layer (Options.Adapt):
// an incremental dimension re-ranker that keeps the DocFreqAsc /
// MaxValueDesc orderings near-optimal under vocabulary drift, and an
// online engine selector that promotes the index from INV through L2 to
// L2AP from cheap windowed counters. The zero value disables the layer.
//
// Self-tuning never changes the join's output: a consistent permutation
// is invisible to dot products, and every engine of the ladder is exact,
// so the adaptive index reports exactly the pair set the static
// configuration would (the oracle the adapt parity battery pins).
type Adapt struct {
	// Rerank selects the ordering strategy the re-ranker maintains
	// online; dimorder.None disables re-ranking. Unlike the warmup
	// wrapper (Options.Order), no items are buffered and no matches are
	// delayed: the order is revised every Cadence items from counters
	// observed so far, and the live window is rebuilt under the new
	// permutation.
	Rerank dimorder.Strategy
	// Cadence is how many admitted items pass between adaptation
	// reviews (re-rank checks and selector decisions). Values < 1
	// select DefaultAdaptCadence.
	Cadence int
	// Auto enables the engine selector: the index starts on the kind it
	// was constructed with (INV for the auto ladder) and promotes
	// toward L2AP when the windowed counters say filtering would pay.
	// The ladder is monotone — it never demotes — so the choice cannot
	// thrash; promotion to L2AP additionally requires the exponential
	// kernel (the m̂λ bound exploits it).
	Auto bool
}

// enabled reports whether any self-tuning feature is on.
func (a Adapt) enabled() bool { return a.Auto || a.Rerank != dimorder.None }

// DefaultAdaptCadence is the default review cadence (items between
// adaptation decisions). Reviews are cheap — a ranking recompute over
// the observed dimensions and a few counter reads — but a rebuild
// re-indexes the live window, so the default keeps rebuilds rare
// relative to the horizon on the paper's workloads.
const DefaultAdaptCadence = 2048

// ErrAdapt reports an invalid Adapt configuration.
var ErrAdapt = errors.New("streaming: invalid Adapt configuration")

// adaptiveIndex is the self-tuning wrapper: it owns the current engine
// (inner), the current dimension permutation (dm, applied to every item
// before it reaches the engine), and a natural-space copy of the live
// window (live) from which it rebuilds the engine when the permutation
// or the engine kind changes.
//
// Rebuilds re-index, they never re-report: the live window's pairs are
// already out the door, so replay uses the insert path (index
// construction without candidate generation). Counter deltas are
// forwarded from a private scratch to the caller's Counters after every
// operation, withholding replay work — the counters describe the
// logical stream, and the adaptive ≤ static counter bounds hold.
type adaptiveIndex struct {
	p       apss.Params
	kernel  apss.Kernel
	tau     float64
	foreign bool
	abl     Ablations
	cfg     Adapt
	cadence int

	inner SinkIndex
	kind  Kind

	real    *metrics.Counters // caller's counters (logical-stream view)
	scratch *metrics.Counters // what inner writes into
	fwd     metrics.Counters  // scratch prefix already forwarded to real
	win     metrics.Counters  // scratch snapshot at the last review

	dm  *dimorder.Map // current permutation; nil = natural order
	obs *adapt.Stats
	sel *adapt.Selector // nil unless cfg.Auto

	// live is the in-horizon window in natural dimension space and
	// arrival order — the rebuild source of truth.
	live  []stream.Item
	now   float64
	begun bool

	sinceReview int
	reranks     int64
	switches    int64
}

// tierForKind maps an engine kind onto the selector ladder. AP maps to
// the top rung: it is never auto-selected, but a resumed or explicitly
// constructed AP index must not be "promoted" away from under the user.
func tierForKind(k Kind) adapt.Tier {
	switch k {
	case INV:
		return adapt.TierINV
	case L2:
		return adapt.TierL2
	default:
		return adapt.TierL2AP
	}
}

// kindFor maps a ladder rung back to an engine kind, degrading the top
// rung to L2 when the kernel cannot support the m̂λ bound.
func (a *adaptiveIndex) kindFor(t adapt.Tier) Kind {
	switch t {
	case adapt.TierINV:
		return INV
	case adapt.TierL2:
		return L2
	default:
		if _, exp := a.kernel.(apss.Exponential); exp {
			return L2AP
		}
		return L2
	}
}

// newAdaptiveIndex builds the wrapper around a fresh engine of the given
// starting kind. Option combinations were vetted by New.
func newAdaptiveIndex(kind Kind, params apss.Params, kernel apss.Kernel, opts Options, real *metrics.Counters) (*adaptiveIndex, error) {
	if opts.Adapt.Cadence < 0 {
		return nil, fmt.Errorf("%w: Cadence must be >= 0, got %d", ErrAdapt, opts.Adapt.Cadence)
	}
	a := &adaptiveIndex{
		p:       params,
		kernel:  kernel,
		tau:     kernel.Horizon(params.Theta),
		foreign: opts.Foreign,
		abl:     opts.Ablations,
		cfg:     opts.Adapt,
		cadence: opts.Adapt.Cadence,
		real:    real,
		obs:     adapt.NewStats(),
	}
	if a.cadence < 1 {
		a.cadence = DefaultAdaptCadence
	}
	start := kind
	if opts.Adapt.Auto {
		maxTier := adapt.TierL2AP
		if _, exp := kernel.(apss.Exponential); !exp {
			maxTier = adapt.TierL2
		}
		a.sel = adapt.NewSelector(tierForKind(kind), adapt.SelectorConfig{MaxTier: maxTier})
		start = a.kindFor(a.sel.Tier())
	}
	scratch := &metrics.Counters{}
	inner, err := newCoreIndex(start, params, kernel, Shard{}, a.foreign, a.abl, scratch)
	if err != nil {
		return nil, err
	}
	a.inner, a.kind, a.scratch = inner, start, scratch
	return a, nil
}

// Add implements Index (the collect adapter over AddTo).
func (a *adaptiveIndex) Add(x stream.Item) ([]apss.Match, error) { return collectAdd(a, x) }

// AddTo implements SinkIndex: the item is remapped into the current
// order, joined and indexed by the engine, recorded in the natural-space
// live window, and — every cadence items — the adaptation review runs.
func (a *adaptiveIndex) AddTo(x stream.Item, emit apss.Sink) error {
	rm := x
	if a.dm != nil {
		rm.Vec = a.dm.Remap(x.Vec)
	}
	err := a.inner.AddTo(rm, emit)
	if errors.Is(err, ErrTimeOrder) {
		// The item never touched the engine; nothing to track.
		return err
	}
	// Any other error is a latched sink error: the item was fully
	// indexed, so the wrapper must track it regardless.
	a.begun, a.now = true, x.Time
	if x.Vec.NNZ() > 0 {
		a.live = append(a.live, x)
		a.obs.Observe(x.Vec)
	}
	a.pruneLive()
	a.sinceReview++
	a.forward()
	if a.sinceReview >= a.cadence {
		if aerr := a.review(); aerr != nil && err == nil {
			err = aerr
		}
	}
	return err
}

// Advance implements Advancer, forwarding the barrier and expiring the
// wrapper's live window alongside the engine's state.
func (a *adaptiveIndex) Advance(t float64) error {
	if a.begun && t <= a.now {
		return nil
	}
	if adv, ok := a.inner.(Advancer); ok {
		if err := adv.Advance(t); err != nil {
			return err
		}
	}
	a.begun, a.now = true, t
	a.pruneLive()
	a.forward()
	return nil
}

// pruneLive drops items past the horizon from the natural-space window,
// mirroring the engines' expiry cutoff (an item at exactly now − τ is
// still live).
func (a *adaptiveIndex) pruneLive() {
	horizonStart := a.now - a.tau
	k := 0
	for k < len(a.live) && a.live[k].Time < horizonStart {
		k++
	}
	switch {
	case k == 0:
	case 2*k >= len(a.live):
		a.live = append(a.live[:0], a.live[k:]...)
	default:
		a.live = a.live[k:]
	}
}

// forward pushes the scratch counters' unforwarded delta into the
// caller's Counters.
func (a *adaptiveIndex) forward() {
	delta := *a.scratch
	delta.Sub(a.fwd)
	a.fwd = *a.scratch
	a.real.Add(delta)
}

// review is the adaptation decision point: feed the selector one counter
// window, recompute the ranking, and rebuild the engine when either says
// the configuration moved.
func (a *adaptiveIndex) review() error {
	a.sinceReview = 0
	newKind := a.kind
	if a.sel != nil {
		cur := *a.scratch
		cur.Sub(a.win)
		newKind = a.kindFor(a.sel.Observe(adapt.Window{
			Items:            cur.Items,
			Candidates:       cur.Candidates,
			EntriesTraversed: cur.EntriesTraversed,
			PostingEntries:   int64(a.inner.Size().PostingEntries),
		}))
	}
	a.win = *a.scratch
	newMap := a.dm
	rerank := false
	if a.cfg.Rerank != dimorder.None {
		ranks := a.obs.Ranking(a.cfg.Rerank)
		if !a.dm.Same(ranks) {
			newMap = dimorder.FromRanks(ranks)
			rerank = true
		}
	}
	if newKind == a.kind && !rerank {
		return nil
	}
	switched := newKind != a.kind
	if err := a.rebuild(newKind, newMap); err != nil {
		return err
	}
	if switched {
		a.switches++
	}
	if rerank {
		a.reranks++
	}
	return nil
}

// rebuild replaces the engine: a fresh index of the target kind is
// seeded with the live window under the target permutation via the
// insert path (no candidate generation, no re-emission), then takes
// over. Replay counter deltas are withheld from the caller's Counters.
func (a *adaptiveIndex) rebuild(kind Kind, dm *dimorder.Map) error {
	scratch := &metrics.Counters{}
	inner, err := newCoreIndex(kind, a.p, a.kernel, Shard{}, a.foreign, a.abl, scratch)
	if err != nil {
		return err
	}
	ins, ok := inner.(inserter)
	if !ok {
		return fmt.Errorf("streaming: %T cannot be rebuilt into", inner)
	}
	for _, it := range a.live {
		rm := it
		if dm != nil {
			rm.Vec = dm.Remap(it.Vec)
		}
		if err := ins.insert(rm); err != nil {
			return err
		}
	}
	if a.begun {
		if adv, ok := inner.(Advancer); ok {
			if err := adv.Advance(a.now); err != nil {
				return err
			}
		}
	}
	a.inner, a.kind, a.dm = inner, kind, dm
	a.scratch = scratch
	a.fwd = *scratch
	a.win = *scratch
	return nil
}

// seed replays a restored live window (natural space, time order) into
// the fresh wrapper: the engine is seeded via the insert path and the
// wrapper's window, observation counters, and clock are rebuilt — the
// "adaptive state is derived" checkpoint contract.
func (a *adaptiveIndex) seed(st liveState) error {
	if err := st.seedInto(a.inner); err != nil {
		return err
	}
	for _, it := range st.items {
		if it.Vec.NNZ() > 0 {
			a.live = append(a.live, it)
			a.obs.Observe(it.Vec)
		}
	}
	a.now, a.begun = st.now, st.begun
	a.fwd = *a.scratch
	a.win = *a.scratch
	return nil
}

// naturalClone builds a plain INV index holding the wrapper's live
// window in natural dimension space — the checkpointable stand-in for
// the adaptive index (INV indexes every coordinate, so a load can
// reconstruct the full window from the chains alone).
func (a *adaptiveIndex) naturalClone() (SinkIndex, error) {
	st := liveState{items: a.live, p: a.p, kernel: a.kernel, now: a.now, begun: a.begun}
	if now, begun, clock, ok := clockOf(a.inner); ok {
		st.now, st.begun, st.clock = now, begun, clock
	}
	clone := newInvIndex(a.p, a.kernel, a.foreign, false, Shard{}, &metrics.Counters{})
	if err := st.seedInto(clone); err != nil {
		return nil, err
	}
	return clone, nil
}

// Size implements Index, reporting the engine's occupancy. (The
// natural-space window the wrapper keeps for rebuilds is bookkeeping,
// not index state; it holds at most the engine's residual set.)
func (a *adaptiveIndex) Size() SizeInfo { return a.inner.Size() }

// Params implements Index.
func (a *adaptiveIndex) Params() apss.Params { return a.p }

// AdaptState is the self-tuner's introspection surface: the engine kind
// currently in force, how many re-ranks and engine switches have
// happened, and how many dimensions the current permutation covers.
type AdaptState struct {
	// Kind is the engine currently running.
	Kind Kind
	// Reranks counts dimension-order rebuilds.
	Reranks int64
	// Switches counts engine promotions.
	Switches int64
	// OrderedDims is the current permutation's size (0 under natural
	// order).
	OrderedDims int
}

// AdaptInfo reports the self-tuning state of an adaptive index, with
// ok = false for every other index type.
func AdaptInfo(ix Index) (AdaptState, bool) {
	a, ok := ix.(*adaptiveIndex)
	if !ok {
		return AdaptState{}, false
	}
	return AdaptState{Kind: a.kind, Reranks: a.reranks, Switches: a.switches, OrderedDims: a.dm.Len()}, true
}
