// Package apss holds the problem-level definitions shared by every index
// and framework: the SSSJ parameters (similarity threshold θ and time-decay
// factor λ), the time-dependent similarity function, the time horizon, the
// result types, and the match-delivery layer (Sink, Gate) every engine
// emits through.
//
// Problem 1 of the paper: given a stream of timestamped unit vectors,
// report all pairs (x, y) with
//
//	sim_Δt(x, y) = dot(x, y) · exp(-λ·|t(x)-t(y)|) ≥ θ.
//
// Because dot(x, y) ≤ 1 for unit vectors, a pair further apart in time than
// the horizon τ = ln(1/θ)/λ can never be similar, which is the time
// filtering property every algorithm builds on.
//
// Delivery is push-based: a producer hands each verified Match to a Sink
// the moment it is found, wrapped in a Gate so that a consumer error
// stops emission without ever interrupting the producer's state updates
// (see Gate for the exact contract). Collector adapts the sink world
// back to slices for callers that want them. Kernel generalizes the
// exponential decay above to other time-decay functions (an extension;
// kernel.go).
package apss

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Params are the two SSSJ parameters.
type Params struct {
	Theta  float64 // similarity threshold θ in (0, 1]
	Lambda float64 // time-decay factor λ > 0
}

// ErrBadParams reports invalid θ or λ.
var ErrBadParams = errors.New("apss: invalid parameters")

// Validate checks θ ∈ (0, 1] and λ > 0.
func (p Params) Validate() error {
	if !(p.Theta > 0 && p.Theta <= 1) || math.IsNaN(p.Theta) {
		return fmt.Errorf("%w: theta=%v, want 0 < theta <= 1", ErrBadParams, p.Theta)
	}
	if !(p.Lambda > 0) || math.IsInf(p.Lambda, 0) || math.IsNaN(p.Lambda) {
		return fmt.Errorf("%w: lambda=%v, want lambda > 0", ErrBadParams, p.Lambda)
	}
	return nil
}

// Horizon returns τ = ln(1/θ)/λ, the maximum arrival-time difference of a
// similar pair.
func (p Params) Horizon() float64 {
	return math.Log(1/p.Theta) / p.Lambda
}

// Decay returns the time-decay factor exp(-λ·dt) for a non-negative time
// difference dt.
func (p Params) Decay(dt float64) float64 {
	return math.Exp(-p.Lambda * dt)
}

// Sim returns the time-dependent similarity given a raw dot product and a
// time difference.
func (p Params) Sim(dot, dt float64) float64 {
	return dot * p.Decay(dt)
}

// FromHorizon implements the parameter-setting methodology of §3: choose θ
// as the lowest co-arrival similarity deemed similar and τ as the smallest
// time gap at which identical vectors are deemed dissimilar, then derive
// λ = ln(1/θ)/τ.
func FromHorizon(theta, tau float64) (Params, error) {
	if !(tau > 0) {
		return Params{}, fmt.Errorf("%w: tau=%v, want tau > 0", ErrBadParams, tau)
	}
	p := Params{Theta: theta, Lambda: math.Log(1/theta) / tau}
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}

// Pair is a similar pair from a *static* (non-decayed) join: X arrived
// after Y, and Dot is their raw dot product (≥ θ before decay is applied).
type Pair struct {
	X, Y uint64
	Dot  float64
}

// Match is a reported SSSJ result pair: the time-dependent similarity Sim
// is at least θ. X is always the more recent item.
type Match struct {
	X, Y uint64  // item IDs; X arrived at or after Y
	Sim  float64 // time-dependent similarity dot·exp(-λ·Δt)
	Dot  float64 // raw dot product
	DT   float64 // |t(x) - t(y)|
}

// Flipped returns the match with the roles of X and Y exchanged — the
// same pair seen from the older item's perspective.
func (m Match) Flipped() Match {
	m.X, m.Y = m.Y, m.X
	return m
}

// Canon returns a copy with (X, Y) ordered so X >= Y, the canonical form
// used when comparing result sets.
func (m Match) Canon() Match {
	if m.X < m.Y {
		m.X, m.Y = m.Y, m.X
	}
	return m
}

// SortMatches orders matches by (X, Y), the canonical order used by tests.
func SortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].X != ms[j].X {
			return ms[i].X < ms[j].X
		}
		return ms[i].Y < ms[j].Y
	})
}

// DedupPartners merges the matches several shards reported for one query
// item: it sorts ms in place by partner Y and drops repeated partners,
// returning the deduplicated prefix of ms. Shards that discover the same
// pair through different dimensions report exact copies — each verifies
// the full similarity in the sequential summation order — so which copy
// survives is immaterial, and the ascending partner order is a
// deterministic serialization of the one logical match set.
func DedupPartners(ms []Match) []Match {
	slices.SortFunc(ms, func(a, b Match) int { return cmp.Compare(a.Y, b.Y) })
	out := ms[:0]
	for i, m := range ms {
		if i > 0 && m.Y == ms[i-1].Y {
			continue
		}
		out = append(out, m)
	}
	return out
}

// EqualMatchSets reports whether two result sets contain the same pairs
// with similarities equal within eps. Inputs are not modified.
func EqualMatchSets(a, b []Match, eps float64) bool {
	if len(a) != len(b) {
		return false
	}
	ac := make([]Match, len(a))
	bc := make([]Match, len(b))
	for i := range a {
		ac[i] = a[i].Canon()
	}
	for i := range b {
		bc[i] = b[i].Canon()
	}
	SortMatches(ac)
	SortMatches(bc)
	for i := range ac {
		if ac[i].X != bc[i].X || ac[i].Y != bc[i].Y {
			return false
		}
		if math.Abs(ac[i].Sim-bc[i].Sim) > eps {
			return false
		}
	}
	return true
}

// DiffMatchSets returns pairs present in a but not b, and in b but not a,
// keyed by canonical (X, Y). Used for test diagnostics.
func DiffMatchSets(a, b []Match) (onlyA, onlyB []Match) {
	key := func(m Match) [2]uint64 {
		c := m.Canon()
		return [2]uint64{c.X, c.Y}
	}
	inB := make(map[[2]uint64]bool, len(b))
	for _, m := range b {
		inB[key(m)] = true
	}
	inA := make(map[[2]uint64]bool, len(a))
	for _, m := range a {
		inA[key(m)] = true
		if !inB[key(m)] {
			onlyA = append(onlyA, m)
		}
	}
	for _, m := range b {
		if !inA[key(m)] {
			onlyB = append(onlyB, m)
		}
	}
	return onlyA, onlyB
}
