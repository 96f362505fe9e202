package apss

import "math"

// This file provides the primitives of the block scan kernels (see
// internal/index/streaming/kernelv.go) that belong to the join model
// rather than to the index layout: the time-threshold form of a decayed
// admission bound, and the batched coordinate products of the STR-INV
// scatter. Both reproduce the scalar kernels' floats exactly.

// Window is the time-threshold form of the decayed admission test
// scale·Factor(dt) ≥ θ for dt ≥ 0. Factor is non-increasing, so the test
// passes up to some time gap and fails beyond it; a Window brackets that
// gap so a scan decides almost every posting entry by comparing times:
//
//	dt ≤ Lo       the test passes (admit)
//	dt ≥ Hi       the test fails (reject)
//	Lo < dt < Hi  undecided: evaluate scale·Factor(dt) < θ itself
//
// Lo and Hi are never NaN.
type Window struct{ Lo, Hi float64 }

var (
	// AdmitAll is the Window of a test that passes at every time gap.
	AdmitAll = Window{Lo: math.Inf(1), Hi: math.Inf(1)}
	// RejectAll is the Window of a test that fails at every time gap.
	RejectAll = Window{Lo: math.Inf(-1), Hi: math.Inf(-1)}
)

// AdmitWindow returns the Window of scale·k.Factor(dt) ≥ theta. The
// analytic threshold is k.Horizon(theta/scale); guard is the half-width
// of the band around it that is left undecided, which absorbs the
// rounding of Horizon, Factor and the product (any guard ≥ 0 is sound,
// a wider one only sends more entries to the exact test).
//
// The result is exact, not approximate: each end of the band is kept only
// if the scalar predicate itself, evaluated there, confirms it, and
// Factor's monotonicity extends that one evaluation to every time gap
// beyond it. An end that fails its probe — a Horizon that is off by more
// than guard — is dropped (Lo = −Inf or Hi = +Inf), which costs speed,
// never correctness. At most two Factor calls.
func AdmitWindow(k Kernel, scale, theta, guard float64) Window {
	if scale < theta {
		return RejectAll // Factor ≤ 1: the product cannot reach theta
	}
	if math.IsInf(scale, 1) {
		return AdmitAll // +Inf·Factor is +Inf or NaN, neither below theta
	}
	h := k.Horizon(theta / scale)
	w := Window{Lo: h - guard, Hi: h + guard}
	if !(w.Lo >= 0 && scale*k.Factor(w.Lo) >= theta) {
		w.Lo = math.Inf(-1)
	}
	if !(scale*k.Factor(w.Hi) < theta) {
		w.Hi = math.Inf(1)
	}
	return w
}

// ScaleLanes fills out[j] = x * vals[j], hand-unrolled 4-wide over the
// contiguous block slice. Each product is the same single float64
// multiply the scalar kernel performs before accumulating, so scattering
// out[j] into the accumulator afterwards is bitwise `dot += x*val`.
func ScaleLanes(x float64, vals, out []float64) {
	out = out[:len(vals)]
	j := 0
	for ; j+4 <= len(vals); j += 4 {
		out[j] = x * vals[j]
		out[j+1] = x * vals[j+1]
		out[j+2] = x * vals[j+2]
		out[j+3] = x * vals[j+3]
	}
	for ; j < len(vals); j++ {
		out[j] = x * vals[j]
	}
}
