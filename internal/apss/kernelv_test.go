package apss

import (
	"math"
	"math/rand"
	"testing"
)

// windowKernels are the kernel shapes the admission window is checked
// on: the paper's exponential, the heavy-tailed polynomial, and the hard
// window, whose Factor is a step and whose Horizon ignores θ.
func windowKernels(rate float64) []Kernel {
	return []Kernel{
		Exponential{Lambda: rate},
		Polynomial{Alpha: rate, P: 1.5},
		SlidingWindow{Tau: 1 / rate},
	}
}

// checkWindow asserts that the tier the window assigns to dt is the
// branch the scalar predicate scale·Factor(dt) < θ takes.
func checkWindow(t *testing.T, k Kernel, w Window, scale, theta, dt float64) {
	t.Helper()
	reject := scale*k.Factor(dt) < theta
	switch {
	case math.IsNaN(w.Lo) || math.IsNaN(w.Hi):
		t.Fatalf("%T scale=%v θ=%v: NaN window %+v", k, scale, theta, w)
	case dt <= w.Lo && reject:
		t.Fatalf("%T scale=%v θ=%v dt=%v: admit tier (Lo=%v) but the predicate rejects", k, scale, theta, dt, w.Lo)
	case dt >= w.Hi && !reject:
		t.Fatalf("%T scale=%v θ=%v dt=%v: reject tier (Hi=%v) but the predicate admits", k, scale, theta, dt, w.Hi)
	}
}

// probeWindow checks one (kernel, scale, θ) window at dt, at the analytic
// threshold, and at the ±4-ulp neighbours of both and of the window's
// own ends — where a tier that trusted Horizon's rounding would slip.
func probeWindow(t *testing.T, k Kernel, scale, theta, dt float64) {
	t.Helper()
	guard := k.Horizon(theta) / (1 << 30)
	w := AdmitWindow(k, scale, theta, guard)
	for _, c := range []float64{dt, k.Horizon(theta / scale), w.Lo, w.Hi} {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			continue
		}
		up, down := c, c
		for i := 0; i <= 4; i++ {
			for _, v := range []float64{up, down} {
				if v >= 0 {
					checkWindow(t, k, w, scale, theta, v)
				}
			}
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
		}
	}
}

// TestAdmitWindowExact is the property the time-threshold tiers rest
// on: for every kernel shape and random (scale, θ, rate, dt) — scale
// below θ, barely above it, and far above it — the window's tier
// decision equals the scalar predicate.
func TestAdmitWindowExact(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 4000; trial++ {
		theta := 0.05 + 0.94*rng.Float64()
		rate := math.Pow(10, -4+4*rng.Float64())
		var scale float64
		switch trial % 4 {
		case 0:
			scale = theta * rng.Float64() // never reaches θ
		case 1:
			scale = theta * (1 + 1e-12*rng.Float64()) // threshold at dt ≈ 0
		default:
			scale = theta + (1.5-theta)*rng.Float64()
		}
		for _, k := range windowKernels(rate) {
			dt := 2 * k.Horizon(theta) * rng.Float64()
			probeWindow(t, k, scale, theta, dt)
		}
	}
}

// TestAdmitWindowEdges pins the degenerate inputs: bounds that never or
// always pass, NaN, and a kernel whose Horizon lies — the window must
// stay sound (and NaN-free) by giving up a tier, never by guessing.
func TestAdmitWindowEdges(t *testing.T) {
	k := Exponential{Lambda: 0.1}
	if w := AdmitWindow(k, 0.3, 0.7, 1e-6); w != RejectAll {
		t.Fatalf("scale < θ: got %+v, want RejectAll", w)
	}
	if w := AdmitWindow(k, 0, 0.7, 1e-6); w != RejectAll {
		t.Fatalf("scale 0: got %+v, want RejectAll", w)
	}
	if w := AdmitWindow(k, math.Inf(1), 0.7, 1e-6); w != AdmitAll {
		t.Fatalf("scale +Inf: got %+v, want AdmitAll", w)
	}
	// NaN scale: the scalar predicate NaN < θ is false at every dt, so no
	// lane may land in the reject tier.
	if w := AdmitWindow(k, math.NaN(), 0.7, 1e-6); !math.IsInf(w.Hi, 1) || math.IsNaN(w.Lo) {
		t.Fatalf("scale NaN: got %+v, want Hi=+Inf and a non-NaN Lo", w)
	}
	for _, off := range []float64{0.5, 2} {
		liar := lyingKernel{Exponential{Lambda: 0.1}, off}
		for _, dt := range []float64{0, 1, 3, 3.5667, 5, 10, 40} {
			w := AdmitWindow(liar, 1, 0.7, 1e-6)
			checkWindow(t, liar, w, 1, 0.7, dt)
		}
	}
}

// lyingKernel reports a Horizon off by a constant factor.
type lyingKernel struct {
	Exponential
	off float64
}

func (l lyingKernel) Horizon(theta float64) float64 { return l.off * l.Exponential.Horizon(theta) }

// FuzzAdmitWindow explores the same property under fuzzed parameters;
// testdata/fuzz/FuzzAdmitWindow holds the boundary cases.
func FuzzAdmitWindow(f *testing.F) {
	f.Add(uint8(0), 1.0, 0.7, 1e-4, 3566.7)
	f.Add(uint8(1), 0.9, 0.5, 1e-2, 10.0)
	f.Fuzz(func(t *testing.T, sel uint8, scale, theta, rate, dt float64) {
		if !(theta > 0 && theta < 1) || !(rate > 1e-9 && rate < 1e9) || !(scale >= 0 && scale < 1e6) || !(dt >= 0 && dt < 1e12) {
			t.Skip()
		}
		probeWindow(t, windowKernels(rate)[int(sel)%3], scale, theta, dt)
	})
}

// TestScaleLanesBitwise: the 4-wide unrolled products must be bitwise
// x*vals[j] at every length 0..20 (covering all unroll remainders),
// including negative, denormal, and infinite operands.
func TestScaleLanesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	specials := []float64{0, -0.0, 1, -1, math.SmallestNonzeroFloat64, math.Inf(1)}
	for n := 0; n <= 20; n++ {
		vals := make([]float64, n)
		for j := range vals {
			if j < len(specials) {
				vals[j] = specials[j]
			} else {
				vals[j] = rng.NormFloat64()
			}
		}
		for _, x := range []float64{0.37, -2.25, 0, math.Inf(1)} {
			out := make([]float64, n)
			ScaleLanes(x, vals, out)
			for j := range vals {
				want := x * vals[j]
				if math.Float64bits(out[j]) != math.Float64bits(want) {
					t.Fatalf("n=%d x=%v lane %d: ScaleLanes=%v, want %v", n, x, j, out[j], want)
				}
			}
		}
	}
}
