// Package variation models process variability, timing sensors and the
// post-silicon tuning loop of the paper's section 3.1.
//
// Threshold-voltage variation is decomposed the standard way: a die-to-die
// offset, a spatially correlated within-die (systematic) surface, and
// per-gate random mismatch. Dies sampled from the model are re-timed with
// the STA engine, sensed by replica or in-situ monitors, and compensated by
// the core allocator under a sensed slowdown — the full loop the paper
// assumes around its clustering method. Temperature and NBTI aging provide
// the dynamic-variation axis ([4], [5]).
package variation

import (
	"math"

	"repro/internal/place"
	"repro/internal/tech"
)

// Model describes threshold-voltage variability (all sigmas in millivolts).
type Model struct {
	// SigmaD2DmV is the die-to-die Vth sigma.
	SigmaD2DmV float64
	// SigmaSysmV is the spatially correlated within-die sigma.
	SigmaSysmV float64
	// SigmaRndmV is the per-gate random mismatch sigma.
	SigmaRndmV float64
	// CorrLenUM is the correlation length of the systematic surface.
	CorrLenUM float64
}

// Default returns a 45nm-class variability model.
func Default() Model {
	return Model{SigmaD2DmV: 20, SigmaSysmV: 12, SigmaRndmV: 8, CorrLenUM: 150}
}

// Die is one sampled die: a per-gate threshold shift and the derived delay
// multipliers.
type Die struct {
	Seed int64
	// DVthV is the per-gate threshold shift in volts (positive = slower).
	DVthV []float64
	// DelayScale multiplies each gate's nominal delay.
	DelayScale []float64
}

// Sample draws a die. The systematic surface is a sum of random-direction
// cosine waves with wavelengths near the correlation length, the standard
// cheap construction for spatially correlated variation. It is the one-shot
// form of Sampler.SampleInto (and produces bit-identical dies); loops
// sampling many dies of one placement should build a Sampler and reuse a
// Die buffer.
func (m Model) Sample(pl *place.Placement, proc *tech.Process, seed int64) *Die {
	return NewSampler(pl, proc, m).SampleInto(nil, seed)
}

// AgingDVthV is the NBTI threshold drift in volts after the given years at
// the given activity factor (0..1): roughly 30 mV at ten years of full
// activity, following the usual t^0.16 power law.
func AgingDVthV(years, activity float64) float64 {
	if years <= 0 {
		return 0
	}
	const atTenYears = 0.030
	a := atTenYears / math.Pow(10, 0.16)
	return a * math.Pow(years, 0.16) * math.Max(0, math.Min(1, activity))
}
