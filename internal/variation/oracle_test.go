package variation

// Test-side oracles: one-shot, from-scratch forms of the die timing and
// leakage computations that the Retimer, the LeakModel and the batched
// yield kernels must reproduce bit for bit.

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/place"
	"repro/internal/sta"
	"repro/internal/tech"
)

// analyze times pl at the given per-gate delay scales (nil: nominal) with
// a fresh Analyzer, rebuilding the timing graph.
func analyze(pl *place.Placement, scale []float64) (*sta.Timing, error) {
	an, err := sta.NewAnalyzer(pl, sta.Options{})
	if err != nil {
		return nil, err
	}
	return an.Run(scale, nil)
}

// timing runs a full STA at the die's corner, rebuilding the timing graph:
// the reference that Retimer.Time and the batched re-times must reproduce.
func (d *Die) timing(pl *place.Placement) (*sta.Timing, error) {
	return analyze(pl, d.DelayScale)
}

// timingWithBias runs a full STA with both the die's variation and a
// row-level body-bias assignment applied, computing every gate's delay
// factor from scratch.
func (d *Die) timingWithBias(pl *place.Placement, proc *tech.Process, assign []int) (*sta.Timing, error) {
	if len(assign) != pl.NumRows {
		return nil, errors.New("variation: assignment length mismatch")
	}
	grid := pl.Lib.Grid
	scale := make([]float64, len(d.DelayScale))
	for g := range scale {
		vbs := grid.Voltage(assign[pl.RowOf[g]])
		scale[g] = proc.DelayFactorBias(vbs, d.DVthV[g])
	}
	return analyze(pl, scale)
}

// leakageNW returns the die's total leakage under an assignment (nil for no
// body bias), accounting for the per-gate variation, in nanowatts: the
// per-gate tech.Process.LeakageFactorBias sum LeakModel factorizes.
func (d *Die) leakageNW(pl *place.Placement, proc *tech.Process, assign []int) float64 {
	grid := pl.Lib.Grid
	total := 0.0
	for g := range pl.Design.Gates {
		vbs := 0.0
		if assign != nil {
			vbs = grid.Voltage(assign[pl.RowOf[g]])
		}
		total += pl.Design.Gates[g].Cell.LeakNW * proc.LeakageFactorBias(vbs, d.DVthV[g])
	}
	return total
}

// tune runs TuneOn on a fresh Analyzer, Allocator and Tuner: the one-shot
// tuning of a single die that a reused Tuner must reproduce.
func tune(pl *place.Placement, nom *sta.Timing, die *Die, proc *tech.Process, opts TuneOptions) (*TuneResult, error) {
	an, err := sta.NewAnalyzer(pl, sta.Options{})
	if err != nil {
		return nil, err
	}
	al, err := core.NewAllocator(pl, nom)
	if err != nil {
		return nil, err
	}
	return TuneOn(NewTuner(NewRetimer(an), al), nom, die, proc, opts)
}

// yieldStudy runs YieldStream with no per-die consumer over a freshly built
// Analyzer, nominal timing and Allocator for pl.
func yieldStudy(ctx context.Context, pl *place.Placement, proc *tech.Process, m Model, nDies int, seed int64, opts TuneOptions) (*YieldStats, error) {
	an, err := sta.NewAnalyzer(pl, sta.Options{})
	if err != nil {
		return nil, err
	}
	nom, err := an.Run(nil, nil)
	if err != nil {
		return nil, err
	}
	al, err := core.NewAllocator(pl, nom)
	if err != nil {
		return nil, err
	}
	return YieldStream(ctx, an, al, nom, proc, m, nDies, seed, opts, nil)
}

// recoverLeakage runs RecoverLeakageWith on a fresh Analyzer, Retimer and
// LeakModel: the one-shot recovery of a single die.
func recoverLeakage(pl *place.Placement, nom *sta.Timing, die *Die, proc *tech.Process, opts RBBOptions) (*RBBResult, error) {
	an, err := sta.NewAnalyzer(pl, sta.Options{})
	if err != nil {
		return nil, err
	}
	return RecoverLeakageWith(NewRetimer(an), NewLeakModel(pl, proc), nom, die, opts)
}
