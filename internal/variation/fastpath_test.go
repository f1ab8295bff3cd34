package variation

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sta"
	"repro/internal/tech"
)

// referenceTuneOn is the pre-fast-path per-die tuning loop, kept verbatim
// as the end-to-end differential reference: every die-side re-time is a
// full Run (paths extracted and thrown away), and every leakage is the
// scalar per-gate Die.leakageNW pass. The production loop — light re-times
// through RunLight, leakage through the LeakModel tables — must reproduce
// its TuneResults bit for bit.
func referenceTuneOn(rt *Retimer, al *core.Allocator, instp **core.Instance,
	nom *sta.Timing, die *Die, proc *tech.Process, opts TuneOptions) (*TuneResult, error) {
	opts.setDefaults()
	pl := rt.Placement()
	dieTm, err := rt.Time(die)
	if err != nil {
		return nil, err
	}
	dieDcrit := dieTm.DcritPS
	res := &TuneResult{
		BetaActual:    dieDcrit/nom.DcritPS - 1,
		DcritBeforePS: dieDcrit,
		LeakBeforeNW:  die.leakageNW(pl, proc, nil),
	}
	limit := nom.DcritPS * (1 + opts.SlackTolPct)

	res.BetaSensed = opts.Sensor.MeasureBeta(nom, dieTm, die.Seed)
	target := res.BetaSensed + opts.GuardbandPct
	if dieDcrit <= limit && target <= 0 {
		res.Met = true
		res.DcritAfterPS = dieDcrit
		res.LeakAfterNW = res.LeakBeforeNW
		return res, nil
	}
	if target <= 0 {
		target = 0.005
	}

	for iter := 0; iter < opts.MaxIters; iter++ {
		res.Iters = iter + 1
		inst, err := al.At(core.Options{
			Beta:         target,
			MaxClusters:  opts.MaxClusters,
			MaxBiasPairs: opts.MaxBiasPairs,
		}, *instp)
		if err != nil {
			return nil, err
		}
		*instp = inst
		sol, err := inst.Solve(opts.Solver)
		if err != nil {
			res.Reason = err.Error()
			if res.Solution == nil {
				res.DcritAfterPS = dieDcrit
				res.LeakAfterNW = res.LeakBeforeNW
			}
			return res, nil
		}
		tuned, err := rt.TimeWithBias(die, proc, sol.Assign)
		if err != nil {
			return nil, err
		}
		res.Solution = sol.Clone()
		res.DcritAfterPS = tuned.DcritPS
		res.LeakAfterNW = die.leakageNW(pl, proc, res.Solution.Assign)
		if tuned.DcritPS <= limit {
			res.Met = true
			return res, nil
		}
		short := tuned.DcritPS/nom.DcritPS - 1
		target += short + 0.005
	}
	res.Reason = fmt.Sprintf("not met after %d escalations", opts.MaxIters)
	return res, nil
}

func requireTuneResultEqual(tb testing.TB, die int, want, got *TuneResult) {
	tb.Helper()
	if want.BetaActual != got.BetaActual || want.BetaSensed != got.BetaSensed ||
		want.Met != got.Met || want.Reason != got.Reason || want.Iters != got.Iters ||
		want.DcritBeforePS != got.DcritBeforePS || want.DcritAfterPS != got.DcritAfterPS ||
		want.LeakBeforeNW != got.LeakBeforeNW || want.LeakAfterNW != got.LeakAfterNW {
		tb.Fatalf("die %d diverged from the full-path reference:\nwant %+v\ngot  %+v", die, want, got)
	}
	if (want.Solution == nil) != (got.Solution == nil) {
		tb.Fatalf("die %d: solution presence diverged", die)
	}
	if want.Solution != nil {
		if want.Solution.Clusters != got.Solution.Clusters ||
			len(want.Solution.Assign) != len(got.Solution.Assign) {
			tb.Fatalf("die %d: solution shape diverged", die)
		}
		for r := range want.Solution.Assign {
			if want.Solution.Assign[r] != got.Solution.Assign[r] {
				tb.Fatalf("die %d: assignment diverged at row %d", die, r)
			}
		}
	}
}

// TestYieldStreamMatchesFullPathReference proves the whole vectorized
// per-die pipeline — SampleInto into reused buffers, Dcrit-only light
// re-times, LeakModel leakage — end to end: on a pinned seed grid, the
// stream's per-die TuneResults and aggregated YieldStats are byte-identical
// to the sequential full-path loop, at one worker and at several.
func TestYieldStreamMatchesFullPathReference(t *testing.T) {
	an, al, nom := streamFixture(t)
	proc := tech.Default45nm()
	dies := 16
	if !testing.Short() {
		dies = 40
	}
	const seed = 77
	opts := TuneOptions{GuardbandPct: 0.005}

	// Sequential reference over one dirty Retimer/Instance, exactly the
	// pre-refactor worker shape.
	pl := an.Placement()
	m := Default()
	rt := NewRetimer(an)
	var inst *core.Instance
	limit := nom.DcritPS * (1 + 0.001)
	wantResults := make([]*TuneResult, dies)
	wantAcc := newYieldAccum()
	func() {
		o := opts
		o.setDefaults()
		for i := 0; i < dies; i++ {
			die := m.Sample(pl, proc, DieSeed(seed, i))
			r, err := referenceTuneOn(rt, al, &inst, nom, die, proc, o)
			if err != nil {
				t.Fatal(err)
			}
			wantResults[i] = r
			wantAcc.fold(r, limit)
		}
	}()
	wantStats := wantAcc.stats()
	if wantStats.TunedDies == 0 {
		t.Fatal("population tuned no dies; reference proves nothing")
	}

	for _, workers := range []int{1, 4} {
		o := opts
		o.Workers = workers
		next := 0
		got, err := YieldStream(context.Background(), an, al, nom, proc, m, dies, seed, o,
			func(die int, r *TuneResult) error {
				if die != next {
					t.Fatalf("workers=%d: emitted die %d, want %d", workers, die, next)
				}
				requireTuneResultEqual(t, die, wantResults[die], r)
				next++
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if next != dies {
			t.Fatalf("workers=%d: %d emits, want %d", workers, next, dies)
		}
		if *got != *wantStats {
			t.Fatalf("workers=%d: stats diverged from the full-path reference:\nwant %+v\ngot  %+v",
				workers, wantStats, got)
		}
	}
}

// TestRecoverLeakageWithMatchesScalarReference pins the RBB fast path the
// same way: light bias scans plus LeakModel sweeps must reproduce the
// full-path scalar recovery bit for bit.
func TestRecoverLeakageWithMatchesScalarReference(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	an := newAnalyzer(t, pl)
	nom, err := an.Run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRetimer(an)
	ref := NewRetimer(an)
	lm := NewLeakModel(pl, proc)
	m := Default()
	opts := RBBOptions{}
	recovered := 0
	for i := 0; i < 10; i++ {
		die := m.Sample(pl, proc, DieSeed(55, i))
		// Scalar reference: full re-times, per-gate leakage loops.
		o := opts
		o.setDefaults()
		wantTm, err := ref.Time(die)
		if err != nil {
			t.Fatal(err)
		}
		want := &RBBResult{
			DcritBeforePS: wantTm.DcritPS,
			DcritAfterPS:  wantTm.DcritPS,
			LeakBeforeNW:  die.leakageNW(pl, proc, nil),
		}
		want.LeakAfterNW = want.LeakBeforeNW
		limit := nom.DcritPS * (1 - o.MarginPct)
		if want.DcritBeforePS < limit {
			best, bestDcrit := 0.0, want.DcritBeforePS
			for vbs := -o.StepV; vbs >= -o.MaxV-1e-9; vbs -= o.StepV {
				tm, err := ref.TimeUniformBias(die, proc, vbs)
				if err != nil {
					t.Fatal(err)
				}
				if tm.DcritPS > limit {
					break
				}
				best, bestDcrit = vbs, tm.DcritPS
			}
			if best != 0 {
				want.Applied = true
				want.VbsV = best
				want.DcritAfterPS = bestDcrit
				leak := 0.0
				for g := range pl.Design.Gates {
					leak += pl.Design.Gates[g].Cell.LeakNW * proc.LeakageFactorBias(best, die.DVthV[g])
				}
				want.LeakAfterNW = leak
				want.SavedPct = 100 * (want.LeakBeforeNW - leak) / want.LeakBeforeNW
			}
		}

		got, err := RecoverLeakageWith(rt, lm, nom, die, opts)
		if err != nil {
			t.Fatal(err)
		}
		if *want != *got {
			t.Fatalf("die %d diverged:\nwant %+v\ngot  %+v", i, want, got)
		}
		if got.Applied {
			recovered++
		}
	}
	if recovered == 0 {
		t.Error("no die recovered leakage; reference proves nothing")
	}
}

// TestTunerSolveMemoBounded: the allocation memo is a bounded cache, not a
// log — continuous escalation targets must not grow a worker's footprint
// past maxSolMemo over a long stream, and a full memo must still return
// correct (scratch-owned) solutions.
func TestTunerSolveMemoBounded(t *testing.T) {
	an, al, nom := streamFixture(t)
	_ = nom
	tn := NewTuner(NewRetimer(an), al)
	var want *core.Solution
	for i := 0; i < 3*maxSolMemo; i++ {
		beta := 0.02 + 1e-6*float64(i) // continuous, never repeats
		sol, solveErr, err := tn.solve(core.Options{Beta: beta, MaxClusters: 3, MaxBiasPairs: 2}, nil, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if solveErr != nil || sol == nil {
			t.Fatalf("target %v unexpectedly infeasible: %v", beta, solveErr)
		}
		if i == 0 {
			want = sol.Clone()
		}
		if len(tn.sols) > maxSolMemo {
			t.Fatalf("memo grew to %d entries, cap is %d", len(tn.sols), maxSolMemo)
		}
	}
	// Escalation-style (non-memoized) targets must never insert.
	grew := len(tn.sols)
	if _, _, err := tn.solve(core.Options{Beta: 0.0423, MaxClusters: 3, MaxBiasPairs: 2}, nil, false, nil); err != nil {
		t.Fatal(err)
	}
	if len(tn.sols) != grew {
		t.Fatalf("non-memoized solve grew the memo to %d entries", len(tn.sols))
	}
	// A key cached before the memo filled must still hit and agree with a
	// fresh solve of the same instance.
	sol, solveErr, err := tn.solve(core.Options{Beta: 0.02, MaxClusters: 3, MaxBiasPairs: 2}, nil, true, nil)
	if err != nil || solveErr != nil {
		t.Fatal(err, solveErr)
	}
	if sol.Clusters != want.Clusters || len(sol.Assign) != len(want.Assign) {
		t.Fatal("cached solution diverged from the first solve")
	}
	for r := range want.Assign {
		if sol.Assign[r] != want.Assign[r] {
			t.Fatalf("cached assignment diverged at row %d", r)
		}
	}
}

// TestLightTimingRejectedAsNominal: the Light contract is enforced at the
// path-consuming boundaries — a Dcrit-only re-time handed where a full
// nominal analysis is required must be a hard error, not a silent
// constraint-free tuning.
func TestLightTimingRejectedAsNominal(t *testing.T) {
	an, al, _ := streamFixture(t)
	light, err := an.RunLight(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	proc := tech.Default45nm()
	die := Default().Sample(an.Placement(), proc, 1)
	tn := NewTuner(NewRetimer(an), al)
	if _, err := TuneOn(tn, light, die, proc, TuneOptions{}); err == nil {
		t.Error("TuneOn accepted a light nominal timing")
	}
	lm := NewLeakModel(an.Placement(), proc)
	if _, err := RecoverLeakageWith(NewRetimer(an), lm, light, die, RBBOptions{}); err == nil {
		t.Error("RecoverLeakageWith accepted a light nominal timing")
	}
	if _, err := core.NewAllocator(an.Placement(), light); err == nil {
		t.Error("core.NewAllocator accepted a light timing")
	}
}
