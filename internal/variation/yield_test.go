package variation

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/sta"
	"repro/internal/tech"
)

// TestYieldStudyParallelMatchesSequential pins the determinism fix: per-die
// seeds are mixed from the die index alone, so the aggregated statistics
// must be identical at any Workers setting (including the default
// one-per-CPU pool).
func TestYieldStudyParallelMatchesSequential(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	dies := 12
	if !testing.Short() {
		dies = 24
	}
	run := func(workers int) *YieldStats {
		t.Helper()
		st, err := yieldStudy(context.Background(), pl, proc, Default(), dies, 77,
			TuneOptions{GuardbandPct: 0.005, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	seq := run(1)
	for _, workers := range []int{2, 8, 0} {
		if par := run(workers); *par != *seq {
			t.Errorf("Workers=%d diverged from sequential:\nseq: %+v\npar: %+v",
				workers, seq, par)
		}
	}
}

// TestTuneOnMatchesTune checks a reused Tuner against a fresh one-shot
// tuning (tune) for a population of dies sharing one Retimer (and thus one
// dirty Timing buffer).
func TestTuneOnMatchesTune(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	nom, err := sta.Analyze(pl, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	an, err := sta.NewAnalyzer(pl, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	al, err := core.NewAllocator(pl, nom)
	if err != nil {
		t.Fatal(err)
	}
	tn := NewTuner(NewRetimer(an), al)
	m := Default()
	opts := TuneOptions{GuardbandPct: 0.005}
	for i := 0; i < 10; i++ {
		die := m.Sample(pl, proc, DieSeed(5, i))
		want, err := tune(pl, nom, die, proc, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := TuneOn(tn, nom, die, proc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want.BetaActual != got.BetaActual || want.BetaSensed != got.BetaSensed ||
			want.Met != got.Met || want.Reason != got.Reason || want.Iters != got.Iters ||
			want.DcritBeforePS != got.DcritBeforePS || want.DcritAfterPS != got.DcritAfterPS ||
			want.LeakBeforeNW != got.LeakBeforeNW || want.LeakAfterNW != got.LeakAfterNW {
			t.Fatalf("die %d: TuneOn diverged:\nwant %+v\ngot  %+v", i, want, got)
		}
		if (want.Solution == nil) != (got.Solution == nil) {
			t.Fatalf("die %d: solution presence diverged", i)
		}
		if want.Solution != nil {
			if len(want.Solution.Assign) != len(got.Solution.Assign) {
				t.Fatalf("die %d: assignment lengths diverged", i)
			}
			for r := range want.Solution.Assign {
				if want.Solution.Assign[r] != got.Solution.Assign[r] {
					t.Fatalf("die %d: assignment diverged at row %d", i, r)
				}
			}
		}
	}
}

// TestRecoverLeakageOnMatches checks the RBB scan on a shared Retimer and
// LeakModel against a fresh one-shot recovery (recoverLeakage) per die.
func TestRecoverLeakageOnMatches(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	nom, err := sta.Analyze(pl, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	an, err := sta.NewAnalyzer(pl, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRetimer(an)
	lm := NewLeakModel(pl, proc)
	m := Default()
	for i := 0; i < 8; i++ {
		die := m.Sample(pl, proc, DieSeed(31, i))
		want, err := recoverLeakage(pl, nom, die, proc, RBBOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := RecoverLeakageWith(rt, lm, nom, die, RBBOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if *want != *got {
			t.Fatalf("die %d: shared-buffer recovery diverged:\nwant %+v\ngot  %+v", i, want, got)
		}
	}
}

// TestTuneResultConsistency pins the failure-path contract: whatever a
// die's fate — tuned, never allocatable, or failed on a later escalation —
// the reported Solution, DcritAfterPS and LeakAfterNW must describe one
// coherent state (the last applied allocation, or the untouched die). A
// wide variation model forces plenty of beyond-compensation-range dies.
func TestTuneResultConsistency(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	nom, err := sta.Analyze(pl, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	an, err := sta.NewAnalyzer(pl, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	al, err := core.NewAllocator(pl, nom)
	if err != nil {
		t.Fatal(err)
	}
	tn := NewTuner(NewRetimer(an), al)
	m := Model{SigmaD2DmV: 60, SigmaSysmV: 30, SigmaRndmV: 20, CorrLenUM: 150}
	opts := TuneOptions{GuardbandPct: 0.005, MaxIters: 2}
	failed := 0
	for i := 0; i < 30; i++ {
		die := m.Sample(pl, proc, DieSeed(13, i))
		r, err := TuneOn(tn, nom, die, proc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if r.Solution == nil {
			if r.LeakAfterNW != r.LeakBeforeNW || r.DcritAfterPS != r.DcritBeforePS {
				t.Fatalf("die %d: no solution but after-state diverges from before-state: %+v", i, r)
			}
			if r.Reason != "" {
				failed++
			}
			continue
		}
		if got := die.leakageNW(pl, proc, r.Solution.Assign); got != r.LeakAfterNW {
			t.Fatalf("die %d: LeakAfterNW %v does not match the reported solution's %v",
				i, r.LeakAfterNW, got)
		}
		tuned, err := tn.Retimer().TimeWithBias(die, proc, r.Solution.Assign)
		if err != nil {
			t.Fatal(err)
		}
		if tuned.DcritPS != r.DcritAfterPS {
			t.Fatalf("die %d: DcritAfterPS %v does not match the reported solution's %v",
				i, r.DcritAfterPS, tuned.DcritPS)
		}
	}
	if failed == 0 {
		t.Error("variation model too tame: no die exercised the failure path")
	}
}

// TestYieldStudySolverSelection runs the study under each built-in
// pluggable solver: statistics must stay deterministic across worker
// counts, and the local solver must never leak more than the heuristic on
// the tuned dies it compensates.
func TestYieldStudySolverSelection(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	dies := 10
	run := func(solver core.Solver, workers int) *YieldStats {
		t.Helper()
		st, err := yieldStudy(context.Background(), pl, proc, Default(), dies, 99,
			TuneOptions{GuardbandPct: 0.005, Workers: workers, Solver: solver})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	local := &core.LocalSolver{Seed: 3}
	seq := run(local, 1)
	if par := run(local, 4); *par != *seq {
		t.Errorf("local-solver study diverged across worker counts:\nseq: %+v\npar: %+v", seq, par)
	}
	heur := run(nil, 1)
	if seq.MetAfter < heur.MetAfter {
		t.Errorf("local solver tuned fewer dies (%d) than the heuristic (%d)",
			seq.MetAfter, heur.MetAfter)
	}
	if seq.TunedDies == heur.TunedDies && seq.MeanLeakAfterNW > heur.MeanLeakAfterNW+1e-6 {
		t.Errorf("local solver spent more leakage (%f) than the heuristic (%f)",
			seq.MeanLeakAfterNW, heur.MeanLeakAfterNW)
	}
}

// TestDieSeedProperties: index-derived, seed-sensitive, and collision-free
// over a realistic population.
func TestDieSeedProperties(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 10000; i++ {
		s := DieSeed(1, i)
		if seen[s] {
			t.Fatalf("die seed collision at index %d", i)
		}
		seen[s] = true
	}
	if DieSeed(1, 5) != DieSeed(1, 5) {
		t.Error("DieSeed not deterministic")
	}
	if DieSeed(1, 5) == DieSeed(2, 5) {
		t.Error("DieSeed ignores the study seed")
	}
}
