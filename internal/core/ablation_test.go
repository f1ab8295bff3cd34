package core

import (
	"testing"
)

func TestRefineDownAblation(t *testing.T) {
	// The cleanup sweep must never hurt and should help on at least one
	// benchmark (it is what closes part of the greedy/ILP gap).
	helped := false
	for _, name := range []string{"c1355", "c3540", "c5315", "c7552"} {
		p := problem(t, name, 0.05, 3)
		full, err := p.solveHeuristic()
		if err != nil {
			t.Fatal(err)
		}
		bare, err := unrefinedHeuristic(p)
		if err != nil {
			t.Fatal(err)
		}
		if full.ExtraLeakNW > bare.ExtraLeakNW+1e-9 {
			t.Errorf("%s: refineDown increased leakage %.2f -> %.2f",
				name, bare.ExtraLeakNW, full.ExtraLeakNW)
		}
		if full.ExtraLeakNW < bare.ExtraLeakNW-1e-9 {
			helped = true
		}
		t.Logf("%-8s bare=%.1fnW refined=%.1fnW", name, bare.ExtraLeakNW, full.ExtraLeakNW)
	}
	if !helped {
		t.Error("refineDown never improved a solution; sweep is dead code")
	}
}

// unrefinedHeuristic is the two-pass heuristic without its final lowering
// sweep (refineDown): the greedy walk and the routing-cap reconcile, packaged
// exactly as the full pipeline packages its result.
func unrefinedHeuristic(p *Problem) (*Solution, error) {
	var s heurScratch
	var st timingState
	jopt, err := p.greedyWalk(&s, &st)
	if err != nil {
		return nil, err
	}
	if jopt > 0 {
		p.reconcilePairs(&st, s.assign, &s)
	}
	return p.solutionFor(s.assign, "heuristic", false)
}

func TestReconcileAblationRespectsRouting(t *testing.T) {
	// Without the reconcile pass the greedy walk may strand more bias
	// pairs than the layout can route; with it, never.
	for _, name := range []string{"c1355", "c3540", "c5315", "c7552", "adder128"} {
		for _, beta := range []float64{0.05, 0.10} {
			p := problem(t, name, beta, 3)
			sol, err := p.solveHeuristic()
			if err != nil {
				t.Fatal(err)
			}
			if got := BiasPairs(sol.Assign); got > p.MaxBiasPairs {
				t.Errorf("%s beta=%g: %d bias pairs exceed the routing cap", name, beta, got)
			}
		}
	}
}

func TestRawViolationsCompression(t *testing.T) {
	// Signature merging must compress the multiplier's path explosion
	// substantially (the row abstraction is what keeps the ILP tractable).
	p := problem(t, "c6288", 0.05, 3)
	if p.RawViolations < p.NumConstraints() {
		t.Fatalf("raw %d < merged %d", p.RawViolations, p.NumConstraints())
	}
	t.Logf("c6288: %d violating paths -> %d merged constraints", p.RawViolations, p.NumConstraints())
	ecc := problem(t, "c1355", 0.05, 3)
	t.Logf("c1355: %d violating paths -> %d merged constraints", ecc.RawViolations, ecc.NumConstraints())
}
