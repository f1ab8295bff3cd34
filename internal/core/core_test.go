package core

import (
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/gen"
	"repro/internal/place"
	"repro/internal/sta"
)

func problem(t *testing.T, name string, beta float64, c int) *Problem {
	t.Helper()
	l := cell.Default()
	d, err := gen.Build(name, l)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Place(d, l, place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := sta.Analyze(pl, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := buildProblem(pl, tm, Options{Beta: beta, MaxClusters: c})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConstraintCountGrowsWithBeta(t *testing.T) {
	p5 := problem(t, "c5315", 0.05, 3)
	p10 := problem(t, "c5315", 0.10, 3)
	t.Logf("c5315 constraints: beta=5%% -> %d, beta=10%% -> %d",
		p5.NumConstraints(), p10.NumConstraints())
	if p5.NumConstraints() == 0 {
		t.Fatal("no constraints at beta=5%")
	}
	if p10.NumConstraints() <= p5.NumConstraints() {
		t.Errorf("constraints should grow with beta: %d vs %d",
			p5.NumConstraints(), p10.NumConstraints())
	}
}

func TestMultiplierDominatesConstraintCounts(t *testing.T) {
	// Table 1: c6288's No.Constr (773/810) dwarfs every other benchmark.
	mult := problem(t, "c6288", 0.05, 3)
	ecc := problem(t, "c1355", 0.05, 3)
	t.Logf("constraints at beta=5%%: c6288=%d c1355=%d", mult.NumConstraints(), ecc.NumConstraints())
	if mult.NumConstraints() < 5*ecc.NumConstraints() {
		t.Errorf("multiplier constraints (%d) should dwarf ECC's (%d)",
			mult.NumConstraints(), ecc.NumConstraints())
	}
}

func TestSingleBBUniformAndFeasible(t *testing.T) {
	p := problem(t, "c1355", 0.05, 3)
	s, err := p.singleBB()
	if err != nil {
		t.Fatal(err)
	}
	if s.Clusters != 1 {
		t.Errorf("single BB clusters = %d, want 1", s.Clusters)
	}
	for _, j := range s.Assign[1:] {
		if j != s.Assign[0] {
			t.Fatal("single BB assignment not uniform")
		}
	}
	if !p.CheckTiming(s.Assign) {
		t.Error("single BB fails timing")
	}
	if s.Assign[0] == 0 {
		t.Error("a violated design must need some bias")
	}
	if s.ExtraLeakNW <= 0 {
		t.Error("single BB must spend leakage")
	}
	// jopt is minimal: one level lower must fail.
	lower := make([]int, p.N)
	for i := range lower {
		lower[i] = s.Assign[0] - 1
	}
	if p.CheckTiming(lower) {
		t.Error("PassOne did not return the minimal feasible level")
	}
}

func TestHeuristicInvariants(t *testing.T) {
	for _, tc := range []struct {
		name string
		beta float64
		c    int
	}{
		{"c1355", 0.05, 2}, {"c1355", 0.10, 3},
		{"c3540", 0.05, 3}, {"c5315", 0.10, 2},
		{"c7552", 0.05, 3}, {"adder128", 0.10, 3},
	} {
		p := problem(t, tc.name, tc.beta, tc.c)
		single, err := p.singleBB()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h, err := p.solveHeuristic()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !p.CheckTiming(h.Assign) {
			t.Errorf("%s: heuristic violates timing", tc.name)
		}
		if h.Clusters > tc.c {
			t.Errorf("%s: %d clusters exceed C=%d", tc.name, h.Clusters, tc.c)
		}
		if h.ExtraLeakNW > single.ExtraLeakNW+1e-9 {
			t.Errorf("%s: heuristic leakage %f above single BB %f",
				tc.name, h.ExtraLeakNW, single.ExtraLeakNW)
		}
		sav := Savings(single, h)
		if sav < 0 || sav > 100 {
			t.Errorf("%s: savings %f out of range", tc.name, sav)
		}
		t.Logf("%-10s beta=%g C=%d: single=%.1fnW heuristic=%.1fnW savings=%.1f%% clusters=%d constr=%d",
			tc.name, tc.beta, tc.c, single.ExtraLeakNW, h.ExtraLeakNW, sav, h.Clusters, p.NumConstraints())
	}
}

func TestHeuristicSavesLeakage(t *testing.T) {
	// The headline claim: clustering beats block-level FBB. On every
	// public benchmark the heuristic must save something at beta=10%.
	for _, name := range []string{"c1355", "c3540", "c5315", "c7552"} {
		p := problem(t, name, 0.10, 3)
		single, err := p.singleBB()
		if err != nil {
			t.Fatal(err)
		}
		h, err := p.solveHeuristic()
		if err != nil {
			t.Fatal(err)
		}
		if sav := Savings(single, h); sav <= 0 {
			t.Errorf("%s: heuristic saves nothing (%.2f%%)", name, sav)
		}
	}
}

func TestSavingsGrowWithBeta(t *testing.T) {
	// Table 1's trend: savings at beta=10% exceed savings at beta=5%.
	grow := 0
	names := []string{"c1355", "c3540", "c5315", "c7552"}
	for _, name := range names {
		p5 := problem(t, name, 0.05, 3)
		p10 := problem(t, name, 0.10, 3)
		s5, err := p5.singleBB()
		if err != nil {
			t.Fatal(err)
		}
		h5, err := p5.solveHeuristic()
		if err != nil {
			t.Fatal(err)
		}
		s10, err := p10.singleBB()
		if err != nil {
			t.Fatal(err)
		}
		h10, err := p10.solveHeuristic()
		if err != nil {
			t.Fatal(err)
		}
		if Savings(s10, h10) > Savings(s5, h5) {
			grow++
		}
		t.Logf("%s: savings 5%%=%.1f 10%%=%.1f", name, Savings(s5, h5), Savings(s10, h10))
	}
	if grow < len(names)-1 {
		t.Errorf("savings grew with beta on only %d/%d designs", grow, len(names))
	}
}

func TestCOneDegeneratesToSingleBB(t *testing.T) {
	p := problem(t, "c1355", 0.05, 1)
	single, err := p.singleBB()
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.solveHeuristic()
	if err != nil {
		t.Fatal(err)
	}
	if h.Clusters != 1 {
		t.Errorf("C=1 heuristic used %d clusters", h.Clusters)
	}
	if h.ExtraLeakNW != single.ExtraLeakNW {
		t.Errorf("C=1 heuristic %.2fnW != single BB %.2fnW", h.ExtraLeakNW, single.ExtraLeakNW)
	}
}

func TestInfeasibleBetaRejected(t *testing.T) {
	// A 50% slowdown needs a ~33% delay reduction; FBB tops out around
	// 15-18%, so PassOne must fail.
	p := problem(t, "c1355", 0.50, 3)
	if _, err := p.passOne(); err == nil {
		t.Fatal("PassOne accepted an uncompensatable slowdown")
	}
	if _, err := p.solveHeuristic(); err == nil {
		t.Fatal("heuristic accepted an uncompensatable slowdown")
	}
}

func TestILPOnSmallDesign(t *testing.T) {
	for _, c := range []int{2, 3} {
		p := problem(t, "c1355", 0.05, c)
		single, err := p.singleBB()
		if err != nil {
			t.Fatal(err)
		}
		h, err := p.solveHeuristic()
		if err != nil {
			t.Fatal(err)
		}
		sol, res, err := p.SolveILP(ILPOptions{WarmStart: h})
		if err != nil {
			t.Fatal(err)
		}
		if sol == nil {
			t.Fatalf("C=%d: ILP returned no solution (%v)", c, res.Status)
		}
		if !p.CheckTiming(sol.Assign) {
			t.Errorf("C=%d: ILP violates timing", c)
		}
		if sol.Clusters > c {
			t.Errorf("C=%d: ILP used %d clusters", c, sol.Clusters)
		}
		// Exactness: ILP at least as good as the heuristic.
		if sol.ExtraLeakNW > h.ExtraLeakNW+1e-6 {
			t.Errorf("C=%d: ILP %.2fnW worse than heuristic %.2fnW",
				c, sol.ExtraLeakNW, h.ExtraLeakNW)
		}
		t.Logf("c1355 C=%d: ILP %.1f%% vs heuristic %.1f%% (nodes=%d proven=%v)",
			c, Savings(single, sol), Savings(single, h), res.Nodes, sol.Proven)
	}
}

func TestILPMoreClustersNeverWorse(t *testing.T) {
	p2 := problem(t, "c1355", 0.10, 2)
	p3 := problem(t, "c1355", 0.10, 3)
	h2, err := p2.solveHeuristic()
	if err != nil {
		t.Fatal(err)
	}
	h3, err := p3.solveHeuristic()
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := p2.SolveILP(ILPOptions{WarmStart: h2})
	if err != nil {
		t.Fatal(err)
	}
	s3, _, err := p3.SolveILP(ILPOptions{WarmStart: h3})
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Proven || !s3.Proven {
		t.Fatalf("c1355 at beta 10%% must solve to proven optimality under the default node budget (C=2 %v, C=3 %v)",
			s2.Proven, s3.Proven)
	}
	if s3.ExtraLeakNW > s2.ExtraLeakNW+1e-6 {
		t.Errorf("C=3 optimum %.2f worse than C=2 optimum %.2f", s3.ExtraLeakNW, s2.ExtraLeakNW)
	}
}

func TestIncrementalTimingMatchesFull(t *testing.T) {
	p := problem(t, "c3540", 0.05, 3)
	rng := rand.New(rand.NewSource(21))
	assign := make([]int, p.N)
	for i := range assign {
		assign[i] = rng.Intn(p.P)
	}
	st := p.newTimingState(assign)
	for step := 0; step < 500; step++ {
		r := rng.Intn(p.N)
		to := rng.Intn(p.P)
		st.move(r, to)
		if st.feasible() != p.CheckTiming(assign) {
			t.Fatalf("step %d: incremental %v != full %v", step, st.feasible(), p.CheckTiming(assign))
		}
	}
}

func TestBuildProblemValidation(t *testing.T) {
	l := cell.Default()
	d, err := gen.Build("c1355", l)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Place(d, l, place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := sta.Analyze(pl, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildProblem(pl, tm, Options{Beta: 0}); err == nil {
		t.Error("beta=0 accepted")
	}
	if _, err := buildProblem(pl, tm, Options{Beta: 0.05, MaxClusters: -2}); err == nil {
		t.Error("negative cluster cap accepted")
	}
}

func TestVbsOf(t *testing.T) {
	p := problem(t, "c1355", 0.05, 3)
	h, err := p.solveHeuristic()
	if err != nil {
		t.Fatal(err)
	}
	vbs := p.VbsOf(h)
	if len(vbs) != h.Clusters {
		t.Errorf("VbsOf returned %d voltages for %d clusters", len(vbs), h.Clusters)
	}
	for i := 1; i < len(vbs); i++ {
		if vbs[i] <= vbs[i-1] {
			t.Error("voltages not ascending")
		}
	}
}

func TestCriticalityRanksInvolvedRowsHigher(t *testing.T) {
	p := problem(t, "c5315", 0.05, 3)
	ct := p.RowCriticality()
	maxUninvolved, minInvolvedMax := 0.0, 0.0
	for i := 0; i < p.N; i++ {
		if p.Involved[i] {
			if ct[i] > minInvolvedMax {
				minInvolvedMax = ct[i]
			}
		} else if ct[i] > maxUninvolved {
			maxUninvolved = ct[i]
		}
	}
	if minInvolvedMax <= maxUninvolved {
		t.Errorf("most critical involved row (%f) not above uninvolved rows (%f)",
			minInvolvedMax, maxUninvolved)
	}
}
