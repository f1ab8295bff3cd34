package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cell"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/power"
	"repro/internal/sta"
	"repro/internal/tech"
)

// tinyProblem builds a random small circuit on a coarse 3-level grid and a
// handful of rows, so the full assignment space (levels^rows) is enumerable.
func tinyProblem(t *testing.T, rng *rand.Rand) *Problem {
	t.Helper()
	coarse, err := cell.NewLibrary(tech.Default45nm(), tech.BiasGrid{StepV: 0.25, MaxV: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	b := netlist.NewBuilder("tiny", coarse)
	nPI := 3 + rng.Intn(3)
	pool := make([]netlist.Signal, 0, 64)
	for i := 0; i < nPI; i++ {
		pool = append(pool, b.PI("p"+string(rune('0'+i))))
	}
	nG := 25 + rng.Intn(30)
	for i := 0; i < nG; i++ {
		x := pool[rng.Intn(len(pool))]
		y := pool[rng.Intn(len(pool))]
		var s netlist.Signal
		switch rng.Intn(4) {
		case 0:
			s = b.Nand(x, y)
		case 1:
			s = b.Nor(x, y)
		case 2:
			s = b.And(x, y)
		default:
			s = b.Not(x)
		}
		pool = append(pool, s)
	}
	for i := nPI; i < len(pool); i += 3 {
		b.Output("o"+string(rune('a'+i%26)), pool[i])
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rows := 3 + rng.Intn(2)
	pl, err := place.Place(d, coarse, place.Options{ForceRows: rows})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := sta.Analyze(pl, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	beta := 0.03 + rng.Float64()*0.09
	c := 2 + rng.Intn(2)
	p, err := buildProblem(pl, tm, Options{Beta: beta, MaxClusters: c, MaxBiasPairs: c})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// bruteForce enumerates every assignment and returns the minimum leakage
// overhead among timing-feasible ones within the cluster and pair caps.
func bruteForce(p *Problem) (float64, bool) {
	assign := make([]int, p.N)
	best := math.Inf(1)
	found := false
	var rec func(i int)
	rec = func(i int) {
		if i == p.N {
			if Clusters(assign) > p.MaxClusters || BiasPairs(assign) > p.MaxBiasPairs {
				return
			}
			if !p.CheckTiming(assign) {
				return
			}
			extra, err := power.AssignExtraLeakageNW(p.Pl, assign)
			if err != nil {
				return
			}
			if extra < best {
				best = extra
				found = true
			}
			return
		}
		for j := 0; j < p.P; j++ {
			assign[i] = j
			rec(i + 1)
		}
	}
	rec(0)
	return best, found
}

func TestAllocatorsAgainstExhaustiveEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tried, skipped := 0, 0
	for trial := 0; trial < 12; trial++ {
		p := tinyProblem(t, rng)
		if p.NumConstraints() == 0 {
			skipped++
			continue // beta too small for this circuit; nothing to check
		}
		want, feasible := bruteForce(p)
		single, errSingle := p.singleBB()

		if !feasible {
			if errSingle == nil {
				t.Fatalf("trial %d: oracle infeasible but PassOne found %v", trial, single.Assign)
			}
			continue
		}
		tried++

		// Heuristic: feasible and no better than the optimum.
		h, err := p.solveHeuristic()
		if err != nil {
			t.Fatalf("trial %d: heuristic failed on feasible instance: %v", trial, err)
		}
		if !p.CheckTiming(h.Assign) {
			t.Fatalf("trial %d: heuristic infeasible", trial)
		}
		if h.ExtraLeakNW < want-1e-6 {
			t.Fatalf("trial %d: heuristic %f beats the oracle optimum %f", trial, h.ExtraLeakNW, want)
		}

		// Local search: feasible, within caps, and bracketed by the
		// oracle optimum below and the single-BB baseline above; nothing
		// tighter is guaranteed, but it must never "beat" an exhaustive
		// enumeration.
		ls, err := (&LocalSolver{Seed: 7}).solveProblem(p)
		if err != nil {
			t.Fatalf("trial %d: local solver failed on feasible instance: %v", trial, err)
		}
		if !p.CheckTiming(ls.Assign) {
			t.Fatalf("trial %d: local solution infeasible", trial)
		}
		if Clusters(ls.Assign) > p.MaxClusters || BiasPairs(ls.Assign) > p.MaxBiasPairs {
			t.Fatalf("trial %d: local solution breaks caps (%d clusters, %d pairs)",
				trial, Clusters(ls.Assign), BiasPairs(ls.Assign))
		}
		if ls.ExtraLeakNW < want-1e-6 {
			t.Fatalf("trial %d: local %f beats the oracle optimum %f", trial, ls.ExtraLeakNW, want)
		}
		if ls.ExtraLeakNW > single.ExtraLeakNW+1e-9 {
			t.Fatalf("trial %d: local %f above single BB %f", trial, ls.ExtraLeakNW, single.ExtraLeakNW)
		}

		// ILP: must match the oracle exactly.
		sol, res, err := p.SolveILP(ILPOptions{WarmStart: h})
		if err != nil {
			t.Fatalf("trial %d: ILP error: %v", trial, err)
		}
		if sol == nil || !sol.Proven {
			t.Fatalf("trial %d: ILP not proven on a tiny instance (%v)", trial, res.Status)
		}
		if math.Abs(sol.ExtraLeakNW-want) > 1e-6 {
			t.Fatalf("trial %d: ILP optimum %f != oracle %f (N=%d P=%d M=%d C=%d)",
				trial, sol.ExtraLeakNW, want, p.N, p.P, p.NumConstraints(), p.MaxClusters)
		}
	}
	t.Logf("verified %d instances against exhaustive enumeration (%d had no violations)", tried, skipped)
	if tried == 0 {
		t.Error("no instance exercised the allocators")
	}
}

// TestSolveILPWorkerInvariance pins the determinism contract at the core
// layer: the same instance solved with 1, 2 and 8 workers must return
// byte-identical solutions and diagnostics — both when the search runs to
// proof and when a node budget truncates it mid-tree.
func TestSolveILPWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for trial := 0; trial < 10; trial++ {
		p := tinyProblem(t, rng)
		if p.NumConstraints() == 0 {
			continue
		}
		h, err := p.solveHeuristic()
		if err != nil {
			continue // uncompensatable instance; the oracle test covers these
		}
		for _, limit := range []int{0, 8} {
			baseSol, baseRes, err := p.SolveILP(ILPOptions{Workers: 1, NodeLimit: limit, WarmStart: h})
			if err != nil {
				t.Fatalf("trial %d limit %d: serial solve: %v", trial, limit, err)
			}
			for _, w := range []int{2, 8} {
				sol, res, err := p.SolveILP(ILPOptions{Workers: w, NodeLimit: limit, WarmStart: h})
				if err != nil {
					t.Fatalf("trial %d limit %d: %d workers: %v", trial, limit, w, err)
				}
				if !reflect.DeepEqual(sol, baseSol) {
					t.Fatalf("trial %d limit %d: solution differs at %d workers:\n 1: %+v\n%2d: %+v",
						trial, limit, w, baseSol, w, sol)
				}
				if !reflect.DeepEqual(res, baseRes) {
					t.Fatalf("trial %d limit %d: diagnostics differ at %d workers:\n 1: %+v\n%2d: %+v",
						trial, limit, w, baseRes, w, res)
				}
			}
		}
		checked++
	}
	if checked == 0 {
		t.Error("no instance exercised the parallel tree")
	}
}
