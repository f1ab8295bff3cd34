package ilp

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/lp"
)

// TestSolveWorkerInvariance is the determinism contract: under a node
// budget, Solve returns a bit-identical Result — incumbent vector,
// objective, bound, status, node count, diagnostics — at any worker
// count. Random models, budgets tight enough that some runs truncate.
func TestSolveWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	workers := []int{1, 2, 8}
	for trial := 0; trial < 60; trial++ {
		m := randomBinaryModel(rng)
		for _, nodeLimit := range []int{4, 0} {
			var base Result
			for wi, w := range workers {
				got, err := Solve(m, Options{NodeLimit: nodeLimit, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if wi == 0 {
					base = got
					continue
				}
				if !reflect.DeepEqual(base, got) {
					t.Fatalf("trial %d limit=%d: workers=%d diverged from workers=1:\n%+v\nvs\n%+v",
						trial, nodeLimit, w, base, got)
				}
			}
		}
	}
}

// TestSolveWorkerInvarianceWarm covers the warm-started budgeted path the
// FBB flow uses: incumbent primed by a heuristic, tight node budget.
func TestSolveWorkerInvarianceWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		m := randomBinaryModel(rng)
		// Cheap feasible warm start when one exists: all zeros.
		x0 := make([]float64, len(m.C))
		feasible := true
		for i, row := range m.A {
			v := 0.0
			for j := range row {
				v += row[j] * x0[j]
			}
			switch m.Rel[i] {
			case lp.LE:
				feasible = feasible && v <= m.B[i]+1e-9
			case lp.GE:
				feasible = feasible && v >= m.B[i]-1e-9
			case lp.EQ:
				feasible = feasible && v == m.B[i]
			}
		}
		if !feasible {
			continue
		}
		var base Result
		for wi, w := range []int{1, 2, 8} {
			got, err := Solve(m, Options{
				NodeLimit: 6,
				Workers:   w,
				HasWarm:   true,
				WarmObj:   0,
				WarmX:     x0,
			})
			if err != nil {
				t.Fatal(err)
			}
			if wi == 0 {
				base = got
				continue
			}
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("trial %d: workers=%d diverged:\n%+v\nvs\n%+v", trial, w, base, got)
			}
		}
	}
}
