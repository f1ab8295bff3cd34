package ilp

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/lp"
)

func TestKnapsack(t *testing.T) {
	// max 10x1+13x2+7x3 s.t. 3x1+4x2+2x3 <= 6, binary.
	// Best: x1+x3 (w=5, v=17) vs x2+x3 (w=6, v=20) -> 20.
	m := &Model{Problem: lp.Problem{
		C:   []float64{-10, -13, -7},
		A:   [][]float64{{3, 4, 2}},
		Rel: []lp.Rel{lp.LE},
		B:   []float64{6},
		U:   []float64{1, 1, 1},
	}}
	r, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != OptimalProven || math.Abs(r.Obj+20) > 1e-6 {
		t.Fatalf("status=%v obj=%f, want optimal -20", r.Status, r.Obj)
	}
	want := []float64{0, 1, 1}
	for j := range want {
		if math.Abs(r.X[j]-want[j]) > 1e-6 {
			t.Errorf("x[%d] = %f, want %f", j, r.X[j], want[j])
		}
	}
}

func TestIntegerRounding(t *testing.T) {
	// LP optimum fractional: min -x1-x2 s.t. 2x1+2x2 <= 3, binary.
	// LP gives 1.5; ILP must give exactly one variable set.
	m := &Model{Problem: lp.Problem{
		C:   []float64{-1, -1},
		A:   [][]float64{{2, 2}},
		Rel: []lp.Rel{lp.LE},
		B:   []float64{3},
		U:   []float64{1, 1},
	}}
	r, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != OptimalProven || math.Abs(r.Obj+1) > 1e-6 {
		t.Fatalf("obj = %f, want -1", r.Obj)
	}
}

func TestInfeasibleILP(t *testing.T) {
	// x1 + x2 = 1.5 has no binary solution.
	m := &Model{Problem: lp.Problem{
		C:   []float64{1, 1},
		A:   [][]float64{{1, 1}},
		Rel: []lp.Rel{lp.EQ},
		B:   []float64{1.5},
		U:   []float64{1, 1},
	}}
	r, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != InfeasibleProven {
		t.Fatalf("status = %v, want infeasible", r.Status)
	}
}

func TestMixedInteger(t *testing.T) {
	// x integer, y continuous: min -y s.t. y <= x + 0.5, x <= 2.3, y <= 9.
	// x integer <= 2.3 -> x=2, y=2.5.
	m := &Model{
		Problem: lp.Problem{
			C:   []float64{0, -1},
			A:   [][]float64{{-1, 1}, {1, 0}},
			Rel: []lp.Rel{lp.LE, lp.LE},
			B:   []float64{0.5, 2.3},
			U:   []float64{10, 9},
		},
		Integer: []bool{true, false},
	}
	r, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != OptimalProven || math.Abs(r.X[0]-2) > 1e-6 || math.Abs(r.X[1]-2.5) > 1e-6 {
		t.Fatalf("got %v %v, want x=2 y=2.5", r.Status, r.X)
	}
}

func TestWarmStartPrunes(t *testing.T) {
	m := &Model{Problem: lp.Problem{
		C:   []float64{-10, -13, -7},
		A:   [][]float64{{3, 4, 2}},
		Rel: []lp.Rel{lp.LE},
		B:   []float64{6},
		U:   []float64{1, 1, 1},
	}}
	cold, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Solve(m, Options{
		HasWarm: true,
		WarmObj: -20,
		WarmX:   []float64{0, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Obj != -20 || warm.Status != OptimalProven {
		t.Fatalf("warm solve lost the optimum: %v %f", warm.Status, warm.Obj)
	}
	if warm.Nodes > cold.Nodes {
		t.Errorf("warm start explored more nodes (%d) than cold (%d)", warm.Nodes, cold.Nodes)
	}
}

func TestNodeBudgetReportsBound(t *testing.T) {
	// A larger knapsack; a 1-node budget cannot prove optimality. The seed
	// is pinned: seed 3's knapsack, the original fixture, presolves and
	// strong-branches to a proof at the root.
	rng := rand.New(rand.NewSource(1))
	n := 25
	m := &Model{Problem: lp.Problem{
		C:   make([]float64, n),
		A:   [][]float64{make([]float64, n)},
		Rel: []lp.Rel{lp.LE},
		B:   []float64{25},
		U:   make([]float64, n),
	}}
	for j := 0; j < n; j++ {
		m.C[j] = -float64(1 + rng.Intn(20))
		m.A[0][j] = float64(1 + rng.Intn(10))
		m.U[j] = 1
	}
	r, err := Solve(m, Options{NodeLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status == OptimalProven {
		t.Fatal("knapsack solved at the root; the fixture no longer exercises the budget path")
	}
	if r.Status != NoSolution && r.Status != FeasibleBudget {
		t.Fatalf("status = %v", r.Status)
	}
	if r.Status == FeasibleBudget && r.BoundObj > r.Obj+1e-9 {
		t.Errorf("bound %f above incumbent %f", r.BoundObj, r.Obj)
	}
}

func TestInterruptStopsSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 40
	m := &Model{Problem: lp.Problem{
		C:   make([]float64, n),
		A:   make([][]float64, 12),
		Rel: make([]lp.Rel, 12),
		B:   make([]float64, 12),
		U:   make([]float64, n),
	}}
	for j := 0; j < n; j++ {
		m.C[j] = rng.Float64()*10 - 5
		m.U[j] = 1
	}
	for i := 0; i < 12; i++ {
		m.A[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			m.A[i][j] = rng.Float64() * 3
		}
		m.Rel[i] = lp.LE
		m.B[i] = float64(n) / 3
	}
	startT := time.Now()
	deadline := startT.Add(50 * time.Millisecond)
	r, err := Solve(m, Options{Interrupt: func() bool { return time.Now().After(deadline) }})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(startT); elapsed > 3*time.Second {
		t.Errorf("interrupt not respected: ran %v", elapsed)
	}
	if r.Status == FeasibleBudget && r.BoundObj > r.Obj+1e-9 {
		t.Errorf("bound %f above incumbent %f", r.BoundObj, r.Obj)
	}
}

// exhaustive solves a pure binary program by enumeration.
func exhaustive(m *Model) (float64, []float64, bool) {
	n := len(m.C)
	best := math.Inf(1)
	var bestX []float64
	for mask := 0; mask < 1<<n; mask++ {
		x := make([]float64, n)
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				x[j] = 1
			}
		}
		ok := true
		for i, row := range m.A {
			v := 0.0
			for j := range row {
				v += row[j] * x[j]
			}
			switch m.Rel[i] {
			case lp.LE:
				ok = ok && v <= m.B[i]+1e-9
			case lp.GE:
				ok = ok && v >= m.B[i]-1e-9
			case lp.EQ:
				ok = ok && math.Abs(v-m.B[i]) <= 1e-9
			}
		}
		if !ok {
			continue
		}
		obj := 0.0
		for j := 0; j < n; j++ {
			obj += m.C[j] * x[j]
		}
		if obj < best {
			best = obj
			bestX = x
		}
	}
	return best, bestX, bestX != nil
}

func TestAgainstExhaustiveEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		n := 3 + rng.Intn(8) // up to 10 binaries -> 1024 points
		rows := 1 + rng.Intn(4)
		m := &Model{Problem: lp.Problem{
			C:   make([]float64, n),
			A:   make([][]float64, rows),
			Rel: make([]lp.Rel, rows),
			B:   make([]float64, rows),
			U:   make([]float64, n),
		}}
		for j := 0; j < n; j++ {
			m.C[j] = float64(rng.Intn(21) - 10)
			m.U[j] = 1
		}
		for i := 0; i < rows; i++ {
			m.A[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				m.A[i][j] = float64(rng.Intn(9) - 3)
			}
			switch rng.Intn(3) {
			case 0:
				m.Rel[i] = lp.LE
				m.B[i] = float64(rng.Intn(2 * n))
			case 1:
				m.Rel[i] = lp.GE
				m.B[i] = float64(-rng.Intn(n))
			default:
				m.Rel[i] = lp.LE
				m.B[i] = float64(rng.Intn(n))
			}
		}
		got, err := Solve(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, _, feasible := exhaustive(m)
		if !feasible {
			if got.Status != InfeasibleProven {
				t.Fatalf("trial %d: oracle infeasible, solver says %v", trial, got.Status)
			}
			continue
		}
		if got.Status != OptimalProven {
			t.Fatalf("trial %d: status %v on a feasible instance", trial, got.Status)
		}
		if math.Abs(got.Obj-want) > 1e-6 {
			t.Fatalf("trial %d: solver %f vs oracle %f", trial, got.Obj, want)
		}
	}
}

func TestGap(t *testing.T) {
	r := Result{Status: OptimalProven, Obj: 5, BoundObj: 5}
	if r.Gap() != 0 {
		t.Error("proven optimum must have zero gap")
	}
	r = Result{Status: FeasibleBudget, Obj: 10, BoundObj: 8}
	if g := r.Gap(); math.Abs(g-0.2) > 1e-12 {
		t.Errorf("gap = %f, want 0.2", g)
	}
}
