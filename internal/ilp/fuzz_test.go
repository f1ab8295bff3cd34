package ilp

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/ilp/ilptest"
	"repro/internal/lp"
)

// certify holds a proven-optimal result to the un-presolved model.
func certify(t *testing.T, m *Model, r Result) {
	t.Helper()
	if r.Status != OptimalProven {
		return
	}
	if err := ilptest.CheckProven(&m.Problem, m.Integer, r.X, r.Obj, r.BoundObj); err != nil {
		t.Fatal(err)
	}
}

// fuzzBytes feeds a fuzz input to the model builder, yielding zeros once
// the input runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next(k int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % k
	*b = (*b)[1:]
	return v
}

// binaryCase decodes a pure binary program of up to 8 variables and 4
// rows (<=, >= or =, small integer data, so ties and infeasible models
// are common) and a node budget for a truncated run.
func binaryCase(in []byte) (*Model, int) {
	b := fuzzBytes(in)
	n := 1 + b.next(8)
	rows := 1 + b.next(4)
	m := &Model{Problem: lp.Problem{
		C:   make([]float64, n),
		A:   make([][]float64, rows),
		Rel: make([]lp.Rel, rows),
		B:   make([]float64, rows),
		U:   make([]float64, n),
	}}
	for j := 0; j < n; j++ {
		m.C[j] = float64(b.next(21) - 10)
		m.U[j] = 1
	}
	for i := 0; i < rows; i++ {
		m.Rel[i] = lp.Rel(b.next(3))
		m.A[i] = make([]float64, n)
		for j := range m.A[i] {
			m.A[i][j] = float64(b.next(9) - 4)
		}
		m.B[i] = float64(b.next(2*n+1) - n)
	}
	return m, 1 + b.next(8)
}

// checkBinary solves m at Workers 1 and 2 and holds the results to each
// other, to the exhaustive oracle and to the certificate; then it runs a
// NodeLimit-truncated search at Workers 1, 2 and 8 and holds those to
// each other and to what a budgeted result may claim.
func checkBinary(t *testing.T, m *Model, limit int) {
	t.Helper()
	r1, err := Solve(m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Solve(m, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("workers=2 diverged from workers=1:\n%+v\nvs\n%+v", r1, r2)
	}
	want, _, feasible := exhaustive(m)
	switch {
	case !feasible:
		if r1.Status != InfeasibleProven || r1.X != nil {
			t.Fatalf("oracle infeasible, solver %v x=%v", r1.Status, r1.X)
		}
	case r1.Status != OptimalProven:
		t.Fatalf("status %v on a feasible model", r1.Status)
	case math.Abs(r1.Obj-want) > 1e-6:
		t.Fatalf("solver %g vs oracle %g", r1.Obj, want)
	}
	certify(t, m, r1)

	var base Result
	for wi, w := range []int{1, 2, 8} {
		got, err := Solve(m, Options{NodeLimit: limit, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if wi == 0 {
			base = got
			continue
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("limit=%d: workers=%d diverged from workers=1:\n%+v\nvs\n%+v", limit, w, base, got)
		}
	}
	switch base.Status {
	case OptimalProven:
		certify(t, m, base)
		if math.Abs(base.Obj-r1.Obj) > 1e-6 {
			t.Fatalf("limit=%d proved %g, full search %g", limit, base.Obj, r1.Obj)
		}
	case InfeasibleProven:
		if feasible {
			t.Fatalf("limit=%d proved a feasible model infeasible", limit)
		}
	case FeasibleBudget:
		if base.BoundObj > want+1e-6 || base.Obj < want-1e-6 {
			t.Fatalf("limit=%d: bound %g / incumbent %g do not bracket the optimum %g", limit, base.BoundObj, base.Obj, want)
		}
	case NoSolution:
		if base.X != nil || !math.IsInf(base.Obj, 1) {
			t.Fatalf("limit=%d: no-solution result carries an incumbent %v (%g)", limit, base.X, base.Obj)
		}
		if feasible && base.BoundObj > want+1e-6 {
			t.Fatalf("limit=%d: bound %g above the optimum %g", limit, base.BoundObj, want)
		}
	default:
		t.Fatalf("limit=%d: status %v on a bounded binary model", limit, base.Status)
	}
}

// Seeds: 2(x1+x2+x3) = 3 — a feasible relaxation whose every integer
// point violates the row, so each leaf is infeasible and no node returns
// a point; min -(x1+x2) with x1+x2 <= 1, a tie between two optima; and an
// all-zero input.
var (
	parityInfeasible = []byte{2, 0, 10, 10, 10, 2, 6, 6, 6, 6}
	tiedOptima       = []byte{1, 0, 9, 9, 0, 5, 5, 3, 3}
)

func FuzzILP(f *testing.F) {
	f.Add(parityInfeasible)
	f.Add(tiedOptima)
	f.Add([]byte{})
	f.Add([]byte{7, 3, 1, 15, 2, 19, 4, 0, 20, 8, 1, 6, 2, 3, 5, 7, 8, 0, 1, 2, 9, 2, 5, 5, 5, 5, 5, 5, 5, 5, 10, 0, 3, 8, 0, 4, 1, 7, 2, 6, 11, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		m, limit := binaryCase(in)
		checkBinary(t, m, limit)
	})
}

// TestGoMILPRegressions replays the failure modes GoMILP's regression
// suite pins, on this engine: a search that never finds an integer point
// (GoMILP recursed forever), a tree whose every node is infeasible (a nil
// node result panicked there), and a budget that expires before any
// incumbent (its deadline case); plus an unbounded relaxation. Each must
// end under its node budget with an honest status, identically at any
// worker count.
func TestGoMILPRegressions(t *testing.T) {
	parity, _ := binaryCase(parityInfeasible)
	recursion := &Model{Problem: lp.Problem{
		// GoMILP's infinite-recursion model: general integers in
		// [0, +Inf), an equality with irrational-looking coefficients.
		C: []float64{1.7356332566545616, -0.2058339272568599, -1.051665297603944},
		A: [][]float64{
			{-0.7762132098737671, 1.42027949678888, -0.3304567624749696},
			{-0.6775235462631393, -1.9616379110849085, 1.9859192819811322},
		},
		Rel: []lp.Rel{lp.EQ, lp.LE},
		B:   []float64{-0.24703471683023603, -0.041138108068992485},
	}}
	// min -x0 s.t. x0 - x1 <= 1 over the non-negative integers.
	unbounded := &Model{Problem: lp.Problem{
		C:   []float64{-1, 0},
		A:   [][]float64{{1, -1}},
		Rel: []lp.Rel{lp.LE},
		B:   []float64{1},
	}}
	cases := []struct {
		name  string
		m     *Model
		opts  Options
		want  Status
		nodes int
	}{
		{"endless-search", recursion, Options{NodeLimit: 400}, NoSolution, 400},
		{"every-node-infeasible", parity, Options{}, InfeasibleProven, -1},
		{"budget-before-incumbent", parity, Options{NodeLimit: 1}, NoSolution, 1},
		{"interrupt-before-root", parity, Options{Interrupt: func() bool { return true }}, NoSolution, 0},
		{"unbounded-relaxation", unbounded, Options{}, RelaxUnbounded, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var base Result
			for wi, w := range []int{1, 2, 8} {
				opts := c.opts
				opts.Workers = w
				got, err := Solve(c.m, opts)
				if err != nil {
					t.Fatal(err)
				}
				if wi == 0 {
					base = got
					continue
				}
				if !reflect.DeepEqual(base, got) {
					t.Fatalf("workers=%d diverged:\n%+v\nvs\n%+v", w, base, got)
				}
			}
			if base.Status != c.want {
				t.Fatalf("status %v, want %v", base.Status, c.want)
			}
			if base.X != nil || !math.IsInf(base.Obj, 1) {
				t.Fatalf("incumbent %v (%g) on a model without one", base.X, base.Obj)
			}
			if c.nodes >= 0 && base.Nodes != c.nodes || c.nodes < 0 && base.Nodes < 2 {
				t.Fatalf("nodes = %d, want %d (-1: a tree below the root)", base.Nodes, c.nodes)
			}
		})
	}
}
