// Package ilptest certifies exact-solver claims for tests. CheckProven
// holds a proven-optimal result to the original, un-presolved model, so a
// presolve, postsolve or branch-and-bound bug that returns a wrong point
// or an inconsistent bound fails the test that produced it. It is a test
// helper: production code does not import it.
package ilptest

import (
	"fmt"
	"math"

	"repro/internal/lp"
)

// Tol is the absolute feasibility and objective tolerance, scaled up by
// the magnitude of the quantity checked.
const Tol = 1e-6

// CheckProven certifies a result the solver reports as proven optimal:
// x satisfies every row and bound of p and is integral where integer says
// so (nil: every variable); obj equals C·x; and bound, the proven lower
// bound, does not exceed obj. Optimality itself is the caller's oracle's
// to check.
func CheckProven(p *lp.Problem, integer []bool, x []float64, obj, bound float64) error {
	n := len(p.C)
	if len(x) != n {
		return fmt.Errorf("ilptest: x has %d entries, model has %d variables", len(x), n)
	}
	for i, row := range p.A {
		v, mag := 0.0, math.Abs(p.B[i])
		for j, a := range row {
			v += a * x[j]
			mag += math.Abs(a * x[j])
		}
		tol := Tol * math.Max(1, mag)
		ok := true
		switch p.Rel[i] {
		case lp.LE:
			ok = v <= p.B[i]+tol
		case lp.GE:
			ok = v >= p.B[i]-tol
		case lp.EQ:
			ok = math.Abs(v-p.B[i]) <= tol
		}
		if !ok {
			return fmt.Errorf("ilptest: row %d: activity %.12g violates %v %.12g", i, v, relName(p.Rel[i]), p.B[i])
		}
	}
	obj2 := 0.0
	for j, xj := range x {
		lo, hi := 0.0, math.Inf(1)
		if p.L != nil {
			lo = p.L[j]
		}
		if p.U != nil {
			hi = p.U[j]
		}
		if xj < lo-Tol*math.Max(1, math.Abs(lo)) || xj > hi+Tol*math.Max(1, math.Abs(hi)) {
			return fmt.Errorf("ilptest: x[%d] = %.12g outside [%g, %g]", j, xj, lo, hi)
		}
		if (integer == nil || integer[j]) && math.Abs(xj-math.Round(xj)) > Tol {
			return fmt.Errorf("ilptest: integer x[%d] = %.12g", j, xj)
		}
		obj2 += p.C[j] * xj
	}
	scale := math.Max(1, math.Abs(obj))
	if math.Abs(obj-obj2) > Tol*scale {
		return fmt.Errorf("ilptest: reported objective %.12g, C·x = %.12g", obj, obj2)
	}
	if bound > obj+Tol*scale {
		return fmt.Errorf("ilptest: proven bound %.12g above the objective %.12g", bound, obj)
	}
	return nil
}

func relName(r lp.Rel) string {
	switch r {
	case lp.LE:
		return "<="
	case lp.GE:
		return ">="
	}
	return "="
}
