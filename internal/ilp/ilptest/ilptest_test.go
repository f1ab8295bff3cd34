package ilptest

import (
	"strings"
	"testing"

	"repro/internal/lp"
)

// TestCheckProvenRejects pins each clause of the certificate: a sound
// claim passes, and breaking any one part of it fails with that part named.
func TestCheckProvenRejects(t *testing.T) {
	// min -x0 - x1 s.t. x0 + x1 <= 1, x binary: optimum -1 at (1, 0).
	p := &lp.Problem{
		C:   []float64{-1, -1},
		A:   [][]float64{{1, 1}},
		Rel: []lp.Rel{lp.LE},
		B:   []float64{1},
		U:   []float64{1, 1},
	}
	if err := CheckProven(p, nil, []float64{1, 0}, -1, -1); err != nil {
		t.Fatalf("sound certificate rejected: %v", err)
	}
	for _, c := range []struct {
		name       string
		x          []float64
		obj, bound float64
		integer    []bool
		want       string
	}{
		{"row", []float64{1, 1}, -2, -2, nil, "row 0"},
		{"bound", []float64{-1, 1}, 0, -1, nil, "outside"},
		{"integrality", []float64{0.5, 0.5}, -1, -1, nil, "integer"},
		{"objective", []float64{1, 0}, -2, -2, nil, "C·x"},
		{"proven bound", []float64{1, 0}, -1, 0, nil, "bound"},
		{"length", []float64{1}, -1, -1, nil, "entries"},
	} {
		err := CheckProven(p, c.integer, c.x, c.obj, c.bound)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming %q", c.name, err, c.want)
		}
	}
	// A continuous variable may sit between lattice points.
	if err := CheckProven(p, []bool{false, false}, []float64{0.5, 0.5}, -1, -1); err != nil {
		t.Errorf("continuous point rejected: %v", err)
	}
}
