package lp

import (
	"math"
	"math/rand"
	"testing"
)

// fuzzBytes feeds a fuzz input to the LP builder, yielding zeros once the
// input runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next(k int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % k
	*b = (*b)[1:]
	return v
}

// resolveCase decodes a small LP with <=, >= and = rows, finite lower
// bounds and finite or infinite upper bounds (so the parent may be
// unbounded), and a child: the same LP after 1-3 bound tightenings, each
// a quarter point of the variable's current interval (of [L, L+4] when U
// is infinite). Data are halves and quarters, so vertex coordinates are
// exact enough for the brute-force oracle.
func resolveCase(in []byte) (parent, child *Problem) {
	b := fuzzBytes(in)
	n := 1 + b.next(4)
	m := 1 + b.next(4)
	p := &Problem{
		C:   make([]float64, n),
		A:   make([][]float64, m),
		Rel: make([]Rel, m),
		B:   make([]float64, m),
		L:   make([]float64, n),
		U:   make([]float64, n),
	}
	for j := 0; j < n; j++ {
		p.L[j] = float64(b.next(3) - 1)
		if w := b.next(6); w < 5 {
			p.U[j] = p.L[j] + float64(1+w)
		} else {
			p.U[j] = math.Inf(1)
		}
		p.C[j] = float64(b.next(13) - 6)
	}
	for i := 0; i < m; i++ {
		p.Rel[i] = Rel(b.next(3))
		p.A[i] = make([]float64, n)
		for j := range p.A[i] {
			p.A[i][j] = float64(b.next(7) - 3)
		}
		p.B[i] = float64(b.next(25)-12) / 2
	}
	c := *p
	c.L = append([]float64(nil), p.L...)
	c.U = append([]float64(nil), p.U...)
	for k := 1 + b.next(3); k > 0; k-- {
		j := b.next(n)
		span := c.U[j] - c.L[j]
		if math.IsInf(span, 1) {
			span = 4
		}
		v := c.L[j] + span*float64(b.next(5))/4
		if b.next(2) == 0 {
			c.U[j] = v
		} else {
			c.L[j] = v
		}
	}
	return p, &c
}

func sameObj(a, b float64) bool {
	return math.Abs(a-b) <= 1e-7*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkResolve solves parent cold and re-solves child from its basis, and
// holds the warm result to the cold one and to the vertex oracle. It
// reports whether the warm path ran (no fallback). A child of a bounded
// parent is bounded, so the oracle's best vertex is its optimum.
func checkResolve(t *testing.T, parent, child *Problem) bool {
	t.Helper()
	pr := solveOK(t, parent)
	if pr.Status != Optimal {
		return false
	}
	child.Start = pr.Basis
	if err := child.Validate(); err != nil {
		t.Fatal(err)
	}
	warm, ok := resolve(child)
	child.Start = nil
	cold := solveOK(t, child)
	if !ok {
		return false
	}
	if warm.Status != cold.Status {
		t.Fatalf("warm %v, cold %v", warm.Status, cold.Status)
	}
	want, found := bruteForce(child)
	if found != (cold.Status == Optimal) {
		t.Fatalf("oracle found=%v, cold %v", found, cold.Status)
	}
	if warm.Status != Optimal {
		return true
	}
	if !sameObj(warm.Obj, cold.Obj) {
		t.Fatalf("warm obj %.12g, cold %.12g", warm.Obj, cold.Obj)
	}
	if math.Abs(warm.Obj-want) > 1e-6 {
		t.Fatalf("warm obj %.12g, oracle %.12g", warm.Obj, want)
	}
	checkFeasible(t, child, warm.X)
	// The returned basis is optimal for the child: re-solving from it
	// must take the warm path back to the same objective.
	child.Start = warm.Basis
	again, ok := resolve(child)
	child.Start = nil
	if !ok || again.Status != Optimal || !sameObj(again.Obj, warm.Obj) {
		t.Fatalf("re-solve from the optimal basis: ok=%v %v obj %.12g, want %.12g", ok, again.Status, again.Obj, warm.Obj)
	}
	return true
}

// geSignFlip is min x s.t. x >= 1, x in [0,3], re-solved under x >= 2.25:
// the shifted rhs of the >= row turns negative. Without negating >= rows,
// the logical's column is -e_i and the warm path reports Infeasible.
var geSignFlip = []byte{0, 0, 1, 2, 7, 1, 4, 14, 0, 0, 3, 1}

func TestResolveGESignFlip(t *testing.T) {
	parent, child := resolveCase(geSignFlip)
	if parent.Rel[0] != GE || child.L[0] != 2.25 {
		t.Fatalf("fixture drifted: rel %v, L %v", parent.Rel[0], child.L)
	}
	if !checkResolve(t, parent, child) {
		t.Fatal("warm path fell back on the >= sign-flip case")
	}
}

// TestResolveTakesWarmPath pins that the fallback is the exception: after
// random bound tightenings of bounded LPs the parent's basis stays dual
// feasible, so nearly every re-solve runs the dual simplex, and its
// answers match the cold solve.
func TestResolveTakesWarmPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tried, warm := 0, 0
	for trial := 0; trial < 400; trial++ {
		in := make([]byte, 64)
		rng.Read(in)
		parent, child := resolveCase(in)
		if solveOK(t, parent).Status != Optimal {
			continue
		}
		tried++
		if checkResolve(t, parent, child) {
			warm++
		}
	}
	if tried < 100 || warm < tried*9/10 {
		t.Fatalf("warm path ran on %d of %d re-solves", warm, tried)
	}
}

func FuzzLPResolve(f *testing.F) {
	f.Add(geSignFlip)
	f.Add([]byte{3, 3, 1, 3, 0, 1, 3, 2, 1, 3, 12, 0, 2, 1, 2, 4, 5, 6, 3, 1, 0, 2, 4, 6, 1, 2, 9, 2, 3, 2, 1, 0, 2, 3, 1, 0, 4})
	f.Add([]byte{1, 2, 0, 1, 1, 1, 0, 1, 2, 5, 5, 20, 2, 5, 5, 12, 0, 0, 4, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		parent, child := resolveCase(in)
		checkResolve(t, parent, child)
	})
}

// TestResolveDivesMatchCold dives random sparse LPs with real-valued data,
// mixed <=/>=/= rows and bounded variables, fixing one fractional-valued
// variable to a bound per level the way branch and bound does, and holds
// every warm re-solve from the parent's basis to a cold solve.
func TestResolveDivesMatchCold(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	lps := 0
	for trial := 0; trial < 16; trial++ {
		n, m := 60, 40
		p := &Problem{
			C:   make([]float64, n),
			A:   make([][]float64, m),
			Rel: make([]Rel, m),
			B:   make([]float64, m),
			L:   make([]float64, n),
			U:   make([]float64, n),
		}
		x0 := make([]float64, n)
		for j := 0; j < n; j++ {
			p.C[j] = rng.Float64()*4 - 2
			p.U[j] = 1 + float64(rng.Intn(3))
			x0[j] = rng.Float64() * p.U[j]
		}
		for i := 0; i < m; i++ {
			p.A[i] = make([]float64, n)
			for k := 0; k < 6; k++ {
				p.A[i][rng.Intn(n)] = rng.Float64()*2 - 1
			}
			v := 0.0
			for j := range x0 {
				v += p.A[i][j] * x0[j]
			}
			p.Rel[i] = Rel(rng.Intn(3))
			switch p.Rel[i] {
			case LE:
				p.B[i] = v + rng.Float64()
			case GE:
				p.B[i] = v - rng.Float64()
			default:
				p.B[i] = v
			}
		}
		parent := solveOK(t, p)
		for level := 0; parent.Status == Optimal && level < 30; level++ {
			var frac []int
			for j, x := range parent.X {
				if math.Abs(x-math.Round(x)) > 1e-6 {
					frac = append(frac, j)
				}
			}
			if len(frac) == 0 {
				break
			}
			j := frac[rng.Intn(len(frac))]
			if rng.Intn(2) == 0 {
				p.U[j] = math.Floor(parent.X[j])
			} else {
				p.L[j] = math.Ceil(parent.X[j])
			}
			p.Start = parent.Basis
			warm, ok := resolve(p)
			p.Start = nil
			cold := solveOK(t, p)
			if !ok {
				t.Fatalf("trial %d level %d: warm path fell back", trial, level)
			}
			lps++
			if warm.Status != cold.Status {
				t.Fatalf("trial %d level %d: warm %v, cold %v", trial, level, warm.Status, cold.Status)
			}
			if warm.Status == Optimal {
				if !sameObj(warm.Obj, cold.Obj) {
					t.Fatalf("trial %d level %d: warm obj %.12g, cold %.12g", trial, level, warm.Obj, cold.Obj)
				}
				checkFeasible(t, p, warm.X)
			}
			parent = warm
		}
	}
	if lps < 100 {
		t.Fatalf("dives re-solved only %d LPs", lps)
	}
	t.Logf("%d warm re-solves matched cold", lps)
}
