// Package lp is a dense linear-programming solver: a two-phase primal
// simplex with bounded variables and Bland anti-cycling, plus a bounded
// dual simplex that re-optimizes from a given basis after bound changes.
// It plays the role of lp_solve in the paper's flow, as the relaxation
// engine under the branch-and-bound ILP solver: the root relaxation is
// solved cold, and every node and strong-branching probe re-optimizes from
// its parent's optimal basis (Problem.Start), which differs from the
// child's LP by one bound.
//
// Problems are stated as
//
//	minimize    C.x
//	subject to  A x (<=|>=|=) B,   L <= x <= U
//
// Variable bounds are handled implicitly by the simplex (nonbasic variables
// may sit at either bound), which keeps the tableau at the constraint count
// rather than adding a row per bound — essential for the FBB instances whose
// x_ij variables are all bounded binaries in the relaxation.
package lp

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Rel is a constraint relation.
type Rel uint8

// Constraint relations.
const (
	LE Rel = iota // <=
	GE            // >=
	EQ            // =
)

// Status reports the outcome of a solve.
type Status uint8

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return "unknown"
}

// Problem is an LP instance. L and U may be nil (defaults: 0 and +Inf).
type Problem struct {
	C   []float64
	A   [][]float64
	Rel []Rel
	B   []float64
	L   []float64
	U   []float64
	// Start, when non-nil, is the basis to re-optimize from — typically
	// Result.Basis of the same rows under looser bounds. Solve then runs
	// the dual simplex from it, and falls back to the cold two-phase
	// solve when the basis is singular or not dual feasible for this
	// problem. nil means a cold solve.
	Start *Basis
}

// Basis is a simplex basis in row-logical form. It names columns of
// [A | I]: a structural j < n, or n+i for the logical of row i (its slack
// for <=, surplus for >=, a [0,0] logical for =). Unlike the cold
// tableau's slack/artificial layout, which depends on the sign of b - A·L,
// this form stays meaningful when bounds change.
type Basis struct {
	// Basic holds the m basic columns, one per row, in any order.
	Basic []int
	// AtUpper marks the structurals that are nonbasic at their upper bound.
	AtUpper []bool
}

// Result is a solved LP.
type Result struct {
	Status Status
	// X is the optimal point (valid when Status == Optimal).
	X []float64
	// Obj is C.X.
	Obj float64
	// Iters counts pivots: both simplex phases of a cold solve; for a
	// warm solve, the pivots that install the start basis plus the dual
	// and primal simplex pivots (and those of any cold fallback).
	Iters int
	// Basis is an optimal basis (valid when Status == Optimal), for use as
	// a later Problem.Start.
	Basis *Basis
}

const (
	tolPivot = 1e-9
	tolCost  = 1e-9
	tolFeas  = 1e-7
	// tolDual bounds the wrong-sign reduced cost a start basis may carry
	// and still count as dual feasible; the primal clean-up removes it.
	tolDual = 1e-7
)

// Validate checks dimensional consistency.
func (p *Problem) Validate() error {
	n := len(p.C)
	if len(p.A) != len(p.B) || len(p.A) != len(p.Rel) {
		return fmt.Errorf("lp: %d rows, %d rhs, %d relations", len(p.A), len(p.B), len(p.Rel))
	}
	for i, row := range p.A {
		if len(row) != n {
			return fmt.Errorf("lp: row %d has %d coefficients, want %d", i, len(row), n)
		}
	}
	if p.L != nil && len(p.L) != n {
		return fmt.Errorf("lp: L length %d, want %d", len(p.L), n)
	}
	if p.U != nil && len(p.U) != n {
		return fmt.Errorf("lp: U length %d, want %d", len(p.U), n)
	}
	for j := 0; j < n; j++ {
		if p.lower(j) > p.upper(j)+tolFeas {
			return fmt.Errorf("lp: variable %d has empty bound interval [%g, %g]", j, p.lower(j), p.upper(j))
		}
	}
	if st := p.Start; st != nil {
		if len(st.Basic) != len(p.A) || len(st.AtUpper) != n {
			return fmt.Errorf("lp: start basis has %d basics and %d bound flags, want %d and %d",
				len(st.Basic), len(st.AtUpper), len(p.A), n)
		}
		for _, c := range st.Basic {
			if c < 0 || c >= n+len(p.A) {
				return fmt.Errorf("lp: start basis column %d out of range", c)
			}
		}
	}
	return nil
}

func (p *Problem) lower(j int) float64 {
	if p.L == nil {
		return 0
	}
	return p.L[j]
}

func (p *Problem) upper(j int) float64 {
	if p.U == nil {
		return math.Inf(1)
	}
	return p.U[j]
}

type varStatus uint8

const (
	atLower varStatus = iota
	atUpper
	isBasic
)

// simplex holds the working state. All variables are shifted so their lower
// bound is zero. A cold tableau's columns are [structural | slacks |
// artificials]; a warm one's are [structural | one logical per row].
type simplex struct {
	m, n    int // rows, structural count
	nCols   int
	T       [][]float64 // m x nCols tableau (B^-1 A)
	xB      []float64   // basic variable values
	basis   []int       // basic column per row
	rowOf   []int       // row of each non-structural column c, at rowOf[c-n]
	slab    []float64   // a warm tableau's backing array (from slabs)
	stat    []varStatus
	ub      []float64 // shifted upper bounds per column
	d       []float64 // reduced costs
	cost    []float64 // phase cost vector
	act     []int     // columns with ub > 0, ascending (see rebuildActive)
	nz      []int     // per-pivot scratch: active nonzeros of the pivot row
	objVal  float64
	artBase int
	iters   int
	bland   bool
	stall   int
}

// Solve optimizes the problem: from p.Start when it is usable, else cold.
func Solve(p *Problem) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	n := len(p.C)
	m := len(p.A)

	// Trivial case: no constraints — each variable goes to its cheap bound.
	if m == 0 {
		x := make([]float64, n)
		bs := &Basis{AtUpper: make([]bool, n)}
		obj := 0.0
		for j := 0; j < n; j++ {
			switch {
			case p.C[j] > 0:
				x[j] = p.lower(j)
			case p.C[j] < 0:
				if math.IsInf(p.upper(j), 1) {
					return Result{Status: Unbounded}, nil
				}
				x[j] = p.upper(j)
				bs.AtUpper[j] = true
			default:
				x[j] = p.lower(j)
			}
			obj += p.C[j] * x[j]
		}
		return Result{Status: Optimal, X: x, Obj: obj, Basis: bs}, nil
	}

	spent := 0
	if p.Start != nil {
		r, ok := resolve(p)
		if ok {
			return r, nil
		}
		spent = r.Iters
	}
	r, err := solveCold(p)
	r.Iters += spent
	return r, err
}

// solveCold runs the two-phase primal simplex from the slack/artificial
// basis.
func solveCold(p *Problem) (Result, error) {
	s, err := newSimplex(p)
	if err != nil {
		return Result{}, err
	}
	m := s.m

	// Phase 1: minimize the artificial sum.
	if s.artBase < s.nCols {
		s.setPhase1Cost()
		st := s.run(maxIters(m, s.nCols))
		if st == IterLimit {
			return Result{Status: IterLimit, Iters: s.iters}, nil
		}
		if s.objVal > tolFeas {
			return Result{Status: Infeasible, Iters: s.iters}, nil
		}
		// Freeze artificials at zero so phase 2 cannot reuse them.
		for j := s.artBase; j < s.nCols; j++ {
			s.ub[j] = 0
		}
	}

	// Phase 2: the real objective.
	s.setPhase2Cost(p)
	st := s.run(maxIters(m, s.nCols))
	if st != Optimal {
		return Result{Status: st, Iters: s.iters}, nil
	}
	return s.result(p), nil
}

// resolve re-optimizes from p.Start: it installs the basis in a tableau
// with one logical per row and, if the basis is dual feasible, runs the
// bounded dual simplex to primal feasibility and a primal clean-up. ok is
// false when the basis is singular or not dual feasible (or a simplex
// limit is hit); the caller then solves cold. r.Iters reports the pivots
// spent either way. The outcome is a pure function of the problem.
func resolve(p *Problem) (r Result, ok bool) {
	s := newWarm(p)
	slab := s.slab
	defer slabs.Put(&slab)
	if !s.install(p.Start) {
		return Result{Iters: s.iters}, false
	}
	s.setPhase2Cost(p)
	if !s.dualFeasible() {
		return Result{Iters: s.iters}, false
	}
	limit := maxIters(s.m, s.nCols)
	switch s.dual(limit) {
	case Infeasible:
		return Result{Status: Infeasible, Iters: s.iters}, true
	case Optimal:
	default:
		return Result{Iters: s.iters}, false
	}
	if s.run(limit) != Optimal {
		return Result{Iters: s.iters}, false
	}
	return s.result(p), true
}

// result recovers the solution in original coordinates and the optimal
// basis in row-logical form.
func (s *simplex) result(p *Problem) Result {
	n := s.n
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		x[j] = p.lower(j) + s.value(j)
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.C[j] * x[j]
	}
	bs := &Basis{Basic: make([]int, s.m), AtUpper: make([]bool, n)}
	for i, c := range s.basis {
		if c >= n {
			// A cold solve's slack or (zero-level) artificial of row r
			// is a multiple of e_r: either stands for row r's logical.
			c = n + s.rowOf[c-n]
		}
		bs.Basic[i] = c
	}
	for j := 0; j < n; j++ {
		bs.AtUpper[j] = s.stat[j] == atUpper
	}
	return Result{Status: Optimal, X: x, Obj: obj, Iters: s.iters, Basis: bs}
}

func maxIters(m, n int) int { return 200*(m+n) + 20000 }

// newSimplex builds the initial tableau: slack basis where possible,
// artificial variables for >= and = rows.
func newSimplex(p *Problem) (*simplex, error) {
	n := len(p.C)
	m := len(p.A)

	// Shift x by L and normalize rows to b >= 0.
	type rowSpec struct {
		a   []float64
		b   float64
		rel Rel
	}
	rows := make([]rowSpec, m)
	for i := 0; i < m; i++ {
		a := make([]float64, n)
		copy(a, p.A[i])
		b := p.B[i]
		for j := 0; j < n; j++ {
			l := p.lower(j)
			if l != 0 {
				b -= a[j] * l
			}
		}
		rel := p.Rel[i]
		if b < 0 {
			for j := range a {
				a[j] = -a[j]
			}
			b = -b
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		rows[i] = rowSpec{a: a, b: b, rel: rel}
	}

	nSlack := 0
	nArt := 0
	for _, r := range rows {
		if r.rel != EQ {
			nSlack++
		}
		if r.rel != LE {
			nArt++
		}
	}
	nCols := n + nSlack + nArt
	s := &simplex{
		m:       m,
		n:       n,
		nCols:   nCols,
		T:       make([][]float64, m),
		xB:      make([]float64, m),
		basis:   make([]int, m),
		stat:    make([]varStatus, nCols),
		ub:      make([]float64, nCols),
		d:       make([]float64, nCols),
		cost:    make([]float64, nCols),
		rowOf:   make([]int, nCols-n),
		artBase: n + nSlack,
	}
	for j := 0; j < n; j++ {
		s.ub[j] = p.upper(j) - p.lower(j)
		if s.ub[j] < 0 {
			return nil, errors.New("lp: inconsistent bounds")
		}
	}
	for j := n; j < nCols; j++ {
		s.ub[j] = math.Inf(1)
	}

	slack := n
	art := s.artBase
	for i, r := range rows {
		t := make([]float64, nCols)
		copy(t, r.a)
		switch r.rel {
		case LE:
			t[slack] = 1
			s.basis[i] = slack
			s.rowOf[slack-n] = i
			slack++
		case GE:
			t[slack] = -1
			s.rowOf[slack-n] = i
			slack++
			t[art] = 1
			s.basis[i] = art
			s.rowOf[art-n] = i
			art++
		case EQ:
			t[art] = 1
			s.basis[i] = art
			s.rowOf[art-n] = i
			art++
		}
		s.T[i] = t
		s.xB[i] = r.b
	}
	for i := range s.basis {
		s.stat[s.basis[i]] = isBasic
	}
	return s, nil
}

// newWarm builds the tableau of a warm solve: one logical per row — a
// slack for <=, a surplus for >=, a [0,0] logical for = — with >= rows
// negated so that every logical column is +e_i and the all-logical basis
// is the identity. x is shifted by L, so a row's basic value starts at its
// shifted rhs, whatever its sign.
func newWarm(p *Problem) *simplex {
	n := len(p.C)
	m := len(p.A)
	nCols := n + m
	s := &simplex{
		m:       m,
		n:       n,
		nCols:   nCols,
		T:       make([][]float64, m),
		xB:      make([]float64, m),
		basis:   make([]int, m),
		rowOf:   make([]int, m),
		stat:    make([]varStatus, nCols),
		ub:      make([]float64, nCols),
		d:       make([]float64, nCols),
		cost:    make([]float64, nCols),
		artBase: nCols,
	}
	lo := make([]float64, n)
	for j := 0; j < n; j++ {
		lo[j] = p.lower(j)
		s.ub[j] = p.upper(j) - lo[j]
	}
	s.slab = getSlab(m * nCols)
	for i := 0; i < m; i++ {
		t := s.slab[i*nCols : (i+1)*nCols : (i+1)*nCols]
		copy(t, p.A[i])
		clear(t[n:])
		b := p.B[i]
		for j, l := range lo {
			if l != 0 {
				b -= t[j] * l
			}
		}
		if p.Rel[i] == GE {
			for j := 0; j < n; j++ {
				t[j] = -t[j]
			}
			b = -b
		}
		t[n+i] = 1
		if p.Rel[i] == EQ {
			s.ub[n+i] = 0
		} else {
			s.ub[n+i] = math.Inf(1)
		}
		s.T[i] = t
		s.xB[i] = b
		s.basis[i] = n + i
		s.rowOf[i] = i
		s.stat[n+i] = isBasic
	}
	return s
}

// slabs recycles warm tableaux (*[]float64): a branch-and-bound search
// re-solves thousands of same-shaped LPs, and the tableau is the one large
// allocation of each. Every reuse overwrites the whole tableau.
var slabs sync.Pool

func getSlab(k int) []float64 {
	if b, ok := slabs.Get().(*[]float64); ok && cap(*b) >= k {
		return (*b)[:k]
	}
	return make([]float64, k)
}

// install pivots the start basis into the all-logical tableau, structurals
// in ascending column order, each into the row of a leaving logical with
// the largest pivot magnitude (partial pivoting). It then places the
// nonbasic structurals flagged AtUpper at their upper bounds. It reports
// false when the basis is singular here.
func (s *simplex) install(st *Basis) bool {
	target := make([]bool, s.nCols)
	for _, c := range st.Basic {
		if target[c] {
			return false // a repeated column
		}
		target[c] = true
	}
	// Only live columns and the structurals still to enter are read again.
	s.act = s.act[:0]
	for j := 0; j < s.nCols; j++ {
		if s.ub[j] > 0 || target[j] {
			s.act = append(s.act, j)
		}
	}
	for q := 0; q < s.n; q++ {
		if !target[q] {
			continue
		}
		r, best := -1, tolPivot
		for i := 0; i < s.m; i++ {
			if target[s.basis[i]] {
				continue
			}
			if a := math.Abs(s.T[i][q]); a > best {
				r, best = i, a
			}
		}
		if r < 0 {
			return false
		}
		xr := s.xB[r] / s.T[r][q]
		for i := 0; i < s.m; i++ {
			if i != r {
				s.xB[i] -= s.T[i][q] * xr
			}
		}
		s.xB[r] = xr
		s.stat[s.basis[r]] = atLower
		s.stat[q] = isBasic
		s.basis[r] = q
		s.pivot(r, q)
		s.iters++
	}
	for j := 0; j < s.n; j++ {
		if s.stat[j] == isBasic || !st.AtUpper[j] || math.IsInf(s.ub[j], 1) {
			continue
		}
		s.stat[j] = atUpper
		if u := s.ub[j]; u != 0 {
			for i := 0; i < s.m; i++ {
				s.xB[i] -= s.T[i][j] * u
			}
		}
	}
	return true
}

// dualFeasible reports whether every live nonbasic column's reduced cost
// has the sign of optimality for the bound it sits at.
func (s *simplex) dualFeasible() bool {
	for _, j := range s.act {
		switch s.stat[j] {
		case atLower:
			if s.d[j] < -tolDual {
				return false
			}
		case atUpper:
			if s.d[j] > tolDual {
				return false
			}
		}
	}
	return true
}

// dual runs the bounded dual simplex from a dual-feasible basis until the
// basic values are within their bounds (Optimal), a row proves the
// problem infeasible (Infeasible), or the limit hits (IterLimit). The
// leaving row is the most infeasible one; the entering column passes a
// Harris two-pass ratio test and, among near-ties, has the largest pivot.
func (s *simplex) dual(limit int) Status {
	for iter := 0; iter < limit; iter++ {
		r, worst, target, sgn := -1, tolFeas, 0.0, 0.0
		for i := 0; i < s.m; i++ {
			x := s.xB[i]
			if v := -x; v > worst {
				r, worst, target, sgn = i, v, 0, 1
			}
			if u := s.ub[s.basis[i]]; x-u > worst {
				r, worst, target, sgn = i, x-u, u, -1
			}
		}
		if r < 0 {
			return Optimal
		}
		// Row r must rise to its lower bound (sgn +1) or fall to its
		// upper bound (sgn -1). A nonbasic at its lower bound helps when
		// it can increase, i.e. sgn*T[r][j] < 0; one at its upper bound
		// when sgn*T[r][j] > 0.
		row := s.T[r]
		bound := math.Inf(1)
		for _, j := range s.act {
			a, dj, ok := s.dualCand(j, sgn*row[j])
			if ok {
				if t := (dj + tolCost) / a; t < bound {
					bound = t
				}
			}
		}
		if math.IsInf(bound, 1) {
			return Infeasible
		}
		q, bestA := -1, 0.0
		for _, j := range s.act {
			a, dj, ok := s.dualCand(j, sgn*row[j])
			if ok && dj/a <= bound && a > bestA {
				q, bestA = j, a
			}
		}

		theta := (s.xB[r] - target) / row[q]
		for i := 0; i < s.m; i++ {
			s.xB[i] -= s.T[i][q] * theta
		}
		enter := theta
		if s.stat[q] == atUpper {
			enter += s.ub[q]
		}
		out := s.basis[r]
		if sgn < 0 {
			s.stat[out] = atUpper
		} else {
			s.stat[out] = atLower
		}
		s.stat[q] = isBasic
		s.basis[r] = q
		s.xB[r] = enter
		s.pivot(r, q)
		s.iters++
	}
	return IterLimit
}

// dualCand reports whether live column j can enter against a leaving row
// whose sign-adjusted entry is y, with the pivot magnitude a and the
// column's dual slack dj (its reduced cost's distance from changing sign,
// floored at zero).
func (s *simplex) dualCand(j int, y float64) (a, dj float64, ok bool) {
	switch s.stat[j] {
	case atLower:
		if y < -tolPivot {
			return -y, math.Max(s.d[j], 0), true
		}
	case atUpper:
		if y > tolPivot {
			return y, math.Max(-s.d[j], 0), true
		}
	}
	return 0, 0, false
}

// value returns the current value of column j in shifted coordinates.
func (s *simplex) value(j int) float64 {
	switch s.stat[j] {
	case atLower:
		return 0
	case atUpper:
		return s.ub[j]
	}
	for i, bj := range s.basis {
		if bj == j {
			return s.xB[i]
		}
	}
	return 0
}

func (s *simplex) setPhase1Cost() {
	for j := range s.cost {
		s.cost[j] = 0
	}
	for j := s.artBase; j < s.nCols; j++ {
		s.cost[j] = 1
	}
	s.computeReducedCosts()
}

func (s *simplex) setPhase2Cost(p *Problem) {
	for j := range s.cost {
		s.cost[j] = 0
	}
	copy(s.cost[:s.n], p.C)
	s.computeReducedCosts()
}

// rebuildActive recollects the columns with room to move (ub > 0). A frozen
// column — a variable fixed by its bounds, or an artificial zeroed after
// phase 1 — can never be priced into the basis again, so nothing ever reads
// its tableau entries; dropping such columns from the pivot updates leaves
// them stale but shrinks every elimination to the live width. Called at each
// phase start, after any freezing, so the list is exact for the whole phase.
func (s *simplex) rebuildActive() {
	s.act = s.act[:0]
	for j := 0; j < s.nCols; j++ {
		if s.ub[j] > 0 {
			s.act = append(s.act, j)
		}
	}
}

// computeReducedCosts rebuilds d = c - c_B * T and the objective value from
// scratch (done at each phase start).
func (s *simplex) computeReducedCosts() {
	s.rebuildActive()
	for _, j := range s.act {
		s.d[j] = s.cost[j]
	}
	for i := 0; i < s.m; i++ {
		cb := s.cost[s.basis[i]]
		if cb == 0 {
			continue
		}
		row := s.T[i]
		for _, j := range s.act {
			s.d[j] -= cb * row[j]
		}
	}
	obj := 0.0
	for j := 0; j < s.nCols; j++ {
		obj += s.cost[j] * s.value(j)
	}
	s.objVal = obj
	s.bland = false
	s.stall = 0
}

// run iterates the bounded-variable simplex until optimality or a limit.
func (s *simplex) run(limit int) Status {
	for iter := 0; iter < limit; iter++ {
		q := s.price()
		if q < 0 {
			return Optimal
		}
		st := s.step(q)
		if st != Optimal {
			return st
		}
		s.iters++
	}
	return IterLimit
}

// price selects the entering column, or -1 at optimality. A nonbasic column
// improves the objective when it is at its lower bound with a negative
// reduced cost, or at its upper bound with a positive one.
func (s *simplex) price() int {
	best, bestScore := -1, tolCost
	for _, j := range s.act {
		if s.stat[j] == isBasic {
			continue
		}
		var score float64
		switch s.stat[j] {
		case atLower:
			score = -s.d[j]
		case atUpper:
			score = s.d[j]
		}
		if score <= tolCost {
			continue
		}
		if s.bland {
			return j
		}
		if score > bestScore {
			bestScore = score
			best = j
		}
	}
	return best
}

// step moves the entering variable q as far as its own bound or a basic
// variable's bound allows, then flips or pivots.
func (s *simplex) step(q int) Status {
	dir := 1.0
	if s.stat[q] == atUpper {
		dir = -1
	}

	// Ratio test: limit on the step length t >= 0.
	tMax := s.ub[q] // bound-to-bound flip distance
	leave := -1
	leaveToUpper := false
	for i := 0; i < s.m; i++ {
		y := dir * s.T[i][q]
		var lim float64
		var toUpper bool
		switch {
		case y > tolPivot:
			lim = s.xB[i] / y // basic falls to its lower bound (0)
		case y < -tolPivot:
			ubB := s.ub[s.basis[i]]
			if math.IsInf(ubB, 1) {
				continue
			}
			lim = (ubB - s.xB[i]) / (-y) // basic rises to its upper bound
			toUpper = true
		default:
			continue
		}
		if lim < 0 {
			lim = 0
		}
		if lim < tMax-tolPivot || (lim < tMax+tolPivot && leave >= 0 && s.bland && s.basis[i] < s.basis[leave]) {
			tMax = lim
			leave = i
			leaveToUpper = toUpper
		}
	}

	if math.IsInf(tMax, 1) {
		return Unbounded
	}

	// Objective change.
	delta := s.d[q] * dir * tMax
	if delta > -1e-12 {
		s.stall++
		if s.stall > 2*(s.m+s.nCols) {
			s.bland = true
		}
	} else {
		s.stall = 0
	}
	s.objVal += delta

	// Update basic values.
	for i := 0; i < s.m; i++ {
		s.xB[i] -= dir * s.T[i][q] * tMax
	}

	if leave < 0 {
		// Bound flip: q jumps to its other bound, basis unchanged.
		if s.stat[q] == atLower {
			s.stat[q] = atUpper
		} else {
			s.stat[q] = atLower
		}
		return Optimal
	}

	// Pivot: q enters the basis at its new value, basis[leave] exits.
	newVal := tMax
	if s.stat[q] == atUpper {
		newVal = s.ub[q] - tMax
	}
	out := s.basis[leave]
	if leaveToUpper {
		s.stat[out] = atUpper
	} else {
		s.stat[out] = atLower
	}
	s.stat[q] = isBasic
	s.basis[leave] = q
	s.xB[leave] = newVal
	s.pivot(leave, q)
	return Optimal
}

// pivot makes column q basic in row leave: Gaussian elimination on the
// tableau and the reduced-cost row, over the active columns only (frozen
// columns are never read again). Basic values are the caller's.
func (s *simplex) pivot(leave, q int) {
	piv := s.T[leave][q]
	row := s.T[leave]
	inv := 1 / piv
	nz := s.nz[:0] // active nonzeros of the normalized pivot row
	for _, j := range s.act {
		if row[j] == 0 {
			continue
		}
		row[j] *= inv
		nz = append(nz, j)
	}
	s.nz = nz
	for i := 0; i < s.m; i++ {
		if i == leave {
			continue
		}
		f := s.T[i][q]
		if f == 0 {
			continue
		}
		ri := s.T[i]
		for _, j := range nz {
			ri[j] -= f * row[j]
		}
		ri[q] = 0 // exact zero against round-off
	}
	f := s.d[q]
	if f != 0 {
		for _, j := range nz {
			s.d[j] -= f * row[j]
		}
		s.d[q] = 0
	}
}
