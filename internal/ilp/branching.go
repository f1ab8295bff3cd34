package ilp

// Branching. The search asks the pseudo-cost rule to pick a column among
// the fractional integer variables of a node relaxation; the rule may
// consult child relaxations (strong branching) through the search's worker
// pool. All rule state updates happen at deterministic commit points, so it
// makes identical decisions at any worker count.

import (
	"math"
	"sort"

	"repro/internal/lp"
)

const (
	// pcReliability: a variable's pseudo-costs are trusted once it has
	// this many observations (strong branching fills the gap before).
	pcReliability = 4
	// pcStrongCands caps strong-branching candidates per node.
	pcStrongCands = 8
	// pcStrongLPBudget caps total strong-branching LP solves per search.
	pcStrongLPBudget = 768
	// pcEps floors degradation estimates (dual degeneracy yields zeros).
	pcEps = 1e-6
	// pcMu weighs max vs min child degradation in the score.
	pcMu = 1.0 / 6.0
)

// pickResult is a branching decision. preDown/preUp carry child
// relaxations already solved during strong branching (reusable by the
// search, nil otherwise); downInfeas/upInfeas mark children proven
// infeasible, which the search then never expands.
type pickResult struct {
	col                  int
	preDown, preUp       *lp.Result
	downInfeas, upInfeas bool
}

// pseudoCost estimates per-variable objective degradation from observed
// branchings, seeded by strong branching until a variable is reliable.
type pseudoCost struct {
	down, up   []float64 // summed unit degradations per column
	nDown, nUp []int
	sumDown    float64 // global fallbacks for uninitialized columns
	sumUp      float64
	cntDown    int
	cntUp      int
}

func newPseudoCost(n int) *pseudoCost {
	return &pseudoCost{
		down:  make([]float64, n),
		up:    make([]float64, n),
		nDown: make([]int, n),
		nUp:   make([]int, n),
	}
}

// observe records the relaxation degradation of a committed child: dir is
// -1 (down) or +1 (up), frac the distance the branch moved the variable,
// parentObj/childObj the two relaxation objectives.
func (p *pseudoCost) observe(col int, dir int8, frac, parentObj, childObj float64) {
	d := childObj - parentObj
	if d < 0 {
		d = 0
	}
	unit := d / math.Max(frac, pcEps)
	if dir < 0 {
		p.down[col] += unit
		p.nDown[col]++
		p.sumDown += unit
		p.cntDown++
	} else {
		p.up[col] += unit
		p.nUp[col]++
		p.sumUp += unit
		p.cntUp++
	}
}

// unitCosts returns the per-unit degradation estimates for a column,
// falling back to the global average (then 1) when uninitialized.
func (p *pseudoCost) unitCosts(col int) (pcDown, pcUp float64) {
	switch {
	case p.nDown[col] > 0:
		pcDown = p.down[col] / float64(p.nDown[col])
	case p.cntDown > 0:
		pcDown = p.sumDown / float64(p.cntDown)
	default:
		pcDown = 1
	}
	switch {
	case p.nUp[col] > 0:
		pcUp = p.up[col] / float64(p.nUp[col])
	case p.cntUp > 0:
		pcUp = p.sumUp / float64(p.cntUp)
	default:
		pcUp = 1
	}
	return pcDown, pcUp
}

func (p *pseudoCost) pick(sr *search, nd *pnode, r *lp.Result, cands []int) pickResult {
	// Reliability initialization: strong-branch the least-known, most
	// fractional candidates while the LP budget lasts.
	var strong []int
	if sr.strongLPs < pcStrongLPBudget {
		for _, j := range cands {
			if p.nDown[j]+p.nUp[j] < pcReliability {
				strong = append(strong, j)
			}
		}
		sort.Slice(strong, func(a, b int) bool {
			fa := math.Abs(r.X[strong[a]] - math.Round(r.X[strong[a]]))
			fb := math.Abs(r.X[strong[b]] - math.Round(r.X[strong[b]]))
			if fa != fb {
				return fa > fb
			}
			return strong[a] < strong[b]
		})
		if len(strong) > pcStrongCands {
			strong = strong[:pcStrongCands]
		}
		if room := (pcStrongLPBudget - sr.strongLPs) / 2; len(strong) > room {
			strong = strong[:room]
		}
	}
	outs := sr.strongBranch(nd, strong, r)
	for i, j := range strong {
		o := &outs[i]
		f := r.X[j] - math.Floor(r.X[j])
		if o.downSolved && o.down.Status == lp.Optimal {
			p.observe(j, -1, f, r.Obj, o.down.Obj)
		}
		if o.upSolved && o.up.Status == lp.Optimal {
			p.observe(j, +1, 1-f, r.Obj, o.up.Obj)
		}
	}

	// A strong-branched candidate with an infeasible child halves the
	// tree for free: take the first such column.
	for i, j := range strong {
		o := &outs[i]
		dInf := o.downSolved && o.down.Status == lp.Infeasible
		uInf := o.upSolved && o.up.Status == lp.Infeasible
		if dInf || uInf {
			return pickResult{
				col:        j,
				preDown:    o.optResult(o.down, o.downSolved),
				preUp:      o.optResult(o.up, o.upSolved),
				downInfeas: dInf,
				upInfeas:   uInf,
			}
		}
	}

	// Score: blended min/max of the estimated child degradations.
	best, bestScore := cands[0], math.Inf(-1)
	for _, j := range cands {
		f := r.X[j] - math.Floor(r.X[j])
		pcD, pcU := p.unitCosts(j)
		qD := math.Max(pcD, pcEps) * f
		qU := math.Max(pcU, pcEps) * (1 - f)
		lo, hi := qD, qU
		if lo > hi {
			lo, hi = hi, lo
		}
		score := (1-pcMu)*lo + pcMu*hi
		if score > bestScore {
			bestScore = score
			best = j
		}
	}
	pr := pickResult{col: best}
	for i, j := range strong {
		if j == best {
			o := &outs[i]
			pr.preDown = o.optResult(o.down, o.downSolved)
			pr.preUp = o.optResult(o.up, o.upSolved)
		}
	}
	return pr
}

// strongOut is one candidate's pair of child relaxations.
type strongOut struct {
	down, up             lp.Result
	downSolved, upSolved bool
	downErr, upErr       error
}

// optResult returns a reusable pointer when the child solved to
// optimality (other statuses are not cacheable as node results).
func (o *strongOut) optResult(r lp.Result, solved bool) *lp.Result {
	if solved && r.Status == lp.Optimal {
		c := r
		return &c
	}
	return nil
}
