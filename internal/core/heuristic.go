package core

import (
	"errors"
	"fmt"
	"sort"
)

// heurScratch holds every buffer the two-pass heuristic (and the single-BB
// baseline) needs, so repeated solves on one Instance allocate nothing. The
// zero value is valid: buffers grow on first use and are reused afterwards.
// All content is rewritten by each solve; only capacity carries over.
type heurScratch struct {
	assign    []int
	ct        []float64
	order     []int
	sigma     []float64
	levelSeen []bool
	levels    []int
	rows      []int
	sorter    ctSorter
	sol       Solution
	solSingle Solution
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// passOneInto is the paper's PASSONE (Figure 5): assign every row to level
// j for increasing j and check timing. It returns jopt, the lowest uniform
// level meeting timing, with assign (len N) left uniformly at jopt: the
// block-level "single BB" baseline of Table 1 and the starting point of
// PassTwo.
func (p *Problem) passOneInto(assign []int) (int, error) {
	for j := 0; j < p.P; j++ {
		for i := range assign {
			assign[i] = j
		}
		if p.CheckTiming(assign) {
			return j, nil
		}
	}
	return 0, fmt.Errorf("core: no uniform bias meets timing at beta=%.1f%% "+
		"(design slowed beyond the FBB compensation range)", p.Beta*100)
}

// singleBBScratch returns the block-level single-voltage baseline (all rows
// at jopt) on reusable buffers. The returned Solution is s.solSingle — a
// slot separate from the heuristic's, so a baseline and one later heuristic
// solve may coexist — and is invalidated by the next singleBBScratch call
// on the same scratch.
func (p *Problem) singleBBScratch(s *heurScratch) (*Solution, error) {
	s.assign = growInts(s.assign, p.N)
	if _, err := p.passOneInto(s.assign); err != nil {
		return nil, err
	}
	s.levelSeen = growBools(s.levelSeen, p.P)
	if err := p.fillSolution(&s.solSingle, s.levelSeen, s.assign, "single-bb", true); err != nil {
		return nil, err
	}
	return &s.solSingle, nil
}

// RowCriticality returns the paper's timing-criticality coefficient per row:
// ct_i = sum over paths k of Q_ik / slack_k, where Q_ik counts the path's
// cells in row i and the slack is taken under the degraded timing (floored
// at one picosecond so violating paths dominate the ranking).
func (p *Problem) RowCriticality() []float64 {
	return p.rowCriticalityInto(make([]float64, p.N))
}

func (p *Problem) rowCriticalityInto(ct []float64) []float64 {
	const minSlackPS = 1.0
	for i := range ct {
		ct[i] = 0
	}
	for _, path := range p.Tm.Paths {
		slack := p.Tm.DcritPS - path.DelayPS*(1+p.Beta)
		if slack < minSlackPS {
			slack = minSlackPS
		}
		w := 1 / slack
		for _, g := range path.Gates {
			ct[p.Pl.RowOf[g]] += w
		}
	}
	return ct
}

// ctSorter stable-sorts a row order by ascending criticality without the
// closure and reflection allocations of sort.SliceStable (a stable sort's
// output is fully determined by the keys, so swapping the sort
// implementation cannot change the result).
type ctSorter struct {
	order []int
	key   []float64
}

func (s *ctSorter) Len() int           { return len(s.order) }
func (s *ctSorter) Less(a, b int) bool { return s.key[s.order[a]] < s.key[s.order[b]] }
func (s *ctSorter) Swap(a, b int)      { s.order[a], s.order[b] = s.order[b], s.order[a] }

// timingState evaluates constraints incrementally as rows move between
// levels, making each heuristic step O(paths touching the row) instead of
// O(all constraints).
type timingState struct {
	p        *Problem
	assign   []int
	sigma    []float64
	violated int
}

// initTimingState readies st over assign using sigma (len = constraints) as
// the accumulator buffer.
func (p *Problem) initTimingState(st *timingState, assign []int, sigma []float64) {
	st.p = p
	st.assign = assign
	st.sigma = sigma
	st.violated = 0
	for k := range p.Constraints {
		c := &p.Constraints[k]
		st.sigma[k] = 0
		for _, rc := range c.Rows {
			st.sigma[k] += rc.DeltaPS[assign[rc.Row]]
		}
		if st.sigma[k] < c.ReqPS-feasTolPS {
			st.violated++
		}
	}
}

// move reassigns one row and updates the violation count.
func (st *timingState) move(row, to int) {
	from := st.assign[row]
	if from == to {
		return
	}
	st.assign[row] = to
	for _, ref := range st.p.rowCons(row) {
		c := &st.p.Constraints[ref.k]
		rc := &c.Rows[ref.pos]
		before := st.sigma[ref.k]
		after := before - rc.DeltaPS[from] + rc.DeltaPS[to]
		st.sigma[ref.k] = after
		wasOK := before >= c.ReqPS-feasTolPS
		isOK := after >= c.ReqPS-feasTolPS
		switch {
		case wasOK && !isOK:
			st.violated++
		case !wasOK && isOK:
			st.violated--
		}
	}
}

func (st *timingState) feasible() bool { return st.violated == 0 }

// solveHeuristicScratch is the two-pass greedy allocator (the paper's
// Figure 5), running entirely on s's reusable buffers. The returned Solution
// is s.sol, invalidated by the next solve on the same scratch.
//
// PassTwo interpretation (the published pseudocode reuses indices
// ambiguously): rows are sorted by increasing timing criticality; starting
// with every row at jopt, rows are dropped one at a time to the next lower
// level. The first row whose drop violates timing is reverted, and all rows
// still at the upper level are locked as one cluster. After C-1 lock events
// the remaining rows may only move as a single block (so no new cluster can
// appear). The walk continues level by level until no-body-bias is reached.
// Complexity is O(P*N) row moves, each with an incremental timing check, so
// the runtime is linear in the rows, as the paper claims.
func (p *Problem) solveHeuristicScratch(s *heurScratch) (*Solution, error) {
	var st timingState
	jopt, err := p.greedyWalk(s, &st)
	if err != nil {
		return nil, err
	}
	if jopt > 0 {
		p.reconcilePairs(&st, s.assign, s)
		p.refineDown(&st, s.assign, s)
	}
	if err := p.fillSolution(&s.sol, s.levelSeen, s.assign, "heuristic", false); err != nil {
		return nil, err
	}
	return &s.sol, nil
}

// greedyWalk runs PassOne and the PassTwo level walk on s's buffers, leaving
// the walked assignment in s.assign and its incremental timing in st, ready
// for the post-passes. jopt == 0 means there is nothing to compensate:
// s.assign is uniformly NBB (a single cluster) and st is left unset.
func (p *Problem) greedyWalk(s *heurScratch, st *timingState) (int, error) {
	s.assign = growInts(s.assign, p.N)
	s.levelSeen = growBools(s.levelSeen, p.P)
	jopt, err := p.passOneInto(s.assign)
	if err != nil || jopt == 0 {
		return jopt, err
	}

	// Rank rows by increasing criticality (least critical dropped first).
	s.ct = growFloats(s.ct, p.N)
	ct := p.rowCriticalityInto(s.ct)
	s.order = growInts(s.order, p.N)
	order := s.order
	for i := range order {
		order[i] = i
	}
	s.sorter.order, s.sorter.key = order, ct
	sort.Stable(&s.sorter)

	s.sigma = growFloats(s.sigma, len(p.Constraints))
	p.initTimingState(st, s.assign, s.sigma)
	if !st.feasible() {
		return 0, errors.New("core: PassOne solution fails incremental check")
	}
	p.walkDown(st, order, jopt)
	if !st.feasible() {
		return 0, errors.New("core: heuristic produced an infeasible assignment")
	}
	return jopt, nil
}

// walkDown is the PassTwo level walk: rows are dropped in `order` (least
// critical first) one level at a time; the first failing drop per level is
// reverted and locks the remaining rows as a cluster. It truncates order in
// place (the unlocked suffix shrinks as clusters lock).
func (p *Problem) walkDown(st *timingState, order []int, jopt int) {
	unlocked := order
	lockEvents := 0
	for level := jopt; level >= 1 && len(unlocked) > 0; level-- {
		if lockEvents >= p.MaxClusters-1 {
			// Only whole-block moves are allowed now: any split
			// would create a cluster beyond C.
			for _, r := range unlocked {
				st.move(r, level-1)
			}
			if !st.feasible() {
				for _, r := range unlocked {
					st.move(r, level)
				}
				break
			}
			continue
		}
		cut := len(unlocked)
		for idx, r := range unlocked {
			st.move(r, level-1)
			if !st.feasible() {
				st.move(r, level)
				// Rows idx.. are more critical; lock them at
				// this level as one cluster.
				lockEvents++
				cut = idx
				break
			}
		}
		unlocked = unlocked[:cut]
	}
}

// refineDown is a cleanup sweep after the greedy walk: every row retries the
// lowest level already in use that keeps timing feasible. Lowering a row
// strictly reduces leakage, can only remove clusters (levels may empty, none
// appear), and tends to collapse isolated biased rows, which also trims the
// layout's well-separation boundaries. Two sweeps suffice in practice; the
// loop stops at the first sweep with no improvement.
func (p *Problem) refineDown(st *timingState, assign []int, s *heurScratch) {
	s.levelSeen = growBools(s.levelSeen, p.P)
	for sweep := 0; sweep < 4; sweep++ {
		levels := p.levelsInUse(assign, s)
		improved := false
		for r := 0; r < p.N; r++ {
			for _, j := range levels {
				if j >= assign[r] {
					break
				}
				from := assign[r]
				st.move(r, j)
				if st.feasible() {
					improved = true
					break
				}
				st.move(r, from)
			}
		}
		if !improved {
			return
		}
	}
}

// levelsInUse collects the distinct levels of assign, ascending, into s's
// reusable buffers.
func (p *Problem) levelsInUse(assign []int, s *heurScratch) []int {
	s.levelSeen = growBools(s.levelSeen, p.P)
	seen := s.levelSeen
	for j := range seen {
		seen[j] = false
	}
	for _, j := range assign {
		seen[j] = true
	}
	s.levels = s.levels[:0]
	for j := 0; j < p.P; j++ {
		if seen[j] {
			s.levels = append(s.levels, j)
		}
	}
	return s.levels
}

// reconcilePairs enforces the routing cap of section 3.3: at most
// MaxBiasPairs distinct non-NBB levels. When the greedy walk strands an
// extra cluster above NBB, its rows are dropped to NBB if timing allows and
// otherwise promoted to the next higher level in use — always feasible,
// since more bias only adds slack.
func (p *Problem) reconcilePairs(st *timingState, assign []int, s *heurScratch) {
	for {
		levels := p.levelsInUse(assign, s)
		pairs := len(levels)
		if pairs > 0 && levels[0] == 0 {
			pairs--
		}
		if pairs <= p.MaxBiasPairs {
			return
		}
		lowest := levels[0]
		if lowest == 0 {
			lowest = levels[1]
		}
		next := 0
		for _, j := range levels {
			if j > lowest {
				next = j
				break
			}
		}
		// Row by row: drop to NBB when timing allows (free), otherwise
		// promote to the next level in use (small extra leakage).
		s.rows = s.rows[:0]
		for row, j := range assign {
			if j == lowest {
				s.rows = append(s.rows, row)
			}
		}
		for _, r := range s.rows {
			st.move(r, 0)
			if !st.feasible() {
				st.move(r, next)
			}
		}
	}
}
