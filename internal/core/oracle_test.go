package core

// Test-side oracles: the straightforward one-shot forms of the production
// allocation paths. The differential suites (TestAllocatorMatchesBuildProblem,
// FuzzAllocatorSolveAt, the brute-force checks) compare the batched Allocator
// and the scratch-buffer heuristic against them.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/place"
	"repro/internal/power"
	"repro/internal/sta"
)

// buildProblem is the reference builder Allocator.At must reproduce bit for
// bit: it computes the L_ij leakage table, extracts the violating paths
// under beta, groups their cells by row into the a_ijk coefficients with
// maps and a sort, and merges duplicate constraints on a formatted "%.6f"
// signature, keeping the tightest requirement.
func buildProblem(pl *place.Placement, tm *sta.Timing, opts Options) (*Problem, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	grid := pl.Lib.Grid
	p := &Problem{
		Pl:           pl,
		Tm:           tm,
		Grid:         grid,
		Beta:         opts.Beta,
		MaxClusters:  opts.MaxClusters,
		MaxBiasPairs: opts.MaxBiasPairs,
		N:            pl.NumRows,
		P:            grid.NumLevels(),
		RowLeakNW:    power.RowLeakTable(pl),
		Involved:     make([]bool, pl.NumRows),
	}

	// Extract violating paths and their per-row reduction vectors.
	type sigEntry struct{ idx int }
	sigs := map[string]sigEntry{}
	var key strings.Builder
	for pi, path := range tm.Paths {
		req := path.DelayPS*(1+opts.Beta) - tm.DcritPS
		if req <= feasTolPS {
			continue // meets timing even degraded; prune
		}
		p.RawViolations++
		// Group the path's gates by row; delta per level is the sum of
		// the gates' degraded-delay reductions.
		perRow := map[int][]float64{}
		for _, g := range path.Gates {
			row := pl.RowOf[g]
			dv := perRow[row]
			if dv == nil {
				dv = make([]float64, p.P)
				perRow[row] = dv
			}
			c := pl.Design.Gates[g].Cell
			degraded := tm.GateDelayPS[g] * (1 + opts.Beta)
			for j := 0; j < p.P; j++ {
				dv[j] += degraded * (1 - c.DelayFactor[j])
			}
		}
		rows := make([]int, 0, len(perRow))
		for r := range perRow {
			rows = append(rows, r)
		}
		sort.Ints(rows)
		pc := PathConstraint{ReqPS: req, PathIdx: pi}
		key.Reset()
		for _, r := range rows {
			dv := perRow[r]
			pc.Rows = append(pc.Rows, RowContrib{Row: r, DeltaPS: dv})
			// The signature covers every level: constraints may only
			// merge when their whole coefficient vectors agree.
			fmt.Fprintf(&key, "%d:", r)
			for j := 1; j < p.P; j++ {
				fmt.Fprintf(&key, "%.6f,", dv[j])
			}
			key.WriteByte(';')
		}
		// Merge constraints with identical row/delta signatures: only
		// the tightest requirement binds.
		k := key.String()
		if e, ok := sigs[k]; ok {
			if req > p.Constraints[e.idx].ReqPS {
				p.Constraints[e.idx].ReqPS = req
				p.Constraints[e.idx].PathIdx = -1
			}
			continue
		}
		sigs[k] = sigEntry{idx: len(p.Constraints)}
		p.Constraints = append(p.Constraints, pc)
	}

	// Row-to-constraint index and involvement flags.
	p.rowConsStart, p.rowConsRefs = buildRowCons(p.N, p.Constraints, p.Involved, nil, nil)
	return p, nil
}

// solveHeuristic runs the two-pass heuristic on fresh scratch and returns a
// detached solution.
func (p *Problem) solveHeuristic() (*Solution, error) {
	var s heurScratch
	sol, err := p.solveHeuristicScratch(&s)
	if err != nil {
		return nil, err
	}
	return sol.Clone(), nil
}

// singleBB returns the block-level single-voltage baseline (all rows at
// jopt) as a detached solution.
func (p *Problem) singleBB() (*Solution, error) {
	var s heurScratch
	sol, err := p.singleBBScratch(&s)
	if err != nil {
		return nil, err
	}
	return sol.Clone(), nil
}

// passOne returns jopt, the lowest uniform bias level meeting timing.
func (p *Problem) passOne() (int, error) {
	return p.passOneInto(make([]int, p.N))
}

// newTimingState returns an incremental timing state over assign.
func (p *Problem) newTimingState(assign []int) *timingState {
	st := &timingState{}
	p.initTimingState(st, assign, make([]float64, len(p.Constraints)))
	return st
}
