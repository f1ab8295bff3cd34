package core

import "fmt"

// Solver is a pluggable allocation engine over a materialized Instance. The
// paper evaluates two points of the quality-vs-speed space (the linear-time
// heuristic and the exact ILP); the seam lets experiments sweep others without
// touching the callers.
//
// Implementations must be safe for concurrent Solve calls on *distinct*
// Instances (the built-ins are: any mutable per-solve state lives in the
// Instance). The returned Solution may share the Instance's scratch — it is
// invalidated by the next solve or At on the same Instance; Clone it to
// keep it.
type Solver interface {
	// Name identifies the solver in flags and Solution.Method.
	Name() string
	// Solve allocates clustered FBB on the materialized instance.
	Solve(inst *Instance) (*Solution, error)
}

// SolverNames lists the built-in solvers NewNamedSolver accepts, sorted.
func SolverNames() []string { return []string{"heuristic", "ilp", "local", "race"} }

// NewNamedSolver returns a fresh built-in solver by name, with ilpOpts as
// the exact budget of "ilp" and of the exact member of "race" (WarmStart is
// overridden by both).
func NewNamedSolver(name string, ilpOpts ILPOptions) (Solver, error) {
	switch name {
	case "heuristic":
		return HeuristicSolver{}, nil
	case "ilp":
		return &ILPSolver{Opts: ilpOpts}, nil
	case "local":
		return &LocalSolver{}, nil
	case "race":
		return &RaceSolver{ILP: ilpOpts}, nil
	}
	return nil, fmt.Errorf("core: unknown solver %q (have %v)", name, SolverNames())
}

// HeuristicSolver is the paper's two-pass greedy allocator (Figure 5) as a
// Solver, allocation-free on a warmed Instance.
type HeuristicSolver struct{}

// Name implements Solver.
func (HeuristicSolver) Name() string { return "heuristic" }

// Solve implements Solver.
func (HeuristicSolver) Solve(inst *Instance) (*Solution, error) {
	return inst.prob.solveHeuristicScratch(&inst.heur)
}

// ILPSolver is the paper's exact allocator (equations 1-5) as a Solver. It
// first runs the two-pass heuristic on the instance and hands branch and
// bound that solution as the incumbent, so even a budget-starved solve
// returns a feasible allocation. The branch-and-bound outcome (status,
// nodes, bound) of the latest solve is published on Instance.ILPResult.
type ILPSolver struct {
	// Opts bound the exact solve; WarmStart is overridden with the
	// heuristic solution of the same instance.
	Opts ILPOptions
}

// Name implements Solver.
func (*ILPSolver) Name() string { return "ilp" }

// Solve implements Solver.
func (s *ILPSolver) Solve(inst *Instance) (*Solution, error) {
	warm, err := (HeuristicSolver{}).Solve(inst)
	if err != nil {
		// PassOne failed: no uniform bias meets timing, so the ILP is
		// infeasible too — surface the cheaper diagnosis.
		return nil, err
	}
	opts := s.Opts
	opts.WarmStart = warm
	sol, res, err := inst.prob.SolveILP(opts)
	inst.ILPResult = res
	return sol, err
}
