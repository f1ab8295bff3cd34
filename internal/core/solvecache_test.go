package core

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/cell"
)

// TestSolveCacheMatchesDirectSolve: a cached outcome must be exactly what an
// uncached SolveAt of the same (opts, solver) returns — solution, graceful
// solveErr, and all — on both the filling call and every hit after it.
func TestSolveCacheMatchesDirectSolve(t *testing.T) {
	pl, tm := randomTimed(t, cell.Default(), 11)
	al, err := NewAllocator(pl, tm)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSolveCache(al)
	var inst, ref *Instance
	for _, beta := range []float64{0.02, 0.05, 0.02, 0.08, 0.05} {
		opts := Options{Beta: beta, MaxClusters: 3, MaxBiasPairs: 2}
		wantSol, refInst, wantErr := al.SolveAt(opts, nil, ref)
		ref = refInst
		if wantErr != nil {
			t.Fatalf("beta %v: reference solve failed: %v", beta, wantErr)
		}
		sol, gotInst, solveErr, err := c.Solve(opts, nil, inst)
		inst = gotInst
		if err != nil || solveErr != nil {
			t.Fatalf("beta %v: cache solve failed: %v / %v", beta, err, solveErr)
		}
		requireSolutionsEqual(t, wantSol, sol, "cached vs direct")
	}
	if c.Len() != 3 {
		t.Fatalf("cache holds %d entries after 3 distinct targets, want 3", c.Len())
	}
	if c.Allocator() != al {
		t.Fatal("Allocator accessor does not return the cached engine")
	}
}

// TestSolveCacheCachesGracefulFailure: the beyond-compensation-range outcome
// is deterministic and must be cached like a solution — a second call with
// the same impossible target returns the same solveErr without re-solving.
func TestSolveCacheCachesGracefulFailure(t *testing.T) {
	pl, tm := randomTimed(t, cell.Default(), 11)
	al, err := NewAllocator(pl, tm)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSolveCache(al)
	opts := Options{Beta: 0.99, MaxClusters: 3, MaxBiasPairs: 2}
	sol, inst, solveErr, err := c.Solve(opts, nil, nil)
	if err != nil {
		t.Fatalf("structural error for an in-range materialization: %v", err)
	}
	if solveErr == nil || sol != nil {
		t.Fatal("beta 0.99 is compensable on this fixture; the test needs a target beyond the FBB range")
	}
	if c.Len() != 1 {
		t.Fatalf("graceful failure not cached: Len = %d", c.Len())
	}
	sol2, _, solveErr2, err := c.Solve(opts, nil, inst)
	if err != nil || sol2 != nil {
		t.Fatalf("cached failure replay: sol=%v err=%v", sol2, err)
	}
	if solveErr2 == nil || solveErr2.Error() != solveErr.Error() {
		t.Fatalf("cached solveErr %v, want %v", solveErr2, solveErr)
	}
}

// TestSolveCacheCoalesces: N goroutines missing on one key must all return
// the same shared Solution value (one materialize-and-solve, not N).
func TestSolveCacheCoalesces(t *testing.T) {
	pl, tm := randomTimed(t, cell.Default(), 11)
	al, err := NewAllocator(pl, tm)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSolveCache(al)
	opts := Options{Beta: 0.04, MaxClusters: 3, MaxBiasPairs: 2}
	const n = 8
	sols := make([]*Solution, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sol, _, solveErr, err := c.Solve(opts, nil, nil)
			if err != nil || solveErr != nil {
				t.Errorf("goroutine %d: %v / %v", i, err, solveErr)
				return
			}
			sols[i] = sol
		}(i)
	}
	wg.Wait()
	if c.Len() != 1 {
		t.Fatalf("%d entries for one key, want 1", c.Len())
	}
	for i := 1; i < n; i++ {
		if sols[i] != sols[0] {
			t.Fatalf("goroutine %d got a distinct Solution pointer: coalescing failed", i)
		}
	}
}

// TestSolveCacheKeysPointerSolversByConfig: callers build a fresh *ILPSolver
// (or *LocalSolver, *RaceSolver) per request, so the cache must key on the
// configuration, not the pointer. Otherwise every request adds an entry no
// later request can hit, and once the cache is full every request on the
// design bypasses it, default-solver requests included.
func TestSolveCacheKeysPointerSolversByConfig(t *testing.T) {
	pl, tm := randomTimed(t, cell.Default(), 11)
	al, err := NewAllocator(pl, tm)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Beta: 0.04, MaxClusters: 3, MaxBiasPairs: 2}
	c := NewSolveCache(al)
	var inst *Instance
	var first *Solution
	for i := 0; i < 300; i++ {
		sol, got, solveErr, err := c.Solve(opts, &ILPSolver{Opts: ILPOptions{NodeLimit: 200}}, inst)
		inst = got
		if err != nil || solveErr != nil {
			t.Fatalf("call %d: %v / %v", i, err, solveErr)
		}
		if first == nil {
			first = sol
		} else if sol != first {
			t.Fatalf("call %d re-solved an identically configured ILP", i)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("300 identically configured ILP solvers left %d entries, want 1", c.Len())
	}
	if _, _, _, err := c.Solve(opts, &ILPSolver{Opts: ILPOptions{NodeLimit: 201}}, inst); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("a different ILP budget shared an entry: Len = %d, want 2", c.Len())
	}
	heur, _, _, err := c.Solve(opts, nil, inst)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("default-solver request not inserted: Len = %d, want 3", c.Len())
	}
	if again, _, _, _ := c.Solve(opts, nil, inst); again != heur {
		t.Fatal("default-solver request missed its own entry")
	}
	for _, mk := range []func() Solver{
		func() Solver { return &LocalSolver{} },
		func() Solver { return &RaceSolver{ILP: ILPOptions{NodeLimit: 200}} },
	} {
		before := c.Len()
		for i := 0; i < 3; i++ {
			if _, _, _, err := c.Solve(opts, mk(), inst); err != nil {
				t.Fatal(err)
			}
		}
		if c.Len() != before+1 {
			t.Fatalf("three identically configured %s solvers added %d entries, want 1",
				mk().Name(), c.Len()-before)
		}
	}
}

// uncomparableSolver has a non-comparable dynamic type (slice field), so it
// cannot be a map key; the cache must bypass it rather than panic.
type uncomparableSolver struct {
	pad []int
}

func (uncomparableSolver) Name() string { return "uncomparable" }
func (uncomparableSolver) Solve(inst *Instance) (*Solution, error) {
	return HeuristicSolver{}.Solve(inst)
}

// TestSolveCacheBypassesUncacheable: an uncacheable solver solves correctly
// without inserting, and a bogus target still reports a structural error.
func TestSolveCacheBypassesUncacheable(t *testing.T) {
	pl, tm := randomTimed(t, cell.Default(), 11)
	al, err := NewAllocator(pl, tm)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSolveCache(al)
	opts := Options{Beta: 0.04, MaxClusters: 3, MaxBiasPairs: 2}
	want, _, werr := al.SolveAt(opts, nil, nil)
	if werr != nil {
		t.Fatal(werr)
	}
	sol, _, solveErr, err := c.Solve(opts, uncomparableSolver{pad: []int{1}}, nil)
	if err != nil || solveErr != nil {
		t.Fatalf("bypass solve failed: %v / %v", err, solveErr)
	}
	requireSolutionsEqual(t, want, sol, "bypassed vs direct")
	if c.Len() != 0 {
		t.Fatalf("uncacheable solver inserted %d entries", c.Len())
	}
	if _, _, _, err := c.Solve(Options{Beta: -1}, nil, nil); err == nil ||
		!strings.Contains(err.Error(), "beta") {
		t.Fatalf("invalid options not rejected: %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("invalid options inserted %d entries", c.Len())
	}
}

// TestSolveCacheBounded: insertion stops at maxSolveCache; later distinct
// keys still solve correctly through the bypass.
func TestSolveCacheBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("filling the cache is a -short skip")
	}
	pl, tm := randomTimed(t, cell.Default(), 11)
	al, err := NewAllocator(pl, tm)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSolveCache(al)
	var inst *Instance
	for i := 0; i < maxSolveCache+16; i++ {
		opts := Options{Beta: 0.01 + 1e-5*float64(i), MaxClusters: 3, MaxBiasPairs: 2}
		_, got, _, err := c.Solve(opts, nil, inst)
		inst = got
		if err != nil {
			t.Fatal(err)
		}
		if c.Len() > maxSolveCache {
			t.Fatalf("cache grew to %d entries, cap is %d", c.Len(), maxSolveCache)
		}
	}
	if c.Len() != maxSolveCache {
		t.Fatalf("cache holds %d entries, want the cap %d", c.Len(), maxSolveCache)
	}
}
