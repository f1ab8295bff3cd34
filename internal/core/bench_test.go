package core

import (
	"testing"

	"repro/internal/cell"
	"repro/internal/gen"
	"repro/internal/place"
	"repro/internal/sta"
)

// benchTimed generates, places and times a named benchmark.
func benchTimed(tb testing.TB, name string) (*place.Placement, *sta.Timing) {
	tb.Helper()
	l := cell.Default()
	d, err := gen.Build(name, l)
	if err != nil {
		tb.Fatal(err)
	}
	pl, err := place.Place(d, l, place.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tm, err := nominalTiming(pl)
	if err != nil {
		tb.Fatal(err)
	}
	return pl, tm
}

var benchAllocNames = []string{"c5315", "c6288", "industrial1"}

// BenchmarkBuildProblemSolve is the seed per-solve allocation path, kept as
// the reference: a full buildProblem construction plus a heuristic solve
// for every (beta, C) point.
func BenchmarkBuildProblemSolve(b *testing.B) {
	for _, name := range benchAllocNames {
		b.Run(name, func(b *testing.B) {
			pl, tm := benchTimed(b, name)
			opts := Options{Beta: 0.05, MaxClusters: 3}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := buildProblem(pl, tm, opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := p.solveHeuristic(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAllocatorSolveAt is the batched path: shared Allocator, reused
// Instance, scratch-buffer heuristic — the engine variation.TuneOn and the
// experiment grids run on. Repeat solves must stay at 0 allocs/op.
func BenchmarkAllocatorSolveAt(b *testing.B) {
	for _, name := range benchAllocNames {
		b.Run(name, func(b *testing.B) {
			pl, tm := benchTimed(b, name)
			al, err := NewAllocator(pl, tm)
			if err != nil {
				b.Fatal(err)
			}
			opts := Options{Beta: 0.05, MaxClusters: 3}
			_, inst, err := al.SolveAt(opts, nil, nil) // warm the buffers
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := al.SolveAt(opts, nil, inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAllocatorMaterialize isolates problem materialization (no
// solve), the direct counterpart of buildProblem.
func BenchmarkAllocatorMaterialize(b *testing.B) {
	pl, tm := benchTimed(b, "c5315")
	al, err := NewAllocator(pl, tm)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Beta: 0.05, MaxClusters: 3}
	inst, err := al.At(opts, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := al.At(opts, inst); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAllocatorAtAllocFree is the allocation budget of materialization on
// the design-time grid (beta 3/5/8/10% x C 2/3/4 on c5315 and industrial1):
// after one warm pass, a reused Instance materializes every point with zero
// allocations. It pins the arena sizing from pass 1's violating classes.
func TestAllocatorAtAllocFree(t *testing.T) {
	var als []*Allocator
	for _, name := range []string{"c5315", "industrial1"} {
		pl, tm := benchTimed(t, name)
		al, err := NewAllocator(pl, tm)
		if err != nil {
			t.Fatal(err)
		}
		als = append(als, al)
	}
	var inst *Instance
	grid := func() {
		for _, al := range als {
			for _, beta := range []float64{0.03, 0.05, 0.08, 0.10} {
				for c := 2; c <= 4; c++ {
					var err error
					if inst, err = al.At(Options{Beta: beta, MaxClusters: c}, inst); err != nil {
						t.Fatal(err)
					}
					if inst.Prob.NumConstraints() == 0 {
						t.Fatalf("beta %g C %d: no constraints to materialize", beta, c)
					}
				}
			}
		}
	}
	grid()
	if n := testing.AllocsPerRun(5, grid); n != 0 {
		t.Errorf("At over the design grid: %v allocs per pass, want 0", n)
	}
}

// BenchmarkLocalSolver tracks the portfolio solver's cost on the paper's
// in-text design.
func BenchmarkLocalSolver(b *testing.B) {
	pl, tm := benchTimed(b, "c5315")
	al, err := NewAllocator(pl, tm)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := al.At(Options{Beta: 0.05, MaxClusters: 3}, nil)
	if err != nil {
		b.Fatal(err)
	}
	ls := &LocalSolver{Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Solve(ls); err != nil {
			b.Fatal(err)
		}
	}
}
