package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/ilp"
	"repro/internal/netlist"
	"repro/internal/serve"
	"repro/internal/tech"
	"repro/internal/variation"
)

// The verifier recomputes every response the run received from the
// library's public entry points — repro.RunWith(...).Summarize,
// repro.Table1CellOn, variation.TuneOn and variation.YieldStream — with the
// server's defaults, and compares it with the response as the client
// decoded it, both encoded by encoding/json. A response that differs in any
// field is a mismatch.

// defaultGuardbandPct is fbbd's sensor headroom for die tunes and yields.
const defaultGuardbandPct = 0.005

// refEnv holds the library state the references are computed on: one
// prefix per design, built exactly as a replica builds it.
type refEnv struct {
	w     *workload
	lib   *cell.Library
	proc  *tech.Process
	model variation.Model

	mu   sync.Mutex
	pfx  map[int]*flow.Prefix
	once map[int]*sync.Once
}

func newRefEnv(w *workload) *refEnv {
	return &refEnv{w: w, lib: cell.Default(), proc: tech.Default45nm(), model: variation.Default(),
		pfx: map[int]*flow.Prefix{}, once: map[int]*sync.Once{}}
}

// parse resolves a design to its netlist the way fbbd does.
func (e *refEnv) parse(d int) (*netlist.Design, error) {
	ds := e.w.designs[d]
	if ds.builtin {
		return gen.Build(ds.name, e.lib)
	}
	return netlist.ParseBench(strings.NewReader(ds.text), ds.name, e.lib)
}

func (e *refEnv) prefix(d int) (*flow.Prefix, error) {
	e.mu.Lock()
	o, ok := e.once[d]
	if !ok {
		o = &sync.Once{}
		e.once[d] = o
	}
	e.mu.Unlock()
	var err error
	o.Do(func() {
		var nd *netlist.Design
		if nd, err = e.parse(d); err != nil {
			return
		}
		var p *flow.Prefix
		if p, err = flow.PrefixFor(nd, e.lib, 0); err != nil {
			return
		}
		e.mu.Lock()
		e.pfx[d] = p
		e.mu.Unlock()
	})
	e.mu.Lock()
	defer e.mu.Unlock()
	if p := e.pfx[d]; p != nil {
		return p, nil
	}
	if err == nil {
		err = fmt.Errorf("prefix of design %d failed earlier", d)
	}
	return nil, err
}

// reference is one key's expected response and the library time it took.
type reference struct {
	digest [32]byte
	took   time.Duration
	// resolve is the time of the design resolution fbbd repeats on every
	// request and took leaves out: parsing an upload and computing its
	// serve.DesignKey (a built-in's netlist is memoized; only its key is
	// recomputed).
	resolve time.Duration
	// proven is false when an exact tune did not prove optimality.
	proven bool
	// ilp carries an exact tune's diagnostics.
	ilp *serve.ILPDiag
}

// compute runs the library call behind key k and encodes its result the way
// the client-side decode re-encodes a response.
func (e *refEnv) compute(k int) (reference, error) {
	spec := e.w.keys[k]
	pfx, err := e.prefix(spec.design)
	if err != nil {
		return reference{}, err
	}
	ref := reference{proven: true}
	start := time.Now()
	nd := pfx.Design
	if !e.w.designs[spec.design].builtin {
		if nd, err = e.parse(spec.design); err != nil {
			return reference{}, err
		}
	}
	_ = serve.DesignKey(nd, 0)
	ref.resolve = time.Since(start)

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	start = time.Now()
	switch spec.kind {
	case kindTune:
		q := spec.tune
		res, err := repro.RunWith(pfx, repro.Config{
			Beta: q.Beta, MaxClusters: q.MaxClusters, MaxBiasPairs: q.MaxBiasPairs,
			Solver: q.Solver, SkipLayout: true,
		})
		if err != nil {
			return reference{}, err
		}
		ref.ilp = ilpDiag(res)
		if q.Solver == "ilp" {
			ref.proven = ref.ilp != nil && ref.ilp.Proven
		}
		err = enc.Encode(serve.TuneResponse{Summary: res.Summarize(), ILP: ref.ilp})
		if err != nil {
			return reference{}, err
		}
	case kindDie:
		q := spec.tune
		opts, err := tuneOptions(q.Solver, q.MaxClusters, q.MaxBiasPairs, q.Die.GuardbandPct, q.Die.MaxIters, pfx)
		if err != nil {
			return reference{}, err
		}
		tn := variation.NewTuner(variation.NewRetimer(pfx.Analyzer), pfx.Allocator)
		die := e.model.Sample(pfx.Placement, e.proc, q.Die.Seed)
		tr, err := variation.TuneOn(tn, pfx.Timing, die, e.proc, opts)
		if err != nil {
			return reference{}, err
		}
		err = enc.Encode(serve.TuneResponse{Die: dieResult(0, q.Die.Seed, tr, pfx.Placement.Lib.Grid)})
		if err != nil {
			return reference{}, err
		}
	case kindYield:
		q := spec.yield
		opts, err := tuneOptions(q.Solver, q.MaxClusters, q.MaxBiasPairs, q.GuardbandPct, q.MaxIters, pfx)
		if err != nil {
			return reference{}, err
		}
		opts.Workers = q.Workers
		grid := pfx.Placement.Lib.Grid
		st, err := variation.YieldStream(context.Background(), pfx.Analyzer, pfx.Allocator, pfx.Timing,
			e.proc, e.model, q.Dies, q.Seed, opts,
			func(die int, tr *variation.TuneResult) error {
				return enc.Encode(dieResult(die, variation.DieSeed(q.Seed, die), tr, grid))
			})
		if err != nil {
			return reference{}, err
		}
		if err := enc.Encode(serve.YieldFooter{Stats: yieldStatsJSON(st)}); err != nil {
			return reference{}, err
		}
	case kindTable1:
		q := spec.table1
		opts := repro.Table1Options{ILPNodeLimit: q.ILPNodeLimit, ILPGateLimit: q.ILPGateLimit, Solver: q.Solver}
		var rows []repro.Table1Row
		for _, name := range q.Benchmarks {
			for _, beta := range q.Betas {
				rows = append(rows, repro.Table1CellOn(pfx, name, beta, opts))
			}
		}
		if err := enc.Encode(serve.Table1Response{Rows: rows}); err != nil {
			return reference{}, err
		}
	}
	ref.took = time.Since(start)
	ref.digest = sha256.Sum256(buf.Bytes())
	return ref, nil
}

// tuneOptions mirrors fbbd's die-tuning options for one request.
func tuneOptions(solver string, c, pairs int, guard float64, iters int, pfx *flow.Prefix) (variation.TuneOptions, error) {
	sv, err := repro.NamedSolver(solver, core.ILPOptions{})
	if err != nil {
		return variation.TuneOptions{}, err
	}
	if guard == 0 {
		guard = defaultGuardbandPct
	}
	return variation.TuneOptions{
		GuardbandPct: guard, MaxClusters: c, MaxBiasPairs: pairs, MaxIters: iters,
		Solver: sv, SolveCache: pfx.Solves,
	}, nil
}

// computeAll computes the references of keys on workers goroutines. Die
// tunes and yields first all run once untimed, so their timed references
// see a prefix SolveCache that holds their own solves, as a replica's does
// once it has served them.
func (e *refEnv) computeAll(keys []int, workers int) (map[int]reference, error) {
	for _, k := range keys {
		if kind := e.w.keys[k].kind; kind == kindDie || kind == kindYield {
			if _, err := e.compute(k); err != nil {
				return nil, fmt.Errorf("reference for key %d: %w", k, err)
			}
		}
	}
	out := make(map[int]reference, len(keys))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	next := make(chan int)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				ref, err := e.compute(k)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference for key %d: %w", k, err)
				}
				out[k] = ref
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	return out, firstErr
}

// The converters below mirror fbbd's unexported wire conversions; the
// verifier compares their output with what the server sent.

func ilpDiag(res *repro.Result) *serve.ILPDiag {
	ir := res.ILPResult
	if ir == nil {
		return nil
	}
	return &serve.ILPDiag{
		Status:              ir.Status.String(),
		Proven:              ir.Status == ilp.OptimalProven,
		Nodes:               ir.Nodes,
		StrongLPs:           ir.StrongLPs,
		GapPct:              ir.Gap() * 100,
		Branching:           ir.Branching,
		PresolveFixedVars:   ir.PresolveFixedVars,
		PresolveDroppedRows: ir.PresolveDroppedRows,
		PresolveTightened:   ir.PresolveTightened,
		RaceWinner:          res.RaceWinner,
	}
}

func solutionJSON(sol *core.Solution, grid tech.BiasGrid) *serve.SolutionJSON {
	if sol == nil {
		return nil
	}
	maxLevel := 0
	for _, j := range sol.Assign {
		maxLevel = max(maxLevel, j)
	}
	seen := make([]bool, maxLevel+1)
	for _, j := range sol.Assign {
		seen[j] = true
	}
	var vbs []float64
	for j, ok := range seen {
		if ok {
			vbs = append(vbs, grid.Voltage(j))
		}
	}
	return &serve.SolutionJSON{
		Method: sol.Method, Clusters: sol.Clusters, TotalLeakNW: sol.TotalLeakNW,
		ExtraLeakNW: sol.ExtraLeakNW, VbsLevels: vbs, Assign: sol.Assign,
	}
}

func dieResult(die int, seed int64, r *variation.TuneResult, grid tech.BiasGrid) *serve.DieResult {
	return &serve.DieResult{
		Die: die, Seed: seed, BetaActual: r.BetaActual, BetaSensed: r.BetaSensed,
		Met: r.Met, Reason: r.Reason, Iters: r.Iters,
		DcritBeforePS: r.DcritBeforePS, DcritAfterPS: r.DcritAfterPS,
		LeakBeforeNW: r.LeakBeforeNW, LeakAfterNW: r.LeakAfterNW,
		Solution: solutionJSON(r.Solution, grid),
	}
}

func yieldStatsJSON(st *variation.YieldStats) *serve.YieldStatsJSON {
	before, after := st.YieldPct()
	return &serve.YieldStatsJSON{
		Dies: st.Dies, MetBefore: st.MetBefore, MetAfter: st.MetAfter,
		YieldBeforePct: before, YieldAfterPct: after,
		MeanBetaPct: st.MeanBetaPct, WorstBetaPct: st.WorstBetaPct,
		MeanLeakBeforeNW: st.MeanLeakBeforeNW, MeanLeakAfterNW: st.MeanLeakAfterNW,
		MeanLeakTunedOnlyNW: st.MeanLeakTunedOnlyNW, TunedDies: st.TunedDies,
		FailedCompensations: st.FailedCompensations, MeanTuneIters: st.MeanTuneIters,
		MeanClustersPerTuned: st.MeanClustersPerTuned,
	}
}
