package main

import (
	"context"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/serve"
	"repro/internal/sta"
	"repro/internal/variation"
)

// Per-layer metrics come from the traced windows of a traced run (spans), from
// /v1/stats deltas over the timed phase, and from direct replays of each
// layer's public functions on the workload's own inputs. A layer the
// workload does not exercise reports 0.

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// replayReps is how often a replay is repeated; the median is kept.
const replayReps = 3

// timeMedian runs f replayReps times and returns the median duration.
func timeMedian(f func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < replayReps; i++ {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t)))
	}
	return time.Duration(median(ds)), nil
}

// spanMetrics derives the router and server span metrics. keyOf maps a
// traced request ID to its workload key; refs give each key's direct
// library time, taken under the workload's client concurrency. The server
// overhead leaves out spans during which the replica built a prefix: the
// reference's prefix is built before its timer starts.
func spanMetrics(spans []span, keyOf map[uint64]int, refs map[int]reference) []metric {
	children := map[uint64][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var routerSelf, forward, handle, overhead []float64
	for _, s := range spans {
		switch s.Name {
		case "router.handle":
			routerSelf = append(routerSelf, ms(selfTime(s, children[s.ID])))
		case "router.forward":
			forward = append(forward, ms(s.dur()))
		case "server.handle":
			handle = append(handle, ms(s.dur()))
			if k, ok := keyOf[s.Req]; ok && !s.Built {
				if ref, ok := refs[k]; ok {
					overhead = append(overhead, ms(s.dur()-ref.resolve-ref.took))
				}
			}
		}
	}
	return []metric{
		{"router.self_ms_p50", median(routerSelf), "ms"},
		{"router.forward_ms_p50", median(forward), "ms"},
		{"server.handle_ms_p50", median(handle), "ms"},
		{"server.overhead_ms_p50", median(overhead), "ms"},
	}
}

// statsMetrics derives the router and server counter metrics from the
// /v1/stats snapshots taken around the timed phase.
func statsMetrics(before, after []*serve.StatsResponse, cb, ca *serve.ClusterStatsResponse, sent int) (out, shares []metric) {
	var hits, misses, builds, evictions, shed float64
	for i := range after {
		hits += float64(after[i].Cache.Hits - before[i].Cache.Hits)
		misses += float64(after[i].Cache.Misses - before[i].Cache.Misses)
		builds += float64(after[i].Cache.Builds - before[i].Cache.Builds)
		evictions += float64(after[i].Cache.Evictions - before[i].Cache.Evictions)
		shed += float64(after[i].Shed - before[i].Shed)
	}
	var spill, ownerMax float64
	if ca != nil {
		var fwd, spills float64
		var per []float64
		for i, r := range ca.Replicas {
			f := float64(r.Forwarded - cb.Replicas[i].Forwarded)
			fwd += f
			spills += float64(r.Spills - cb.Replicas[i].Spills)
			per = append(per, f)
		}
		spill = ratio(spills, fwd)
		for i, f := range per {
			ownerMax = max(ownerMax, ratio(f, fwd))
			shares = append(shares, metric{"router.forward_share " + ca.Replicas[i].Addr, ratio(f, fwd), "ratio"})
		}
	}
	return []metric{
		{"router.spill_ratio", spill, "ratio"},
		{"router.owner_share_max", ownerMax, "ratio"},
		{"server.shed_ratio", ratio(shed, float64(sent)), "ratio"},
		{"server.cache_hit_ratio", ratio(hits, hits+misses), "ratio"},
		{"server.prefix_builds", builds, "count"},
		{"server.evictions", evictions, "count"},
	}, shares
}

// replayCap bounds how many distinct designs the flow replays cover.
const replayCap = 12

// flowMetrics replays the prefix build — placement, nominal STA, allocator
// construction — on the workload's distinct designs and reports the mean
// per design of each stage's median time.
func flowMetrics(env *refEnv, designs []int) ([]metric, error) {
	designs = designs[:min(len(designs), replayCap)]
	var prefix, plc, nom, alloc time.Duration
	for _, d := range designs {
		nd, err := env.parse(d)
		if err != nil {
			return nil, err
		}
		t, err := timeMedian(func() error { _, err := flow.PrefixFor(nd, env.lib, 0); return err })
		if err != nil {
			return nil, err
		}
		prefix += t
		var pl *place.Placement
		t, err = timeMedian(func() error {
			var err error
			pl, err = place.Place(nd, env.lib, place.Options{})
			if err == nil {
				pl.Centers()
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		plc += t
		var tm *sta.Timing
		t, err = timeMedian(func() error {
			an, err := sta.NewAnalyzer(pl, sta.Options{})
			if err == nil {
				tm, err = an.Run(nil, nil)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		nom += t
		t, err = timeMedian(func() error { _, err := core.NewAllocator(pl, tm); return err })
		if err != nil {
			return nil, err
		}
		alloc += t
	}
	n := float64(max(len(designs), 1))
	return []metric{
		{"flow.prefix_build_ms", ms(prefix) / n, "ms"},
		{"place.place_ms", ms(plc) / n, "ms"},
		{"sta.nominal_ms", ms(nom) / n, "ms"},
		{"core.new_allocator_ms", ms(alloc) / n, "ms"},
	}, nil
}

// target is one allocation instance the workload materializes.
type target struct {
	design int
	opts   core.Options
}

// coreMetrics replays Allocator.At and the heuristic once per target: mean
// microseconds per call, on a reused Instance.
func coreMetrics(env *refEnv, targets []target) ([]metric, error) {
	if len(targets) > 256 {
		targets = targets[:256]
	}
	var at, heur time.Duration
	var inst *core.Instance
	for _, tg := range targets {
		pfx, err := env.prefix(tg.design)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		inst, err = pfx.Allocator.At(tg.opts, inst)
		if err != nil {
			return nil, err
		}
		at += time.Since(t)
		// A target beyond the compensation range fails gracefully; its
		// time still counts.
		t = time.Now()
		_, _ = (core.HeuristicSolver{}).Solve(inst)
		heur += time.Since(t)
	}
	n := float64(max(len(targets), 1))
	return []metric{
		{"core.at_us", us(at) / n, "us"},
		{"core.heuristic_us", us(heur) / n, "us"},
	}, nil
}

// countingSolver is the registered heuristic with a count of the solves
// that actually ran and the targets they ran at.
type countingSolver struct {
	core.HeuristicSolver
	n       atomic.Int64
	mu      sync.Mutex
	targets []core.Options
}

func (c *countingSolver) Solve(inst *core.Instance) (*core.Solution, error) {
	c.n.Add(1)
	c.mu.Lock()
	if len(c.targets) < 1024 {
		c.targets = append(c.targets, core.Options{
			Beta: inst.Prob.Beta, MaxClusters: inst.Prob.MaxClusters, MaxBiasPairs: inst.Prob.MaxBiasPairs,
		})
	}
	c.mu.Unlock()
	return c.HeuristicSolver.Solve(inst)
}

// dieSet is the dies one design is tuned on by the workload.
type dieSet struct {
	design int
	// stream studies: dies DieSeed(seed, 0..dies-1).
	seed int64
	dies int
}

// variationMetrics replays the population kernel's stages once per die on
// the workload's own die seeds — sampling, batched light re-time, leakage —
// and a direct YieldStream with a counting solver behind a SolveCache that
// a first pass has warmed, as a serving prefix's is. It also returns the
// targets both passes solved at, for the core replays.
func variationMetrics(env *refEnv, sets []dieSet) ([]metric, []target, error) {
	var sample, retime, leak, stream time.Duration
	var dies, iters int
	var solves int64
	var targets []target
	for _, ds := range sets {
		pfx, err := env.prefix(ds.design)
		if err != nil {
			return nil, nil, err
		}
		seeds := make([]int64, ds.dies)
		for i := range seeds {
			seeds[i] = variation.DieSeed(ds.seed, i)
		}
		smp := variation.NewSampler(pfx.Placement, env.proc, env.model)
		lm := variation.NewLeakModel(pfx.Placement, env.proc)
		var blk *variation.DieBlock
		var tb *sta.TimingBatch
		var out []float64
		const width = 16
		for lo := 0; lo < len(seeds); lo += width {
			batch := seeds[lo:min(lo+width, len(seeds))]
			lanes := allKeys(len(batch))
			t := time.Now()
			blk = smp.SampleBlockInto(blk, batch)
			sample += time.Since(t)
			t = time.Now()
			var err error
			if tb, err = pfx.Analyzer.RunLightBatch(blk.DelayScale, len(batch), tb); err != nil {
				return nil, nil, err
			}
			retime += time.Since(t)
			t = time.Now()
			out = lm.LeakageBlockNW(blk, lanes, out[:0])
			leak += time.Since(t)
		}
		cs := &countingSolver{}
		cache := core.NewSolveCache(pfx.Allocator)
		opts := variation.TuneOptions{GuardbandPct: defaultGuardbandPct, Workers: 1, Solver: cs, SolveCache: cache}
		run := func(emit func(int, *variation.TuneResult) error) error {
			_, err := variation.YieldStream(context.Background(), pfx.Analyzer, pfx.Allocator, pfx.Timing,
				env.proc, env.model, ds.dies, ds.seed, opts, emit)
			return err
		}
		if err := run(nil); err != nil {
			return nil, nil, err
		}
		// Only the second pass's solves count, against the warmed cache;
		// the targets of both passes are where the workload runs
		// Allocator.At.
		cs.n.Store(0)
		t := time.Now()
		if err := run(func(_ int, r *variation.TuneResult) error { iters += r.Iters; return nil }); err != nil {
			return nil, nil, err
		}
		stream += time.Since(t)
		solves += cs.n.Load()
		dies += ds.dies
		for _, o := range cs.targets {
			targets = append(targets, target{design: ds.design, opts: o})
		}
	}
	n := float64(max(dies, 1))
	memo := 0.0
	if iters > 0 {
		memo = 1 - float64(solves)/float64(iters)
	}
	return []metric{
		{"variation.sample_us", us(sample) / n, "us"},
		{"sta.retime_batch_us", us(retime) / n, "us"},
		{"variation.leak_us", us(leak) / n, "us"},
		{"variation.stream_us", us(stream) / n, "us"},
		{"variation.tail_us", us(stream-sample-retime-leak) / n, "us"},
		{"variation.iters_per_die", float64(iters) / n, "count"},
		{"core.solves_per_die", float64(solves) / n, "count"},
		{"core.memo_hit_ratio", memo, "ratio"},
	}, targets, nil
}

// routerKeyMetric replays the router's key resolution — parse the upload,
// hash it — on each distinct uploaded design.
func routerKeyMetric(env *refEnv, designs []int) (metric, error) {
	var total time.Duration
	n := 0
	for _, d := range designs {
		ds := env.w.designs[d]
		if ds.builtin {
			continue
		}
		t, err := timeMedian(func() error {
			nd, err := netlist.ParseBench(strings.NewReader(ds.text), ds.name, env.lib)
			if err == nil {
				_ = serve.DesignKey(nd, 0)
			}
			return err
		})
		if err != nil {
			return metric{}, err
		}
		total += t
		n++
	}
	return metric{"router.key_us", us(total) / float64(max(n, 1)), "us"}, nil
}

// ilpMetrics sums the exact solves' diagnostics over the workload's exact
// keys; ms_per_node divides their sequential reference time by the nodes.
func ilpMetrics(w *workload, refs map[int]reference) []metric {
	var nodes, strong, presolve float64
	var took time.Duration
	keys := make([]int, 0, len(refs))
	for k := range refs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		r := refs[k]
		if w.keys[k].tune.Solver != "ilp" || r.ilp == nil {
			continue
		}
		nodes += float64(r.ilp.Nodes)
		strong += float64(r.ilp.StrongLPs)
		presolve += float64(r.ilp.PresolveFixedVars + r.ilp.PresolveDroppedRows + r.ilp.PresolveTightened)
		took += r.took
	}
	return []metric{
		{"ilp.nodes", nodes, "count"},
		{"ilp.strong_lps", strong, "count"},
		{"ilp.ms_per_node", ratio(ms(took), nodes), "ms"},
		{"ilp.presolve_reductions", presolve, "count"},
	}
}

// traceLayers assembles a traced run's per-layer metrics: spans of the
// traced windows, counters over the timed phase, and layer replays on the
// workload's own inputs.
// The info lines it also returns give each replica's share of the router's
// forwards, which shows a reshuffled hash ring.
func traceLayers(b *bench, env *refEnv, phases []*phase, cs *counters, refs map[int]reference, used []int) (layers, info []metric, err error) {
	w := b.w
	layers = spanMetrics(b.rec.snapshot(), b.ex.tracedKeys(), refs)
	var sent int
	var dies float64
	var lags []float64
	for _, p := range phases {
		sent += len(p.samples)
		for _, s := range p.samples {
			if s.status == statusOK {
				dies += float64(s.dies)
			}
		}
		for _, l := range p.lags {
			lags = append(lags, ms(l))
		}
	}
	sm, info := statsMetrics(cs.before, cs.after, cs.cBefore, cs.cAfter, sent)
	layers = append(layers, sm...)
	layers = append(layers, metric{"server.ndjson_bytes_per_die", ratio(float64(cs.yieldBytes), dies), "bytes/die"})

	designs := w.distinctDesigns(append(slices.Clone(w.timed), w.seq...))
	rk, err := routerKeyMetric(env, designs)
	if err != nil {
		return nil, nil, err
	}
	layers = append(layers, rk)
	fm, err := flowMetrics(env, designs)
	if err != nil {
		return nil, nil, err
	}
	layers = append(layers, fm...)
	vm, targets, err := variationMetrics(env, w.dieSets(used))
	if err != nil {
		return nil, nil, err
	}
	cm, err := coreMetrics(env, append(w.tuneTargets(used), targets...))
	if err != nil {
		return nil, nil, err
	}
	layers = append(layers, cm...)
	layers = append(layers, vm...)
	layers = append(layers, ilpMetrics(w, refs)...)

	// Process metrics come from the untraced windows.
	var alloc, gcCPU, cpu, reqs float64
	for _, p := range phases {
		if !p.traced {
			alloc += float64(p.proc[1].allocBytes - p.proc[0].allocBytes)
			gcCPU += p.proc[1].gcCPU - p.proc[0].gcCPU
			cpu += p.proc[1].totalCPU - p.proc[0].totalCPU
			reqs += float64(len(p.samples))
		}
	}
	layers = append(layers,
		metric{"go.alloc_mb_per_req", ratio(alloc/(1<<20), reqs), "MiB/req"},
		metric{"go.gc_cpu_fraction", ratio(gcCPU, cpu), "ratio"})

	lag := 0.0
	if len(lags) > 0 {
		if lag, err = percentile(lags, 99); err != nil {
			lag = slices.Max(lags) // too few sends for a p99: the worst
		}
	}
	layers = append(layers, metric{"loadgen.lag_p99_ms", lag, "ms"})

	// Tracing overhead: the median over the traced windows minus that over
	// the untraced ones, of each window's end-to-end estimate.
	var p50s, rates [2][]float64 // [untraced, traced]
	for _, p := range phases {
		i := 0
		if p.traced {
			i = 1
		}
		v, err := windowPct(w, p, 50)
		if err != nil {
			v = median(okLatencies(p))
		}
		p50s[i] = append(p50s[i], v)
		rates[i] = append(rates[i], phaseRate(w, p))
	}
	rps0, rps1 := median(rates[0]), median(rates[1])
	layers = append(layers,
		metric{"trace.overhead_p50_ms", median(p50s[1]) - median(p50s[0]), "ms"},
		metric{"trace.overhead_throughput_pct", 100 * ratio(rps0-rps1, rps0), "%"})
	return layers, info, nil
}
