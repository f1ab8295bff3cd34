// Command fbbbench is the repository's end-to-end benchmark of the FBB
// serving stack. It starts in-process fbbd replicas (and an fbbrouter where
// the workload needs one) on loopback HTTP, drives one named workload from
// a seed, verifies every response against an in-process reference, and
// prints every metric by name with its unit; the last line of its output is
// one JSON object with the run's result.
//
//	fbbbench --workload design-tune --seed 1 --seconds 20 --trace 0
//
// With --trace 1 the timed phase alternates untraced windows with windows
// that record spans at each layer boundary, and is followed by direct
// replays of each layer's public functions; the run reports the per-layer
// metrics and the tracing overhead instead of the end-to-end ones.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/serve"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbbbench:", err)
		os.Exit(2)
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbbbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout, cfg.trace); err != nil {
		fmt.Fprintln(os.Stderr, "fbbbench:", err)
		os.Exit(1)
	}
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// replicas are the fixed loopback addresses of cluster-upload's
	// replicas.
	replicas []string
	// setups is how often the deployment is set up; setup_s is the median.
	setups int
	// spans, when set, is where a traced run writes its spans.
	spans string
	// corrupt, when positive, corrupts the n-th timed response: the
	// verifier's self-test sets it.
	corrupt int64
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("fbbbench", flag.ContinueOnError)
	cfg := config{setups: 5}
	var trace int
	var replicas string
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&replicas, "replicas", "127.0.0.1:18431,127.0.0.1:18432,127.0.0.1:18433",
		"fixed loopback addresses of the cluster-upload replicas")
	fs.StringVar(&cfg.spans, "spans", "", "file a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	cfg.replicas = strings.Split(replicas, ",")
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive")
	}
	return cfg, nil
}

// result is one run's outcome.
type result struct {
	attempted, failed, mismatched, errored int
	// usedKeys are the keys of the verified responses, in first-use order.
	usedKeys    []int
	e2e, layers []metric
	// info lines are printed for reading, never gated.
	info []metric
}

func (r *result) correct() bool { return r.mismatched == 0 && r.errored == 0 }

// print writes every metric as a readable line, then the JSON result line.
func (r *result) print(out io.Writer, trace bool) error {
	gated := r.e2e
	if trace {
		gated = r.layers
	}
	for _, group := range [][]metric{r.e2e, r.layers, r.info} {
		for _, m := range group {
			fmt.Fprintf(out, "%-30s %16.6f %s\n", m.name, m.value, m.unit)
		}
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	obj := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]val{}}
	for _, m := range gated {
		obj.Metrics[m.name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(obj)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// phase is one timed stretch of load.
type phase struct {
	samples []sample
	lags    []time.Duration
	retries int64
	// heap is the live heap after each GC cycle, in bytes.
	heap []float64
	proc [2]procStats
	// traced marks a traced window of a traced run.
	traced bool
}

// elapsed is the phase's length: until its last completion.
func (p *phase) elapsed() time.Duration {
	var end time.Duration
	for _, s := range p.samples {
		end = max(end, s.end)
	}
	return end
}

// bench is one run's state: the workload, the deployment under load and the
// load generator's clients.
type bench struct {
	cfg     config
	w       *workload
	rec     *recorder // nil unless traced
	corrupt *corrupter
	// loadHC carries all load, holding at most nproc connections to the
	// front; adminHC carries health checks and /v1/stats snapshots.
	loadT, adminT   *http.Transport
	loadHC, adminHC *http.Client
	dep             *deployment
	ex              *executor
}

func newBench(cfg config) (*bench, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, w: w, corrupt: &corrupter{}}
	if cfg.trace {
		b.rec = newRecorder()
	}
	nproc := runtime.NumCPU()
	b.loadT = &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	b.loadHC = &http.Client{Transport: &tracingTransport{base: b.loadT, rec: b.rec}}
	b.adminT = &http.Transport{}
	b.adminHC = &http.Client{Transport: b.adminT, Timeout: 30 * time.Second}
	b.ex = &executor{w: w, rec: b.rec}
	return b, nil
}

// stopDeployment stops the current deployment, if any, and drops the
// connections to it.
func (b *bench) stopDeployment() {
	if b.dep != nil {
		b.dep.stop()
		b.dep = nil
	}
	b.loadT.CloseIdleConnections()
	b.adminT.CloseIdleConnections()
}

// setUp starts the deployment and warms its resident prefixes, cfg.setups
// times, and returns each set-up's duration in seconds; the last
// deployment stays up for the timed phase.
func (b *bench) setUp(ctx context.Context) ([]float64, error) {
	var setups []float64
	for i := 0; i < b.cfg.setups; i++ {
		b.stopDeployment()
		t0 := time.Now()
		dep, err := deploy(b.w, b.cfg.replicas, b.rec, b.corrupt)
		if err != nil {
			return nil, err
		}
		b.dep = dep
		hctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		err = dep.waitHealthy(hctx, b.adminHC)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("deployment not healthy: %w", err)
		}
		warm := serve.NewClientWith(dep.front, b.loadHC)
		for _, k := range b.w.warm {
			if s := b.ex.send(ctx, warm, k); s.status != statusOK {
				return nil, fmt.Errorf("warm-up request %d: %w", k, s.err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return setups, nil
}

// counters are the deployment's counters around the timed phase.
type counters struct {
	before, after   []*serve.StatsResponse
	cBefore, cAfter *serve.ClusterStatsResponse
	// yieldBytes counts the replicas' /v1/yield response bytes.
	yieldBytes int64
}

// traceOrder is the order of a traced run's windows, true for traced.
// Untraced and traced windows alternate in pairs, so a steady drift of the
// host weighs on both alike, and warm-up, which falls in the first window,
// moves one of four untraced windows rather than a whole untraced half.
var traceOrder = []bool{false, true, true, false, false, true, true, false}

// timed runs the timed phase: one untraced phase, or for a traced run
// traceOrder's windows.
func (b *bench) timed(ctx context.Context) ([]*phase, *counters, error) {
	w, dep := b.w, b.dep
	cs := &counters{}
	var err error
	if cs.before, err = dep.replicaStats(ctx, b.adminHC); err != nil {
		return nil, nil, err
	}
	if cs.cBefore, err = dep.clusterStats(ctx, b.adminHC); err != nil {
		return nil, nil, err
	}
	for _, r := range dep.replicas {
		r.h.yieldBytes.Store(0)
	}
	b.corrupt.arm(b.cfg.corrupt)

	var seqs []*closedSeq
	for c := 0; c < w.clients; c++ {
		seqs = append(seqs, newClosedSeq(w, c))
	}
	var clients []*serve.Client
	for c := 0; c < max(w.clients, 1); c++ {
		cl := serve.NewClientWith(dep.front, b.loadHC)
		if w.replicas > 0 {
			cl.Retry = &serve.RetryPolicy{MaxAttempts: 3, BaseDelay: 20 * time.Millisecond,
				MaxDelay: 200 * time.Millisecond, Seed: b.cfg.seed + int64(c)}
		}
		clients = append(clients, cl)
	}
	retries := func() int64 {
		var n int64
		for _, c := range clients {
			n += c.Retries()
		}
		return n
	}
	runPhase := func(d time.Duration, seq []int) *phase {
		// Collect the earlier set-ups' deployments first: the live heap
		// the watcher reads is as of the last completed GC.
		runtime.GC()
		p := &phase{proc: [2]procStats{readProc()}}
		r0 := retries()
		hw := startHeapWatch()
		if w.rate > 0 {
			p.samples, p.lags = openLoop(ctx, w.rate, seq, 256, func(ctx context.Context, k int) sample {
				return b.ex.send(ctx, clients[0], k)
			})
		} else {
			p.samples = closedLoop(ctx, w.clients, len(w.timed), d, func(c int) int { return seqs[c].next() },
				func(ctx context.Context, c, k int) sample { return b.ex.send(ctx, clients[c], k) })
		}
		p.heap = hw.end()
		p.proc[1] = readProc()
		p.retries = retries() - r0
		return p
	}

	var phases []*phase
	dur := time.Duration(b.cfg.seconds * float64(time.Second))
	if !b.cfg.trace {
		phases = append(phases, runPhase(dur, w.seq))
	} else {
		n := len(w.seq) / len(traceOrder)
		for i, traced := range traceOrder {
			b.rec.enabled.Store(traced)
			p := runPhase(dur/time.Duration(len(traceOrder)), w.seq[i*n:(i+1)*n])
			p.traced = traced
			phases = append(phases, p)
		}
		b.rec.enabled.Store(false)
	}

	if cs.after, err = dep.replicaStats(ctx, b.adminHC); err != nil {
		return nil, nil, err
	}
	if cs.cAfter, err = dep.clusterStats(ctx, b.adminHC); err != nil {
		return nil, nil, err
	}
	for _, r := range dep.replicas {
		cs.yieldBytes += r.h.yieldBytes.Load()
	}
	return phases, cs, nil
}

// verify computes the reference of every key that got a response and
// marks each response that differs from its reference failed.
func (b *bench) verify(env *refEnv, phases []*phase) (*result, map[int]reference, error) {
	used := map[int]bool{}
	var keys []int
	for _, p := range phases {
		for _, s := range p.samples {
			if s.status == statusOK && !used[s.key] {
				used[s.key] = true
				keys = append(keys, s.key)
			}
		}
	}
	workers := 2
	if b.cfg.trace || b.w.name == "ilp-exact" {
		// As many at once as the workload's clients, so the reference
		// times the server overhead subtracts see the same contention as
		// the handler spans.
		workers = max(b.w.clients, 1)
	}
	refs, err := env.computeAll(keys, workers)
	if err != nil {
		return nil, nil, err
	}
	res := &result{usedKeys: keys}
	for _, p := range phases {
		for i := range p.samples {
			s := &p.samples[i]
			res.attempted++
			switch s.status {
			case statusShed:
				res.failed++
			case statusFailed:
				res.failed++
				res.errored++
				fmt.Fprintf(os.Stderr, "fbbbench: request for key %d failed: %v\n", s.key, s.err)
			default:
				if ref := refs[s.key]; s.digest != ref.digest || !ref.proven {
					s.status = statusFailed
					res.failed++
					res.mismatched++
				}
			}
		}
	}
	res.info = []metric{{"failed_ratio", ratio(float64(res.failed), float64(res.attempted)), "ratio"},
		{"mismatched", float64(res.mismatched), "count"}}
	return res, refs, nil
}

func run(ctx context.Context, cfg config) (*result, error) {
	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	defer b.stopDeployment()
	setups, err := b.setUp(ctx)
	if err != nil {
		return nil, err
	}
	phases, cs, err := b.timed(ctx)
	if err != nil {
		return nil, err
	}
	b.stopDeployment()

	env := newRefEnv(b.w)
	res, refs, err := b.verify(env, phases)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		e2e, info, err := endToEnd(b.w, phases[0], median(setups))
		res.e2e, res.info = e2e, append(info, res.info...)
		return res, err
	}
	if cfg.spans != "" {
		if err := b.rec.writeFile(cfg.spans); err != nil {
			return nil, err
		}
	}
	var info []metric
	res.layers, info, err = traceLayers(b, env, phases, cs, refs, res.usedKeys)
	res.info = append(info, res.info...)
	return res, err
}

// okLatencies lists the latencies (ms) of a phase's verified requests.
func okLatencies(p *phase) []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.status == statusOK {
			out = append(out, ms(s.latency()))
		}
	}
	return out
}

// On the 2-vCPU VM this benchmark was tuned on, a fixed CPU-bound loop ran
// up to 1.6x slower from one second to the next. Throughput and median latency are
// therefore medians over windows of a run, so a slow second moves one window
// rather than the run: a closed loop's windows are passes over the keys,
// which keep every window's mix exact; an open loop's are seconds of its
// schedule.

// windowSecs is the length of an open-loop latency window: long enough
// for a p90 with ten samples beyond it at cluster-upload's rate.
const windowSecs = 2.0

// phaseRate is a phase's throughput: passRate for a closed loop, verified
// requests over the phase for an open loop.
func phaseRate(w *workload, p *phase) float64 {
	if w.rate > 0 {
		return ratio(float64(len(okLatencies(p))), p.elapsed().Seconds())
	}
	return passRate(p, w.clients, len(w.timed))
}

// passRate is the closed-loop throughput: clients times the median, over
// every client's complete passes, of one client's requests per second; 0
// when no pass completed.
func passRate(p *phase, clients, pass int) float64 {
	type win struct {
		a, b time.Duration
		n    int
	}
	wins := map[[2]int]*win{}
	for _, s := range p.samples {
		k := [2]int{s.client, s.pass}
		x := wins[k]
		if x == nil {
			x = &win{a: s.start, b: s.end}
			wins[k] = x
		}
		x.a, x.b, x.n = min(x.a, s.start), max(x.b, s.end), x.n+1
	}
	var rates []float64
	for _, x := range wins {
		if x.n == pass {
			rates = append(rates, float64(pass)/(x.b-x.a).Seconds())
		}
	}
	return float64(clients) * median(rates)
}

// windowPct is the median over windows of each window's pct-th percentile
// latency: closed-loop windows are the passes every client completed,
// open-loop windows are windowSecs of due times. Windows too small for the
// percentile are skipped; with none left it falls back to the whole run.
func windowPct(w *workload, p *phase, pct float64) (float64, error) {
	groups := map[int][]float64{}
	for _, s := range p.samples {
		if s.status != statusOK {
			continue
		}
		g := s.pass
		if w.rate > 0 {
			g = int(s.due.Seconds() / windowSecs)
		}
		groups[g] = append(groups[g], ms(s.latency()))
	}
	var vs []float64
	for _, ls := range groups {
		if w.rate == 0 && len(ls) != w.clients*len(w.timed) {
			continue // a pass some client did not complete
		}
		if v, err := percentile(ls, pct); err == nil {
			vs = append(vs, v)
		}
	}
	if len(vs) > 0 {
		return median(vs), nil
	}
	return percentile(okLatencies(p), pct)
}

// endToEnd computes the gated end-to-end metrics of the untraced phase, and
// the workload-specific readings printed beside them.
func endToEnd(w *workload, p *phase, setup float64) (e2e, info []metric, err error) {
	sent := float64(len(p.samples))
	if sent == 0 {
		return nil, nil, errors.New("no requests sent")
	}
	secs := p.elapsed().Seconds()
	lat := okLatencies(p)
	byKey := map[int][]float64{}
	var within, dies, solves float64
	for _, s := range p.samples {
		if s.status != statusOK {
			continue
		}
		l := ms(s.latency())
		byKey[s.key] = append(byKey[s.key], l)
		if l <= w.sloMS {
			within++
		}
		dies += float64(s.dies)
		if s.ilp != nil && s.ilp.Proven {
			solves++
		}
	}
	rps := phaseRate(w, p)
	if rps == 0 {
		return nil, nil, errors.New("no request verified")
	}
	p50, err := windowPct(w, p, 50)
	if err != nil {
		return nil, nil, fmt.Errorf("latency p50: %w", err)
	}
	var tail float64
	if w.tailPct > 0 {
		if tail, err = windowPct(w, p, w.tailPct); err != nil {
			return nil, nil, fmt.Errorf("latency tail: %w", err)
		}
		info = append(info, metric{fmt.Sprintf("latency_p%g_ms", w.tailPct), tail, "ms"})
		// The whole run's p99, where the run supports one: one slow second
		// of a noisy host sets it, so it is printed, not gated.
		if p99, err := percentile(slices.Clone(lat), 99); err == nil {
			info = append(info, metric{"run_latency_p99_ms", p99, "ms"})
		}
	} else {
		for _, ls := range byKey {
			tail = max(tail, median(ls))
		}
		info = append(info, metric{"latency_slowest_key_p50_ms", tail, "ms"})
	}
	info = append(info, metric{"heap_peak_mb", slices.Max(p.heap) / (1 << 20), "MiB"},
		metric{"gc_cycles", float64(len(p.heap)), "count"},
		metric{"samples", float64(len(lat)), "count"},
		metric{"run_throughput_rps", float64(len(lat)) / secs, "req/s"})
	if dies > 0 {
		info = append(info, metric{"dies_per_s", dies / float64(len(lat)) * rps, "dies/s"})
	}
	if solves > 0 {
		info = append(info, metric{"ilp_solves_per_s", solves / float64(len(lat)) * rps, "solves/s"})
	}
	e2e = []metric{
		{"setup_s", setup, "s"},
		{"throughput_rps", rps, "req/s"},
		{"latency_p50_ms", p50, "ms"},
		{"latency_tail_ms", tail, "ms"},
		{"within_slo_ratio", within / sent, "ratio"},
		{"attempts_per_req", (sent + float64(p.retries)) / sent, "ratio"},
		{"heap_live_mb", median(slices.Clone(p.heap)) / (1 << 20), "MiB"},
	}
	return e2e, info, nil
}
