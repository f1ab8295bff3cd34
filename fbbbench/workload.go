package main

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/serve"
)

// A workload is one traffic mix: a finite set of request keys, the order in
// which the load generator sends them, and the deployment it runs against.
// Everything is derived from the workload seed; the program under test only
// ever sees the generated requests.
type workload struct {
	name string
	// designs are the designs the requests operate on.
	designs []design
	// keys are the distinct requests; every sent request is one of them,
	// and the verifier computes one reference per key used.
	keys []reqSpec
	// warm lists, per design to keep resident, one key sent in set-up.
	warm []int
	// Closed loop: clients each cycle through their own seeded
	// permutation of timed. Open loop (rate > 0): one generator sends seq
	// at rate requests per second.
	clients int
	timed   []int
	rate    float64
	seq     []int
	// replicas > 0 puts fbbrouter in front of that many fbbd replicas.
	replicas int
	// sloMS is the workload's fixed latency limit.
	sloMS float64
	// tailPct is the tail percentile reported as latency_tail_ms; 0 means
	// the median latency of the slowest key instead, for a workload with
	// too few requests to support a tail percentile.
	tailPct float64
	// seed seeds the closed-loop permutations.
	seed int64
}

// design is a built-in benchmark or an uploaded netlist.
type design struct {
	name    string
	builtin bool
	text    string // .bench netlist of an upload
}

func (d design) ref() serve.DesignRef {
	if d.builtin {
		return serve.DesignRef{Benchmark: d.name}
	}
	return serve.DesignRef{Netlist: d.text, Name: d.name}
}

type reqKind int

const (
	kindTune reqKind = iota
	kindDie
	kindYield
	kindTable1
)

// reqSpec is one distinct request.
type reqSpec struct {
	kind   reqKind
	design int
	tune   serve.TuneRequest
	yield  serve.YieldRequest
	table1 serve.Table1Request
}

func (w *workload) addKey(k reqSpec) int {
	w.keys = append(w.keys, k)
	return len(w.keys) - 1
}

func (w *workload) tuneKey(d int, beta float64, c int, solver string) int {
	ref := w.designs[d].ref()
	return w.addKey(reqSpec{kind: kindTune, design: d, tune: serve.TuneRequest{
		DesignRef: ref, Beta: beta, MaxClusters: c, Solver: solver,
	}})
}

func (w *workload) dieKey(d int, seed int64) int {
	return w.addKey(reqSpec{kind: kindDie, design: d, tune: serve.TuneRequest{
		DesignRef: w.designs[d].ref(), Die: &serve.DieRequest{Seed: seed},
	}})
}

func (w *workload) yieldKey(d, dies int, seed int64) int {
	return w.addKey(reqSpec{kind: kindYield, design: d, yield: serve.YieldRequest{
		DesignRef: w.designs[d].ref(), Dies: dies, Seed: seed, Workers: 1,
	}})
}

var workloadNames = []string{"design-tune", "yield-stream", "cluster-upload", "ilp-exact"}

// newWorkload builds the named workload from seed. seconds sizes the
// open-loop schedule.
func newWorkload(name string, seed int64, seconds float64) (*workload, error) {
	switch name {
	case "design-tune":
		return designTune(seed), nil
	case "yield-stream":
		return yieldStream(seed), nil
	case "cluster-upload":
		return clusterUpload(seed, seconds)
	case "ilp-exact":
		return ilpExact(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func builtins(names ...string) []design {
	ds := make([]design, len(names))
	for i, n := range names {
		ds[i] = design{name: n, builtin: true}
	}
	return ds
}

// designTune: design-time allocation on warm built-ins. Flow-mode heuristic
// tunes over a (beta, C) grid and heuristic-only Table 1 cells.
func designTune(seed int64) *workload {
	w := &workload{
		name:    "design-tune",
		designs: builtins("c1355", "c3540", "c5315", "c7552", "adder128", "c6288", "industrial1"),
		clients: 2, sloMS: 250, tailPct: 90, seed: seed,
	}
	for d := range w.designs {
		w.warm = append(w.warm, w.tuneKey(d, 0.05, 3, ""))
		for _, beta := range []float64{0.03, 0.05, 0.08, 0.10} {
			for _, c := range []int{2, 3, 4} {
				if beta == 0.05 && c == 3 {
					continue // the warm key
				}
				w.tuneKey(d, beta, c, "")
			}
		}
		for _, beta := range []float64{0.05, 0.10} {
			w.addKey(reqSpec{kind: kindTable1, design: d, table1: serve.Table1Request{
				Benchmarks: []string{w.designs[d].name}, Betas: []float64{beta}, ILPGateLimit: 1,
			}})
		}
	}
	w.timed = allKeys(len(w.keys))
	return w
}

func allKeys(n int) []int {
	ks := make([]int, n)
	for i := range ks {
		ks[i] = i
	}
	return ks
}

// yieldDies is the die count of one yield-stream request; yieldWarmDies
// that of its set-up requests.
const (
	yieldDies     = 192
	yieldWarmDies = 64
)

// yieldStream: sequential Monte-Carlo yield studies streamed as NDJSON.
func yieldStream(seed int64) *workload {
	w := &workload{
		name:    "yield-stream",
		designs: builtins("c5315", "c6288", "industrial1"),
		clients: 2, sloMS: 2000, tailPct: 90, seed: seed,
	}
	rng := rand.New(rand.NewSource(seed))
	for d := range w.designs {
		for i := 0; i < 4; i++ {
			w.timed = append(w.timed, w.yieldKey(d, yieldDies, rng.Int63n(1<<40)))
		}
		// A short study warms the prefix and its SolveCache in set-up;
		// it is never sent timed.
		w.warm = append(w.warm, w.yieldKey(d, yieldWarmDies, rng.Int63n(1<<40)))
	}
	return w
}

// ilpExact: proven-optimal exact allocations, one client.
func ilpExact(seed int64) *workload {
	w := &workload{
		name:    "ilp-exact",
		designs: builtins("c1355", "c3540", "c5315"),
		clients: 1, sloMS: 3000, seed: seed,
	}
	for d := range w.designs {
		// The warm key is a heuristic tune: it makes the prefix resident
		// without solving an ILP in set-up, and is never sent timed.
		w.warm = append(w.warm, w.tuneKey(d, 0.05, 2, ""))
		for _, c := range []int{2, 3} {
			w.timed = append(w.timed, w.tuneKey(d, 0.05, c, "ilp"))
		}
	}
	return w
}

// Cluster-upload traffic: uploadDesigns generated netlists with Zipf
// popularity, so the working set exceeds the 3 replicas x 8 prefix-cache
// slots and the tail of the popularity curve misses.
const (
	uploadDesigns = 40
	uploadZipfS   = 1.1
	uploadDies    = 16
	// uploadRate is the open-loop offered load in requests per second:
	// half the cluster's capacity measured at the seed commit on a 2-core
	// x86-64 VM, 150-205 req/s depending on how busy the VM's host was.
	// Half the lower figure keeps a slow spell of the host from pushing
	// the cluster into saturation.
	uploadRate = 75
)

// uploadGates is the gate target of the design at popularity rank r: sizes
// spread over 300-1500 gates in a fixed interleaving, so every seed puts
// designs of the same sizes at the same popularity and run-to-run costs
// stay comparable while the netlists themselves change with the seed.
func uploadGates(r int) int { return 300 + (r*17)%uploadDesigns*30 }

// clusterUpload: open-loop uploads through fbbrouter to 3 replicas.
func clusterUpload(seed int64, seconds float64) (*workload, error) {
	w := &workload{
		name:     "cluster-upload",
		rate:     uploadRate,
		replicas: 3, sloMS: 250, tailPct: 90, seed: seed,
	}
	lib := cell.Default()
	for r := 0; r < uploadDesigns; r++ {
		name := fmt.Sprintf("up%02d_%d", r, seed)
		d := gen.Industrial(lib, name, uploadGates(r), seed*uploadDesigns+int64(r))
		var buf bytes.Buffer
		if err := netlist.WriteBench(&buf, d); err != nil {
			return nil, fmt.Errorf("write %s: %w", name, err)
		}
		w.designs = append(w.designs, design{name: name, text: buf.String()})
	}
	seq, keys := uploadSequence(seed, int(math.Ceil(uploadRate*seconds)))
	index := map[uploadKey]int{}
	for _, uk := range keys {
		var k int
		switch uk.kind {
		case kindTune:
			k = w.tuneKey(uk.design, uk.beta, uk.c, "")
		case kindDie:
			k = w.dieKey(uk.design, uk.seed)
		case kindYield:
			k = w.yieldKey(uk.design, uploadDies, uk.seed)
		}
		index[uk] = k
	}
	for _, uk := range seq {
		w.seq = append(w.seq, index[uk])
	}
	for d := 0; d < 8; d++ {
		uk := uploadKey{kind: kindTune, design: d, beta: 0.06, c: 2}
		k, ok := index[uk]
		if !ok {
			k = w.tuneKey(d, uk.beta, uk.c, "")
			index[uk] = k
		}
		w.warm = append(w.warm, k)
	}
	return w, nil
}

// uploadKey identifies one distinct cluster-upload request.
type uploadKey struct {
	kind   reqKind
	design int
	beta   float64
	c      int
	seed   int64
}

// uploadSequence draws n requests: a Zipf design, then 60% flow tunes, 25%
// die tunes and 15% 16-die yields, with parameters from small per-design
// pools so the key set stays finite. It returns the sequence and its
// distinct keys in first-use order.
func uploadSequence(seed int64, n int) (seq, keys []uploadKey) {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, uploadZipfS, 1, uploadDesigns-1)
	seen := map[uploadKey]bool{}
	for i := 0; i < n; i++ {
		uk := uploadKey{design: int(zipf.Uint64())}
		switch u := rng.Float64(); {
		case u < 0.60:
			uk.kind = kindTune
			uk.beta = []float64{0.04, 0.06, 0.08}[rng.Intn(3)]
			uk.c = 2 + rng.Intn(2)
		case u < 0.85:
			uk.kind = kindDie
			uk.seed = seed*1000 + int64(uk.design)*10 + int64(rng.Intn(4))
		default:
			uk.kind = kindYield
			uk.seed = seed*1000 + int64(uk.design)*10 + 5 + int64(rng.Intn(2))
		}
		seq = append(seq, uk)
		if !seen[uk] {
			seen[uk] = true
			keys = append(keys, uk)
		}
	}
	return seq, keys
}

// closedSeq is one closed-loop client's request order: successive seeded
// permutations of the timed keys, so every pass sends each key once and
// the mix is exact whatever the seed.
type closedSeq struct {
	rng  *rand.Rand
	keys []int
	perm []int
}

func newClosedSeq(w *workload, client int) *closedSeq {
	return &closedSeq{rng: rand.New(rand.NewSource(w.seed*7919 + int64(client))), keys: w.timed}
}

func (s *closedSeq) next() int {
	if len(s.perm) == 0 {
		s.perm = s.rng.Perm(len(s.keys))
	}
	k := s.keys[s.perm[0]]
	s.perm = s.perm[1:]
	return k
}

// distinctDesigns lists the designs the given keys touch, in first-use
// order.
func (w *workload) distinctDesigns(keys []int) []int {
	var out []int
	for _, k := range keys {
		if d := w.keys[k].design; !slices.Contains(out, d) {
			out = append(out, d)
		}
	}
	return out
}

// dieSets lists the die populations of the workload's yield keys among
// keys, one per design, at most replayCap.
func (w *workload) dieSets(keys []int) []dieSet {
	var out []dieSet
	seen := map[int]bool{}
	for _, k := range keys {
		spec := w.keys[k]
		if spec.kind != kindYield || seen[spec.design] || len(out) == replayCap {
			continue
		}
		seen[spec.design] = true
		out = append(out, dieSet{design: spec.design, seed: spec.yield.Seed, dies: spec.yield.Dies})
	}
	return out
}

// tuneTargets lists the allocation instances the flow-mode tunes and
// Table 1 cells among keys materialize.
func (w *workload) tuneTargets(keys []int) []target {
	var out []target
	for _, k := range keys {
		spec := w.keys[k]
		switch spec.kind {
		case kindTune:
			q := spec.tune
			out = append(out, target{spec.design, core.Options{Beta: cmp.Or(q.Beta, 0.05), MaxClusters: q.MaxClusters, MaxBiasPairs: q.MaxBiasPairs}})
		case kindTable1:
			for _, beta := range spec.table1.Betas {
				for _, c := range []int{2, 3} {
					out = append(out, target{spec.design, core.Options{Beta: beta, MaxClusters: c}})
				}
			}
		}
	}
	return out
}
