package main

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

func loadAgainst(t *testing.T, opts serve.Options, extra ...string) (string, error) {
	t.Helper()
	ts := httptest.NewServer(serve.New(opts).Handler())
	t.Cleanup(ts.Close)
	var out, errb bytes.Buffer
	args := append([]string{
		"-addr", ts.URL,
		"-duration", "300ms",
		"-qps", "120",
		"-bench", "c1355",
		"-dies", "4",
		"-seed", "7",
	}, extra...)
	err := run(context.Background(), args, &out, &errb)
	return out.String(), err
}

func TestLoadMixedTraffic(t *testing.T) {
	out, err := loadAgainst(t, serve.Options{})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	for _, want := range []string{"endpoint", "tune", "p50", "p99", "req/s dispatched", "req/s completed"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestReportSeparatesDenominators: the headline must report the dispatched
// and completed counts (and rates) as distinct numbers — a run that drops or
// sheds half its traffic must not present the dispatched count beside a
// completed-samples rate, where shedding reads as slowness.
func TestReportSeparatesDenominators(t *testing.T) {
	samples := []sample{
		{endpoint: "tune", latency: 10 * time.Millisecond},
		{endpoint: "tune", latency: 20 * time.Millisecond, shed: true},
	}
	var out bytes.Buffer
	printReport(&out, samples, 2*time.Second, 10, 3, 0, false)
	head := out.String()
	for _, want := range []string{
		"10 dispatched", "2 completed",
		"5.0 req/s dispatched", "1.0 req/s completed",
		"3 client drops",
	} {
		if !strings.Contains(head, want) {
			t.Errorf("headline missing %q:\n%s", want, head)
		}
	}
}

// TestLoadShedIsNotFailure: a deliberately saturated server sheds with 503;
// the load generator must report those as shed, not as errors, and exit 0.
func TestLoadShedIsNotFailure(t *testing.T) {
	out, err := loadAgainst(t, serve.Options{Workers: 1, Queue: -1},
		"-mix", "yield=1,tune=4", "-dies", "400", "-qps", "200", "-concurrency", "16")
	if err != nil {
		t.Fatalf("shed traffic failed the run: %v\n%s", err, out)
	}
}

// TestLoadRetryShedStormStaysWithinBudget: against a deliberately
// saturated server, -retry N must (a) actually retry shed requests, (b)
// report the amplification in the headline, and (c) keep attempts-per-
// request within the -retry budget — a retrying load generator must never
// multiply a shed storm beyond its configured bound.
func TestLoadRetryShedStormStaysWithinBudget(t *testing.T) {
	// One worker, no queue, and a prefix build that outlasts the whole run:
	// the first request holds the only slot, every later one is shed — a
	// guaranteed storm regardless of machine speed.
	out, err := loadAgainst(t, serve.Options{
		Workers: 1, Queue: -1, RetryAfterSec: 1,
		OnPrefixBuild: func(string) { time.Sleep(400 * time.Millisecond) },
	}, "-mix", "tune=1", "-qps", "200", "-concurrency", "16", "-retry", "2")
	if err != nil {
		t.Fatalf("shed storm with -retry failed the run: %v\n%s", err, out)
	}
	m := regexp.MustCompile(`(\d+) retries \((\d+\.\d+)x attempts/req\)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("headline missing retry amplification:\n%s", out)
	}
	retries, _ := strconv.Atoi(m[1])
	amp, _ := strconv.ParseFloat(m[2], 64)
	if retries == 0 {
		t.Errorf("shed storm under -retry 2 recorded no retries:\n%s", out)
	}
	if amp > 2.0 {
		t.Errorf("amplification %.2fx exceeds the -retry 2 budget:\n%s", amp, out)
	}
}

func TestLoadTransportErrorsFailTheRun(t *testing.T) {
	var out, errb bytes.Buffer
	err := run(context.Background(), []string{
		"-addr", "http://127.0.0.1:1", // nothing listens here
		"-duration", "100ms", "-qps", "50",
	}, &out, &errb)
	if err == nil {
		t.Fatal("unreachable server did not fail the run")
	}
}

func TestParseMix(t *testing.T) {
	m, err := parseMix("tune=6,die=2,yield=1,table1=1")
	if err != nil {
		t.Fatal(err)
	}
	if m.total != 10 || len(m.names) != 4 {
		t.Fatalf("mix %+v", m)
	}
	if _, err := parseMix("zap=1"); err == nil {
		t.Error("unknown endpoint accepted")
	}
	if _, err := parseMix("tune"); err == nil {
		t.Error("weightless entry accepted")
	}
	if _, err := parseMix("tune=0"); err == nil {
		t.Error("all-zero mix accepted")
	}
	if _, err := parseMix("tune=x"); err == nil {
		t.Error("non-numeric weight accepted")
	}
}

func TestPercentile(t *testing.T) {
	lats := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(lats, 0.50); p != 5 {
		t.Errorf("p50 = %d, want 5", p)
	}
	if p := percentile(lats, 0.90); p != 9 {
		t.Errorf("p90 = %d, want 9", p)
	}
	if p := percentile(lats, 0.99); p != 10 {
		t.Errorf("p99 = %d, want 10", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("empty percentile = %d", p)
	}
}

// TestParseBenchesRejectsEmptyEntries is the regression test for the
// trailing-comma bug: "-bench c1355," used to rotate an empty benchmark
// name into every Nth request, producing a 400 storm that read as server
// errors. Empty entries must be a parse-time error naming the cause.
func TestParseBenchesRejectsEmptyEntries(t *testing.T) {
	for _, bad := range []string{"c1355,", ",c1355", "c1355,,c3540", "", " , "} {
		if _, err := parseBenches(bad); err == nil {
			t.Errorf("-bench %q accepted", bad)
		} else if !strings.Contains(err.Error(), "-bench") {
			t.Errorf("-bench %q: error %q does not name the flag", bad, err)
		}
	}
	got, err := parseBenches(" c1355 , c3540 ")
	if err != nil || len(got) != 2 || got[0] != "c1355" || got[1] != "c3540" {
		t.Errorf("valid list parsed as %v, %v", got, err)
	}
	// Same contract for the -addr target list.
	for _, bad := range []string{"http://a,", ",", ""} {
		if _, err := parseTargets(bad); err == nil {
			t.Errorf("-addr %q accepted", bad)
		}
	}
	// And end to end: the run must die at flag parsing, not mid-traffic.
	if err := run(context.Background(), []string{"-bench", "c1355,"}, io.Discard, io.Discard); err == nil {
		t.Error("run accepted a trailing-comma -bench")
	}
}

// TestLoadCancelledRunIsNotFailure is the regression test for the pacer
// cancellation bugs: (1) after its inter-arrival sleep the pacer used to
// dispatch one more request on an already-cancelled context, and (2)
// requests killed mid-flight by the cancellation were classified as server
// errors — together a clean Ctrl-C exited 1 blaming the server. A
// cancelled run whose only casualties are cancellation fallout must exit
// clean, reporting those samples as drops, not errors.
func TestLoadCancelledRunIsNotFailure(t *testing.T) {
	gate := make(chan struct{})
	// Every build parks on the gate: at cancel time all in-flight requests
	// are guaranteed to die by cancellation, never by completing.
	ts := httptest.NewServer(serve.New(serve.Options{
		Workers:       2,
		Queue:         64,
		OnPrefixBuild: func(string) { <-gate },
	}).Handler())
	t.Cleanup(ts.Close)
	// Registered after ts.Close so it runs first (cleanups are LIFO):
	// ts.Close waits for in-flight handlers, which are parked on the gate.
	t.Cleanup(func() { close(gate) })

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	var out, errb bytes.Buffer
	err := run(ctx, []string{
		"-addr", ts.URL,
		"-duration", "1h", // only the context ends this run
		"-qps", "100",
		"-mix", "tune=1",
		"-bench", "c1355",
	}, &out, &errb)
	if err != nil {
		t.Fatalf("cancelled run exited dirty: %v\nstderr: %s\nreport:\n%s", err, errb.String(), out.String())
	}
	if s := out.String(); !strings.Contains(s, "client drops") {
		t.Errorf("report missing drop accounting:\n%s", s)
	}
}

// TestLoadMultiTargetList: -addr with a comma list drives every target and
// reports a per-replica row for each.
func TestLoadMultiTargetList(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(serve.New(serve.Options{}).Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	var out, errb bytes.Buffer
	err := run(context.Background(), []string{
		"-addr", strings.Join(urls, ","),
		"-duration", "300ms", "-qps", "80",
		"-mix", "tune=3,die=1", "-bench", "c1355", "-seed", "3",
	}, &out, &errb)
	if err != nil {
		t.Fatalf("multi-target run: %v\n%s", err, out.String())
	}
	s := out.String()
	for _, u := range urls {
		if !strings.Contains(s, u) {
			t.Errorf("per-replica report missing target %s:\n%s", u, s)
		}
	}
	for _, col := range []string{"prefixBuilds", "shed%", "cacheHits"} {
		if !strings.Contains(s, col) {
			t.Errorf("per-replica report missing column %q:\n%s", col, s)
		}
	}
}

// TestLoadRouterCluster is the acceptance smoke: fbbload pointed at a
// 2-replica routed cluster discovers the replicas behind the router,
// completes a mixed run, and reports per-replica shed rates and prefix
// builds. Consistent hashing shows up as locality: each benchmark's
// prefix is built on exactly one replica, once. The replicas queue every
// request rather than shed: a shed spills to the other replica, which then
// builds a second prefix by design, and a loaded host (this test beside
// others under -race) sheds at the default queue depth.
func TestLoadRouterCluster(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(serve.New(serve.Options{Queue: 1024}).Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	rt, err := serve.NewRouter(serve.RouterOptions{Replicas: urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	var out, errb bytes.Buffer
	err = run(context.Background(), []string{
		"-addr", front.URL,
		"-duration", "400ms", "-qps", "80",
		"-mix", "tune=4,die=2,table1=1",
		"-bench", "c1355,c3540", "-seed", "5",
	}, &out, &errb)
	if err != nil {
		t.Fatalf("routed run: %v\nstderr: %s\nreport:\n%s", err, errb.String(), out.String())
	}
	s := out.String()
	if !strings.Contains(s, "routed; router shed") {
		t.Errorf("report does not identify the router:\n%s", s)
	}
	for _, u := range urls {
		if !strings.Contains(s, u) {
			t.Errorf("report missing discovered replica %s:\n%s", u, s)
		}
	}
	// Locality, read the way an operator would — from each replica's
	// /v1/stats: two distinct designs were replayed hard, and across the
	// cluster each was built exactly once.
	var totalBuilds int64
	for _, u := range urls {
		st, err := serve.NewClient(u).Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		totalBuilds += st.Cache.Builds
	}
	if totalBuilds != 2 {
		t.Errorf("cluster built %d prefixes for 2 designs; routing is not key-stable\n%s", totalBuilds, s)
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-qps", "0"},
		{"-concurrency", "0"},
		{"-mix", "bogus=1"},
		{"-no-such-flag"},
	} {
		if err := run(context.Background(), args, io.Discard, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	if err := run(context.Background(), []string{"-h"}, io.Discard, io.Discard); err != nil {
		t.Errorf("-h: %v", err)
	}
}
