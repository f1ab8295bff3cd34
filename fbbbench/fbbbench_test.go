package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64 // 0 = refused
	}{
		{1000, 99, 990},
		{999, 99, 0}, // rank 990 leaves 9 beyond
		{100, 90, 90},
		{99, 90, 0},
		{20, 50, 10},
		{19, 50, 0},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %g, want refusal", tc.p, tc.n, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", tc.p, tc.n, got, err, tc.want)
		}
	}
}

func TestSameSeedSameRequests(t *testing.T) {
	a, ak := uploadSequence(7, 2000)
	b, bk := uploadSequence(7, 2000)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(ak, bk) {
		t.Fatal("same seed drew different cluster-upload sequences")
	}
	if c, _ := uploadSequence(8, 2000); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew the same cluster-upload sequence")
	}
	// The Zipf draw favours low popularity ranks and reaches past the
	// 24 prefix-cache slots of the cluster.
	hits := make([]int, uploadDesigns)
	for _, uk := range a {
		hits[uk.design]++
	}
	if hits[0] <= hits[uploadDesigns/2] || slices.IndexFunc(hits[24:], func(n int) bool { return n > 0 }) < 0 {
		t.Fatalf("Zipf draw has the wrong shape: %v", hits)
	}

	w1, err := newWorkload("cluster-upload", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := newWorkload("cluster-upload", 3, 2)
	if !reflect.DeepEqual(w1.seq, w2.seq) || !reflect.DeepEqual(w1.designs, w2.designs) || !reflect.DeepEqual(w1.keys, w2.keys) {
		t.Fatal("same seed generated different uploads or requests")
	}

	d1, d2 := designTune(5), designTune(5)
	s1, s2 := newClosedSeq(d1, 1), newClosedSeq(d2, 1)
	seen := map[int]int{}
	for i := 0; i < 2*len(d1.timed); i++ {
		k := s1.next()
		if k != s2.next() {
			t.Fatal("same seed gave different closed-loop orders")
		}
		seen[k]++
	}
	for _, k := range d1.timed {
		if seen[k] != 2 {
			t.Fatalf("two passes sent key %d %d times, want 2", k, seen[k])
		}
	}
}

// TestOpenLoopChargesStalls: a handler that stalls holds the only client
// connection, so every request due during the stall waits for it, and the
// wait counts in its latency, which runs from the due time.
func TestOpenLoopChargesStalls(t *testing.T) {
	const stall = 300 * time.Millisecond
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { time.Sleep(stall) })
	}))
	defer srv.Close()
	tr := &http.Transport{MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}

	const rate, n = 100.0, 20
	samples, lags := openLoop(context.Background(), rate, make([]int, n), 64, func(ctx context.Context, k int) sample {
		resp, err := hc.Get(srv.URL)
		if err != nil {
			return sample{status: statusFailed, err: err}
		}
		resp.Body.Close()
		return sample{}
	})
	for i, s := range samples {
		if s.status != statusOK {
			t.Fatalf("request %d: %v", i, s.err)
		}
		if want := time.Duration(float64(i) / rate * float64(time.Second)); s.due != want {
			t.Fatalf("request %d due at %v, want %v", i, s.due, want)
		}
		if lags[i] > 100*time.Millisecond {
			t.Errorf("request %d sent %v late: the generator must not wait for replies", i, lags[i])
		}
	}
	// Requests due while the first one stalled complete only after it.
	for i := 1; float64(i)/rate < 0.2; i++ {
		if min := stall - samples[i].due - 20*time.Millisecond; samples[i].latency() < min {
			t.Errorf("request %d due at %v: latency %v, want at least %v", i, samples[i].due, samples[i].latency(), min)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 10, End: 30},
		{Start: 20, End: 40}, // overlaps the first: counted once
		{Start: 90, End: 120},
		{Start: -5, End: 5}, // clipped to the parent
		{Start: 200, End: 300},
	}
	if got := selfTime(parent, children); got != 55 {
		t.Fatalf("self time = %d, want 55 (100 - [0,5] - [10,40] - [90,100])", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children = %d, want 100", got)
	}
}

// TestServerOverheadSubtractsReplay pins server.overhead_ms_p50: each
// handler span minus its key's resolve and library replay, leaving out the
// spans during which the replica built a prefix.
func TestServerOverheadSubtractsReplay(t *testing.T) {
	msec := time.Millisecond
	spans := []span{
		{ID: 1, Req: 1, Name: "server.handle", Start: 0, End: 10 * msec},
		{ID: 2, Req: 2, Name: "server.handle", Start: 0, End: 12 * msec},
		{ID: 3, Req: 3, Name: "server.handle", Start: 0, End: 90 * msec, Built: true},
	}
	keyOf := map[uint64]int{1: 0, 2: 0, 3: 0}
	refs := map[int]reference{0: {resolve: 2 * msec, took: 7 * msec}}
	for _, m := range spanMetrics(spans, keyOf, refs) {
		switch m.name {
		case "server.overhead_ms_p50":
			if m.value != 2 { // median of 10-9 and 12-9
				t.Errorf("overhead = %g ms, want 2", m.value)
			}
		case "server.handle_ms_p50":
			if m.value != 12 { // every span counts here
				t.Errorf("handle = %g ms, want 12", m.value)
			}
		}
	}
}

// TestVerifierCountsCorruptedResponse corrupts one timed response; the run
// must count exactly that one as failed and report itself incorrect.
func TestVerifierCountsCorruptedResponse(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a deployment")
	}
	cfg := config{workload: "design-tune", seed: 1, seconds: 0.5, setups: 1, corrupt: 3}
	res, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.mismatched != 1 || res.failed != 1 || res.correct() {
		t.Fatalf("mismatched %d, failed %d, correct %v; want 1, 1, false", res.mismatched, res.failed, res.correct())
	}

	var out bytes.Buffer
	if err := res.print(&out, false); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got struct {
		Correct   *bool                      `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if got.Correct == nil || *got.Correct || got.Attempted != res.attempted || got.Failed != 1 {
		t.Fatalf("result line %s", lines[len(lines)-1])
	}
	for _, m := range res.e2e {
		if _, ok := got.Metrics[m.name]; !ok {
			t.Errorf("result line lacks %s", m.name)
		}
	}
	if len(got.Metrics) != len(res.e2e) {
		t.Errorf("result line has %d metrics, want %d", len(got.Metrics), len(res.e2e))
	}
}
