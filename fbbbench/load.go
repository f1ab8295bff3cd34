package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

type status int

const (
	statusOK status = iota
	statusShed
	statusFailed
)

// sample is one sent request as the load generator saw it. Times are offsets
// from the start of the timed phase; a closed-loop request is due when it is
// sent.
type sample struct {
	key             int
	due, start, end time.Duration
	// client and pass number a closed-loop request's client and that
	// client's pass over the keys.
	client, pass int
	status       status
	err          error
	// digest is the SHA-256 of the response as decoded and re-encoded by
	// the client; the verifier compares it with the reference.
	digest [32]byte
	dies   int
	ilp    *serve.ILPDiag
}

// latency is measured from the due time, so a stall that delays later sends
// is charged to the requests it delayed.
func (s sample) latency() time.Duration { return s.end - s.due }

// executor sends one workload key through a serve.Client.
type executor struct {
	w   *workload
	rec *recorder
	// reqs numbers traced requests; keyOf maps each number to its key.
	reqs  atomic.Uint64
	mu    sync.Mutex
	keyOf map[uint64]int
}

// tracedKeys returns the key of every traced request by request ID.
func (e *executor) tracedKeys() map[uint64]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.keyOf
}

// send issues key k on client c, recording a client span when tracing.
func (e *executor) send(ctx context.Context, c *serve.Client, k int) sample {
	s := sample{key: k}
	if e.rec.on() {
		id := e.rec.newID()
		sp := span{ID: id, Req: e.reqs.Add(1), Name: "client.request", Start: e.rec.now()}
		defer func() {
			sp.End = e.rec.now()
			e.rec.add(sp)
		}()
		ctx = withSpan(ctx, spanRef{req: sp.Req, id: id})
		e.mu.Lock()
		if e.keyOf == nil {
			e.keyOf = map[uint64]int{}
		}
		e.keyOf[sp.Req] = k
		e.mu.Unlock()
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	spec := e.w.keys[k]
	var err error
	switch spec.kind {
	case kindTune, kindDie:
		var resp *serve.TuneResponse
		if resp, err = c.Tune(ctx, spec.tune); err == nil {
			s.ilp = resp.ILP
			err = enc.Encode(resp)
		}
	case kindTable1:
		var resp *serve.Table1Response
		if resp, err = c.Table1(ctx, spec.table1); err == nil {
			err = enc.Encode(resp)
		}
	case kindYield:
		var st *serve.YieldStatsJSON
		st, err = c.Yield(ctx, spec.yield, func(d *serve.DieResult) error {
			s.dies++
			return enc.Encode(d)
		})
		if err == nil {
			err = enc.Encode(serve.YieldFooter{Stats: st})
		}
	}
	var apiErr *serve.APIError
	switch {
	case err == nil:
		s.digest = sha256.Sum256(buf.Bytes())
	case errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusServiceUnavailable:
		s.status, s.err = statusShed, err
	default:
		s.status, s.err = statusFailed, err
	}
	return s
}

// closedLoop runs clients that each send their next request only after the
// previous one completed. A client stops at the first pass boundary — a
// multiple of pass requests — after d has passed since start: the keys
// differ in cost several-fold, so a run cut mid-pass would weigh its mix,
// and with it the throughput and the percentiles, by where the cut fell.
func closedLoop(ctx context.Context, clients, pass int, d time.Duration, next func(client int) int,
	send func(ctx context.Context, client, key int) sample) []sample {
	start := time.Now()
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ctx.Err() == nil && (i%pass != 0 || time.Since(start) < d); i++ {
				k := next(c)
				t0 := time.Since(start)
				s := send(ctx, c, k)
				s.due, s.start, s.end = t0, t0, time.Since(start)
				s.client, s.pass = c, i/pass
				per[c] = append(per[c], s)
			}
		}()
	}
	wg.Wait()
	var out []sample
	for _, ss := range per {
		out = append(out, ss...)
	}
	return out
}

// openLoop sends len(keys) requests on a fixed schedule of rate per second,
// each in its own goroutine whether or not earlier ones have completed, and
// returns the samples in schedule order with each send's lag behind its due
// time. At most maxInflight requests are outstanding; a request due beyond
// that is shed unsent rather than delaying the schedule.
func openLoop(ctx context.Context, rate float64, keys []int, maxInflight int,
	send func(ctx context.Context, key int) sample) (out []sample, lags []time.Duration) {
	out = make([]sample, len(keys))
	lags = make([]time.Duration, len(keys))
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	for i, k := range keys {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		if wait := due - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		now := time.Since(start)
		lags[i] = now - due
		select {
		case sem <- struct{}{}:
		default:
			// The generator sheds it, like a saturated server would.
			out[i] = sample{key: k, due: due, start: now, end: now, status: statusShed,
				err: fmt.Errorf("open loop: %d requests outstanding", maxInflight)}
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			s := send(ctx, k)
			s.due, s.start, s.end = due, now, time.Since(start)
			out[i] = s
		}()
	}
	wg.Wait()
	return out, lags
}

// procStats are the runtime/metrics the benchmark reads.
type procStats struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

var procMetricNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readProc() procStats {
	ss := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	return procStats{allocBytes: ss[0].Value.Uint64(), gcCPU: ss[1].Value.Float64(), totalCPU: ss[2].Value.Float64()}
}

// heapWatch records the live heap after every GC cycle of the timed phase.
// The phase starts with a forced GC, so there is always a first reading.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	live []float64 // bytes, one per GC cycle
}

func startHeapWatch() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	ss := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		var cycles uint64
		for {
			metrics.Read(ss)
			if c := ss[0].Value.Uint64(); c != cycles || len(h.live) == 0 {
				cycles = c
				h.live = append(h.live, float64(ss[1].Value.Uint64()))
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// end stops watching and returns the per-cycle live heap readings.
func (h *heapWatch) end() []float64 {
	close(h.stop)
	<-h.done
	return h.live
}
