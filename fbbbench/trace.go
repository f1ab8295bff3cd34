package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's tracing lives entirely on its side of the program's public
// API: a wrapper around each replica's and the router's http.Handler records
// the handler spans, and a wrapping RoundTripper — handed to the router
// through RouterOptions.HTTPClient and to the load generator's client —
// records the router→replica forward spans and propagates the request ID and
// parent span in two headers it adds itself.

const (
	hdrReq    = "X-Fbbbench-Req"
	hdrParent = "X-Fbbbench-Parent"
)

// span is one timed interval at a layer boundary. Times are offsets from the
// recorder's epoch.
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent"`
	Req    uint64        `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
	// Built marks a replica handler span during which that replica
	// started a prefix build.
	Built bool `json:"built,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory while enabled; the timed phase toggles it so
// one deployment serves the untraced and the traced windows of a traced run.
type recorder struct {
	epoch   time.Time
	enabled atomic.Bool
	nextID  atomic.Uint64
	mu      sync.Mutex
	spans   []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// on reports whether spans are being recorded (nil recorder: never).
func (r *recorder) on() bool { return r != nil && r.enabled.Load() }

func (r *recorder) newID() uint64 { return r.nextID.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// writeFile writes the recorded spans as one JSON array.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanRef is the (request, span) pair a context carries to child layers.
type spanRef struct{ req, id uint64 }

type spanKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	return ref, ok
}

// selfTime is a span's duration minus the part of it that its children
// cover; overlapping children are counted once and children are clipped to
// the parent's interval.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			covered += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b - cur.a
	}
	return parent.dur() - covered
}

// tracingTransport propagates the context's span to the next hop in headers.
// With a span name set it also records a span per round trip — from send
// until the response body is closed, so a streamed relay is covered whole.
type tracingTransport struct {
	base http.RoundTripper
	rec  *recorder
	name string // "" = propagate only
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := spanFrom(req.Context())
	if !ok || !t.rec.on() {
		return t.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	id := ref.id
	var s span
	if t.name != "" {
		id = t.rec.newID()
		s = span{ID: id, Parent: ref.id, Req: ref.req, Name: t.name, Start: t.rec.now()}
	}
	req.Header.Set(hdrReq, strconv.FormatUint(ref.req, 10))
	req.Header.Set(hdrParent, strconv.FormatUint(id, 10))
	resp, err := t.base.RoundTrip(req)
	if t.name == "" {
		return resp, err
	}
	if err != nil {
		s.End = t.rec.now()
		t.rec.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() {
		s.End = t.rec.now()
		t.rec.add(s)
	}}
	return resp, nil
}

// spanBody ends its span once, when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// handlerWrap wraps a replica's or the router's handler. It records the
// handler span when tracing is on, counts the bytes of /v1/yield responses,
// and can corrupt one response — the verifier's self-test.
type handlerWrap struct {
	next http.Handler
	name string
	rec  *recorder
	// yieldBytes counts bytes written on /v1/yield responses.
	yieldBytes atomic.Int64
	// builds counts the replica's prefix builds (its OnPrefixBuild hook).
	builds atomic.Int64
	// corrupt, when armed, counts responses down; the one that takes it
	// to zero gets a digit altered.
	corrupt *corrupter
}

func (h *handlerWrap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cw := &countingWriter{ResponseWriter: w, corrupt: h.corrupt.take()}
	if r.URL.Path == "/v1/yield" {
		cw.count = &h.yieldBytes
	}
	if !h.rec.on() || r.Header.Get(hdrReq) == "" {
		h.next.ServeHTTP(cw, r)
		return
	}
	req, _ := strconv.ParseUint(r.Header.Get(hdrReq), 10, 64)
	parent, _ := strconv.ParseUint(r.Header.Get(hdrParent), 10, 64)
	s := span{ID: h.rec.newID(), Parent: parent, Req: req, Name: h.name, Start: h.rec.now()}
	builds := h.builds.Load()
	h.next.ServeHTTP(cw, r.WithContext(withSpan(r.Context(), spanRef{req: req, id: s.ID})))
	s.End = h.rec.now()
	s.Built = h.builds.Load() != builds
	h.rec.add(s)
}

// corrupter selects one response to corrupt: the n-th response after arm.
type corrupter struct {
	left atomic.Int64
}

func (c *corrupter) arm(n int64) { c.left.Store(n) }

func (c *corrupter) take() bool { return c != nil && c.left.Add(-1) == 0 }

// countingWriter counts written bytes and, when asked, alters the first
// digit of the body so the response stays well-formed but wrong.
type countingWriter struct {
	http.ResponseWriter
	count   *atomic.Int64
	corrupt bool
}

func (w *countingWriter) Write(p []byte) (int, error) {
	if w.count != nil {
		w.count.Add(int64(len(p)))
	}
	if w.corrupt {
		for i, c := range p {
			if c >= '0' && c <= '9' {
				q := slices.Clone(p)
				q[i] = '0' + (c-'0'+1)%10
				w.corrupt = false
				return w.ResponseWriter.Write(q)
			}
		}
	}
	return w.ResponseWriter.Write(p)
}

// Unwrap lets http.ResponseController reach the underlying writer's Flush.
func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
