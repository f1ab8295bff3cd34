package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/serve"
)

// deployment is one in-process fbbd, or a fbbrouter in front of replicas,
// each on its own loopback HTTP listener.
type deployment struct {
	front    string // base URL the load generator talks to
	replicas []*node
	router   *serve.Router
	routerN  *node
	fwd      *http.Transport // router -> replica transport
}

type node struct {
	url string
	hs  *http.Server
	h   *handlerWrap
	// done is closed when Serve has returned.
	done chan struct{}
}

// listen starts an HTTP server for h on addr ("127.0.0.1:0" = any port).
func listen(addr string, h *handlerWrap) (*node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	n := &node{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, h: h, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return n, nil
}

// deploy starts the workload's servers. Replicas of a routed deployment bind
// the fixed addresses in addrs: the router's hash ring hashes replica
// addresses, so ephemeral ports would reshuffle design ownership — and with
// it cache locality and per-replica load — on every run.
func deploy(w *workload, addrs []string, rec *recorder, corrupt *corrupter) (*deployment, error) {
	dep := &deployment{}
	n := max(w.replicas, 1)
	if w.replicas > 0 && len(addrs) < n {
		return nil, fmt.Errorf("need %d replica addresses, have %d", n, len(addrs))
	}
	for i := 0; i < n; i++ {
		addr := "127.0.0.1:0"
		if w.replicas > 0 {
			addr = addrs[i]
		}
		h := &handlerWrap{name: "server.handle", rec: rec}
		h.next = serve.New(serve.Options{OnPrefixBuild: func(string) { h.builds.Add(1) }}).Handler()
		nd, err := listen(addr, h)
		if err != nil {
			dep.stop()
			return nil, err
		}
		dep.replicas = append(dep.replicas, nd)
	}
	if w.replicas == 0 {
		dep.front = dep.replicas[0].url
		dep.replicas[0].h.corrupt = corrupt
		return dep, nil
	}
	urls := make([]string, n)
	for i, r := range dep.replicas {
		urls[i] = r.url
	}
	dep.fwd = &http.Transport{MaxIdleConnsPerHost: 16}
	rt, err := serve.NewRouter(serve.RouterOptions{
		Replicas:   urls,
		HTTPClient: &http.Client{Transport: &tracingTransport{base: dep.fwd, rec: rec, name: "router.forward"}},
	})
	if err != nil {
		dep.stop()
		return nil, err
	}
	dep.router = rt
	h := &handlerWrap{next: rt.Handler(), name: "router.handle", rec: rec, corrupt: corrupt}
	nd, err := listen("127.0.0.1:0", h)
	if err != nil {
		dep.stop()
		return nil, err
	}
	dep.routerN, dep.front = nd, nd.url
	return dep, nil
}

// waitHealthy polls the front's /healthz until it answers ok (and, for a
// router, sees every replica in its ring).
func (dep *deployment) waitHealthy(ctx context.Context, hc *http.Client) error {
	if dep.router != nil {
		dep.router.CheckNow(ctx)
	}
	for {
		ok, err := dep.healthy(ctx, hc)
		if ok {
			return nil
		}
		select {
		case <-ctx.Done():
			return errors.Join(ctx.Err(), err)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (dep *deployment) healthy(ctx context.Context, hc *http.Client) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, dep.front+"/healthz", nil)
	if err != nil {
		return false, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	var body struct {
		Status   string `json:"status"`
		Replicas int    `json:"replicas"`
		Healthy  int    `json:"healthy"`
	}
	if err := decodeBody(resp, &body); err != nil {
		return false, err
	}
	return body.Status == "ok" && body.Healthy == body.Replicas, nil
}

// stop shuts every server down and waits for them and the router's health
// loops to exit.
func (dep *deployment) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	nodes := append([]*node{dep.routerN}, dep.replicas...)
	for _, nd := range nodes {
		if nd != nil {
			_ = nd.hs.Shutdown(ctx)
			<-nd.done
		}
	}
	if dep.router != nil {
		dep.router.Close()
	}
	if dep.fwd != nil {
		dep.fwd.CloseIdleConnections()
	}
}

// replicaStats snapshots every replica's /v1/stats.
func (dep *deployment) replicaStats(ctx context.Context, hc *http.Client) ([]*serve.StatsResponse, error) {
	out := make([]*serve.StatsResponse, len(dep.replicas))
	for i, r := range dep.replicas {
		st, err := serve.NewClientWith(r.url, hc).Stats(ctx)
		if err != nil {
			return nil, fmt.Errorf("stats of %s: %w", r.url, err)
		}
		out[i] = st
	}
	return out, nil
}

// clusterStats snapshots the router's view (nil without a router).
func (dep *deployment) clusterStats(ctx context.Context, hc *http.Client) (*serve.ClusterStatsResponse, error) {
	if dep.router == nil {
		return nil, nil
	}
	return serve.NewClientWith(dep.front, hc).ClusterStats(ctx)
}

func decodeBody(resp *http.Response, v any) error {
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
