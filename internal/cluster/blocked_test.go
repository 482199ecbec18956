package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"odeproto/internal/service"
)

// TestRouterServesWhileAForwardHangs: a peer that accepts a forward and never
// answers stalls only that request. While the forward hangs, the router still
// serves a key it owns, forwards a key to a healthy peer, and answers
// /metrics and /v1/healthz, each well inside a deadline only a hang reaches.
// Once the peer answers, the hung request completes. The router holds no
// mutex today; this guards the contract if one is ever added. (The service's
// half is TestNoLockHeldAcrossABlockedCall.)
func TestRouterServesWhileAForwardHangs(t *testing.T) {
	const hangDeadline = 10 * time.Second
	lns := make(map[string]net.Listener)
	var peers []string
	for range 3 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[ln.Addr().String()] = ln
		peers = append(peers, ln.Addr().String())
	}
	peers, err := NormalizePeers(peers)
	if err != nil {
		t.Fatal(err)
	}
	self, hung, healthy := peers[0], peers[1], peers[2]
	serve := func(addr string, h http.Handler) {
		hs := &http.Server{Handler: h}
		go hs.Serve(lns[addr])
		t.Cleanup(func() { hs.Close() })
	}

	// The hung peer passes its health probes and never answers anything else
	// until released.
	entered, release := make(chan struct{}, 1), make(chan struct{})
	serve(hung, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			return
		}
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	open := sync.OnceFunc(func() { close(release) })
	t.Cleanup(open) // before the servers close
	node := func(addr string) *service.Server {
		prefix, err := NodePrefix(peers, addr)
		if err != nil {
			t.Fatal(err)
		}
		svc := service.New(service.Config{Workers: 1, JobIDPrefix: prefix})
		t.Cleanup(svc.Close)
		return svc
	}
	serve(healthy, node(healthy).Handler())
	svc := node(self)
	rt, err := New(Config{Peers: peers, Self: self, Service: svc, probeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	serve(self, rt)

	// One spec per owner, by the ring the router routes with.
	specs := make(map[int]map[string]any)
	for seed := int64(1); len(specs) < len(peers); seed++ {
		if owner := rt.ring.owner(specKey(t, svc, seed)); specs[owner] == nil {
			specs[owner] = testSpec(seed)
		}
	}
	post := func(ctx context.Context, spec map[string]any) (int, error) {
		data, err := json.Marshal(spec)
		if err != nil {
			return 0, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+self+"/v1/jobs", bytes.NewReader(data))
		if err != nil {
			return 0, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	hangs := make(chan error, 1)
	go func() {
		code, err := post(t.Context(), specs[1])
		if err == nil && code != http.StatusServiceUnavailable {
			err = fmt.Errorf("answered %d, want the peer's 503 relayed", code)
		}
		hangs <- err
	}()
	select {
	case <-entered:
	case <-time.After(hangDeadline):
		t.Fatalf("the forward to %s never arrived", hung)
	}

	probes := map[string]func(ctx context.Context) (int, error){
		"POST of a key it owns":            func(ctx context.Context) (int, error) { return post(ctx, specs[0]) },
		"POST forwarded to a healthy peer": func(ctx context.Context) (int, error) { return post(ctx, specs[2]) },
		"metrics":                          getStatus("http://" + self + "/metrics"),
		"healthz":                          getStatus("http://" + self + "/v1/healthz"),
	}
	want := map[string]int{"POST of a key it owns": http.StatusAccepted, "POST forwarded to a healthy peer": http.StatusAccepted,
		"metrics": http.StatusOK, "healthz": http.StatusOK}
	var wg sync.WaitGroup
	for name, probe := range probes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), hangDeadline)
			defer cancel()
			code, err := probe(ctx)
			switch {
			case ctx.Err() != nil:
				t.Errorf("%s: still blocked after %v while a forward hangs", name, hangDeadline)
			case err != nil:
				t.Errorf("%s: %v", name, err)
			case code != want[name]:
				t.Errorf("%s answered %d", name, code)
			}
		}()
	}
	wg.Wait()

	open()
	select {
	case err := <-hangs:
		if err != nil {
			t.Errorf("the hung forward, once answered: %v", err)
		}
	case <-time.After(hangDeadline):
		t.Error("the hung forward did not complete once the peer answered")
	}
}

// getStatus returns a probe that GETs url.
func getStatus(url string) func(ctx context.Context) (int, error) {
	return func(ctx context.Context) (int, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return 0, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}
}
