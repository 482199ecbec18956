package cluster

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

const (
	defaultProbeInterval = 1 * time.Second
	defaultProbeTimeout  = 750 * time.Millisecond
)

// peerState tracks one remote peer's reachability. Nodes start presumed
// alive (marking them down before the first probe would shed load from a
// healthy cluster at startup); a failed forward or probe marks them down
// immediately, and only a successful probe of /v1/healthz brings them
// back. The router skips down peers when choosing a forwarding target
// but falls back to trying them anyway when every candidate is down —
// a stale verdict must never turn a routable request into an error.
type peerState struct {
	addr  string
	alive atomic.Bool
}

// markPeerDown records a failed forward or probe: peer state, the
// liveness gauge, and — on the alive→down transition only — a log line.
func (rt *Router) markPeerDown(i int, err error) {
	p := rt.peers[i]
	if p.alive.Swap(false) {
		rt.met.peerAlive.With(p.addr).Set(0)
		rt.log.Warn("peer down", "peer", p.addr, "err", err)
	}
}

// markPeerUp records a successful probe (the only path that revives a
// peer).
func (rt *Router) markPeerUp(i int) {
	p := rt.peers[i]
	if !p.alive.Swap(true) {
		rt.met.peerAlive.With(p.addr).Set(1)
		rt.log.Info("peer up", "peer", p.addr)
	}
}

// probeLoop polls every remote peer's /v1/healthz until stop is closed.
// It is the recovery path: forwards mark peers down passively, but only
// the prober marks them back up.
func (rt *Router) probeLoop() {
	defer rt.probeWG.Done()
	ticker := time.NewTicker(rt.probeInterval)
	defer ticker.Stop()
	for {
		rt.probeAll()
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
		}
	}
}

func (rt *Router) probeAll() {
	for i, p := range rt.peers {
		if i == rt.self {
			continue
		}
		if err := rt.probe(p.addr); err != nil {
			rt.markPeerDown(i, err)
			rt.met.probeFailures.Inc()
		} else {
			rt.markPeerUp(i)
		}
	}
}

func (rt *Router) probe(addr string) error {
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/v1/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := rt.probeClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz returned %s", resp.Status)
	}
	return nil
}
