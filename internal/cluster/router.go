package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"odeproto/internal/obs"
	"odeproto/internal/service"
)

// Forwarded requests carry the sender's ring fingerprint. Its presence
// means "already routed, serve locally" (one hop maximum — a proxy loop
// is structurally impossible); its value lets the receiver detect that
// the two nodes were started with different -peers lists.
const headerForwarded = "X-Odeproto-Ring"

// headerRingMismatch marks a 502 as a ring-disagreement rejection so the
// forwarding node passes it through verbatim instead of retrying it onto
// a successor: a config error should surface, not be papered over.
const headerRingMismatch = "X-Odeproto-Ring-Mismatch"

// maxSpecBytes bounds how much of a POST /v1/jobs body the router reads
// to compute the routing key. Larger bodies than any valid spec (the
// limits cap ODE source length and numeric ranges far below this) are
// served locally and rejected there.
const maxSpecBytes = 8 << 20

// Config wires a Router in front of a local service instance.
type Config struct {
	// Peers is the full static cluster membership, self included, as
	// host:port. Every node must be started with the same list.
	Peers []string
	// Self is this node's entry in Peers.
	Self string
	// Service is the local instance requests resolve to when this node
	// is (or substitutes for) the key's owner.
	Service *service.Server
	// VNodes is the ring points per node (default 64).
	VNodes int
	// ProbeInterval is the health-check period (default 1s);
	// ProbeTimeout bounds one probe (default 750ms).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// DialTimeout bounds connection establishment to a peer (default
	// 2s). Established connections have no overall deadline: job streams
	// are long-lived by design.
	DialTimeout time.Duration
	// Metrics receives the router's counters and the per-peer liveness
	// gauge (the peer label set is the boot-fixed peer list, so its
	// cardinality is bounded). nil gets a private registry.
	Metrics *obs.Registry
	// Logger receives routing decisions (forwards with their trace ID,
	// peer up/down transitions). nil discards.
	Logger *slog.Logger
}

// clusterMetrics is every counter the router maintains, rendered at GET
// /metrics with the local service's.
type clusterMetrics struct {
	ownerLocal     *obs.Counter
	forwarded      *obs.Counter
	retried        *obs.Counter
	ringMismatches *obs.Counter
	probeFailures  *obs.Counter
	peerAlive      *obs.GaugeVec
	forwardLatency *obs.HistogramVec
}

func newClusterMetrics(r *obs.Registry) *clusterMetrics {
	return &clusterMetrics{
		ownerLocal: r.Counter("odeproto_cluster_owner_local_total",
			"Key-routed requests this node owned and served itself."),
		forwarded: r.Counter("odeproto_cluster_forwarded_total",
			"Requests proxied to another node."),
		retried: r.Counter("odeproto_cluster_retried_total",
			"Requests that fell through to a ring successor because a preferred node was down."),
		ringMismatches: r.Counter("odeproto_cluster_ring_mismatches_total",
			"Forwards rejected because the peer was started with a different -peers list."),
		probeFailures: r.Counter("odeproto_cluster_probe_failures_total",
			"Failed health probes of remote peers."),
		peerAlive: r.GaugeVec("odeproto_cluster_peer_alive",
			"Peer liveness as seen by this node (1 = alive; the static peer list bounds the label set).",
			"peer"),
		forwardLatency: r.HistogramVec("odeproto_cluster_forward_latency_seconds",
			"Round-trip time of requests proxied to a peer, including its handling. Buckets carry the forwarded trace ID as an exemplar.",
			obs.DefBuckets, "peer"),
	}
}

// Router is the cluster front-end an odeprotod node serves instead of
// the bare service mux. It owns the ring, the per-peer health state, the
// pooled forwarding client, and the background prober.
type Router struct {
	ring        *ring
	self        int
	selfAddr    string
	fp          string
	local       http.Handler
	svc         *service.Server
	client      *http.Client // forwards: pooled, no overall deadline
	probeClient *http.Client // probes: short per-request timeout
	peers       []*peerState // indexed like ring.nodes

	probeInterval time.Duration
	probeWG       sync.WaitGroup
	stop          chan struct{}
	closeOnce     sync.Once

	// met holds the routing counters (owner-local, forwarded, retried,
	// ring-mismatch, probe-failure) and the per-peer liveness gauge in
	// the obs registry.
	met *clusterMetrics
	log *slog.Logger
}

// New validates the membership, builds the ring, and starts the health
// prober. Callers must Close the router to stop the prober.
func New(cfg Config) (*Router, error) {
	nodes, err := NormalizePeers(cfg.Peers)
	if err != nil {
		return nil, err
	}
	self := -1
	selfNorm := strings.ToLower(strings.TrimSpace(cfg.Self))
	for i, n := range nodes {
		if n == selfNorm {
			self = i
			break
		}
	}
	if self < 0 {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list %v", cfg.Self, nodes)
	}
	if cfg.Service == nil {
		return nil, fmt.Errorf("cluster: no local service configured")
	}
	vnodes := cfg.VNodes
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	probeInterval := cfg.ProbeInterval
	if probeInterval <= 0 {
		probeInterval = defaultProbeInterval
	}
	probeTimeout := cfg.ProbeTimeout
	if probeTimeout <= 0 {
		probeTimeout = defaultProbeTimeout
	}
	dialTimeout := cfg.DialTimeout
	if dialTimeout <= 0 {
		dialTimeout = 2 * time.Second
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	transport := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: dialTimeout}).DialContext,
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
		// The router is a proxy, not a client: the transport must neither
		// inject its own Accept-Encoding: gzip nor transparently decompress
		// (which would strip Content-Encoding/Length and re-buffer bodies).
		// forward() passes the client's own Accept-Encoding through, and
		// relay copies the owner's response — compressed or not — verbatim.
		DisableCompression: true,
	}
	rt := &Router{
		ring:          newRing(nodes, vnodes),
		self:          self,
		selfAddr:      nodes[self],
		fp:            fingerprint(nodes, vnodes),
		local:         cfg.Service.Handler(),
		svc:           cfg.Service,
		client:        &http.Client{Transport: transport},
		probeClient:   &http.Client{Transport: transport, Timeout: probeTimeout},
		peers:         make([]*peerState, len(nodes)),
		probeInterval: probeInterval,
		stop:          make(chan struct{}),
		met:           newClusterMetrics(reg),
		log:           logger,
	}
	for i, n := range nodes {
		rt.peers[i] = &peerState{addr: n}
		rt.peers[i].alive.Store(true)
		rt.met.peerAlive.With(n).Set(1) // presumed alive until a probe says otherwise
	}
	logger.Info("joined cluster ring", "self", rt.selfAddr, "ring", rt.fp,
		"job_id_prefix", rt.JobIDPrefix(), "peers", len(nodes))
	rt.probeWG.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// Close stops the health prober and drops pooled connections. The local
// service is not touched; its lifetime belongs to the caller.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() {
		close(rt.stop)
		rt.probeWG.Wait()
		if t, ok := rt.client.Transport.(*http.Transport); ok {
			t.CloseIdleConnections()
		}
	})
}

// JobIDPrefix returns the prefix the local service must issue job IDs
// under ("n<ring index>-") so any node can route an ID back to the node
// holding the job. Derive it with NodePrefix before building the
// service, from the same peer list.
func (rt *Router) JobIDPrefix() string { return nodePrefix(rt.self) }

// NodePrefix computes the job-ID prefix for self within peers — the
// service needs it at construction time, before the Router exists.
func NodePrefix(peers []string, self string) (string, error) {
	nodes, err := NormalizePeers(peers)
	if err != nil {
		return "", err
	}
	selfNorm := strings.ToLower(strings.TrimSpace(self))
	for i, n := range nodes {
		if n == selfNorm {
			return nodePrefix(i), nil
		}
	}
	return "", fmt.Errorf("cluster: self %q is not in the peer list %v", self, nodes)
}

func nodePrefix(idx int) string { return fmt.Sprintf("n%d-", idx) }

// jobIDNode parses the node index out of a prefixed job ID
// ("n2-j000017" → 2). IDs without a parseable prefix route locally —
// they may predate clustering.
func jobIDNode(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "n")
	if !ok {
		return 0, false
	}
	dash := strings.IndexByte(rest, '-')
	if dash <= 0 {
		return 0, false
	}
	n := 0
	for _, c := range rest[:dash] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// ServeHTTP routes one request: forwarded requests are served locally
// after a fingerprint check, job submissions and result fetches route by
// content address, job-ID endpoints route by the ID's node prefix, and
// everything else (compile, list, metrics, healthz) is local.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if fp := r.Header.Get(headerForwarded); fp != "" {
		if fp != rt.fp {
			rt.met.ringMismatches.Inc()
			rt.log.Warn("rejected forward from mismatched ring", "peer_ring", fp, "ring", rt.fp)
			w.Header().Set(headerRingMismatch, "1")
			writeJSON(w, http.StatusBadGateway, map[string]string{
				"error": fmt.Sprintf(
					"cluster ring mismatch: forwarding peer runs ring %s, this node (%s) runs ring %s over peers %v — every node must be started with an identical -peers list",
					fp, rt.selfAddr, rt.fp, rt.ring.nodes),
			})
			return
		}
		rt.local.ServeHTTP(w, r)
		return
	}

	path := r.URL.Path
	switch {
	case r.Method == http.MethodPost && path == "/v1/jobs":
		rt.routeSubmit(w, r)
	case r.Method == http.MethodGet && strings.HasPrefix(path, "/v1/results/"):
		rt.routeResult(w, r, strings.TrimPrefix(path, "/v1/results/"))
	case strings.HasPrefix(path, "/v1/jobs/"):
		rt.routeJob(w, r, strings.TrimPrefix(path, "/v1/jobs/"))
	default:
		rt.local.ServeHTTP(w, r)
	}
}

// routeSubmit reads the spec, computes its content address, and hands
// the request to the key's owner — locally when this node owns the key,
// otherwise proxied, falling through to ring successors while the
// preferred nodes are down. Bodies that fail to decode or validate are
// served locally so the client gets the service's own 400.
func (rt *Router) routeSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "reading request body: " + err.Error()})
		return
	}
	if len(body) > maxSpecBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{
			"error": fmt.Sprintf("request body exceeds %d bytes", maxSpecBytes)})
		return
	}
	// Mint the trace ID at the first node the client touched: however
	// many hops the submit takes, every involved node logs the same ID.
	if !obs.ValidTraceID(r.Header.Get(obs.TraceHeader)) {
		r.Header.Set(obs.TraceHeader, obs.NewTraceID())
	}
	var spec service.JobSpec
	key := ""
	if json.Unmarshal(body, &spec) == nil {
		if k, err := rt.svc.RouteKey(spec); err == nil {
			key = k
		}
	}
	if key == "" {
		// Not routable: let the local service produce the 400 (or, for a
		// spec our lenient decode missed but the strict one accepts,
		// serve it here — this node then owns the job).
		rt.serveLocal(w, r, body)
		return
	}
	rt.routeByKey(w, r, key, body, false)
}

// routeResult serves GET /v1/results/{key}. The key's owner is asked
// first; on a 404 the live successors are tried too, because a result
// computed during the owner's downtime was persisted by whichever
// successor substituted.
func (rt *Router) routeResult(w http.ResponseWriter, r *http.Request, key string) {
	rt.routeByKey(w, r, key, nil, true)
}

// routeByKey walks key's ring order — owner first, then successors —
// skipping peers marked down, and resolves the request at the first node
// that answers. A transport failure marks the peer down and moves on; a
// 404 moves on only in retryOn404 mode (result fetches). When every peer
// is marked down the walk runs once more ignoring the marks, so health
// staleness can delay a request but never fail one the cluster could
// serve.
func (rt *Router) routeByKey(w http.ResponseWriter, r *http.Request, key string, body []byte, retryOn404 bool) {
	order := rt.ring.successors(key)
	candidates := make([]int, 0, len(order))
	for _, n := range order {
		if n == rt.self || rt.peers[n].alive.Load() {
			candidates = append(candidates, n)
		}
	}
	if len(candidates) == 0 {
		candidates = order // all marked down: try them anyway
	}

	var last404 *http.Response
	defer func() {
		if last404 != nil {
			last404.Body.Close()
		}
	}()
	for i, n := range candidates {
		if n != order[0] {
			// Resolving anywhere but the key's true owner is a retry,
			// whether the owner failed a forward or was already marked down.
			rt.met.retried.Inc()
		}
		if n == rt.self {
			if n == order[0] {
				rt.met.ownerLocal.Inc()
			}
			if retryOn404 && i < len(candidates)-1 && !rt.svc.HasResult(key) {
				// A cheap presence probe (LRU map lookup, else a blob open)
				// decides the fall-through — the response itself streams
				// straight to the client, never into a buffering recorder.
				continue
			}
			rt.serveLocal(w, r, body)
			return
		}
		resp, err := rt.forward(r, rt.peers[n].addr, body)
		if err != nil {
			rt.markPeerDown(n, err)
			continue
		}
		rt.met.forwarded.Inc()
		rt.log.Info("forwarded request", "target", rt.peers[n].addr, "path", r.URL.Path,
			"key", key, "trace", r.Header.Get(obs.TraceHeader), "retry", n != order[0])
		if retryOn404 && resp.StatusCode == http.StatusNotFound && i < len(candidates)-1 {
			if last404 != nil {
				last404.Body.Close()
			}
			last404 = resp // keep one 404 to relay if everyone misses
			continue
		}
		relay(w, resp)
		return
	}
	if last404 != nil {
		relay(w, last404)
		last404 = nil
		return
	}
	writeJSON(w, http.StatusBadGateway, map[string]string{
		"error": fmt.Sprintf("no live node for key %s: tried %s", key, rt.addrList(candidates)),
	})
}

// routeJob resolves /v1/jobs/{id}... endpoints (status, cancel, stream,
// figure) by the ID's node prefix. Job state lives only on the node that
// accepted the job, so there is no successor to retry: an unreachable
// home node is a diagnosable 502.
func (rt *Router) routeJob(w http.ResponseWriter, r *http.Request, idPath string) {
	id, _, _ := strings.Cut(idPath, "/")
	home, ok := jobIDNode(id)
	if !ok || home == rt.self || home >= len(rt.peers) {
		rt.local.ServeHTTP(w, r)
		return
	}
	resp, err := rt.forward(r, rt.peers[home].addr, nil)
	if err != nil {
		rt.markPeerDown(home, err)
		writeJSON(w, http.StatusBadGateway, map[string]string{
			"error": fmt.Sprintf("job %s lives on %s, which is unreachable: %v", id, rt.peers[home].addr, err),
		})
		return
	}
	rt.met.forwarded.Inc()
	rt.log.Info("forwarded request", "target", rt.peers[home].addr, "path", r.URL.Path, "job", id)
	relay(w, resp)
}

// serveLocal hands the request to the local service mux, restoring the
// consumed body when the submit path read it for routing.
func (rt *Router) serveLocal(w http.ResponseWriter, r *http.Request, body []byte) {
	if body != nil {
		r2 := r.Clone(r.Context())
		r2.Body = io.NopCloser(bytes.NewReader(body))
		r2.ContentLength = int64(len(body))
		r = r2
	}
	rt.local.ServeHTTP(w, r)
}

// forward replays the request against addr and returns the peer's
// response for the caller to relay or retry. The ring fingerprint header
// makes the receiver serve it locally (or reject a mismatched ring).
func (rt *Router) forward(r *http.Request, addr string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, "http://"+addr+r.URL.RequestURI(), rd)
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if tid := r.Header.Get(obs.TraceHeader); tid != "" {
		req.Header.Set(obs.TraceHeader, tid)
	}
	// Conditional-GET and content-negotiation headers pass through so the
	// owner can answer 304s and serve its cached gzip variant; relay then
	// copies ETag/Content-Encoding back verbatim (the transport never
	// decompresses — DisableCompression).
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	if ae := r.Header.Get("Accept-Encoding"); ae != "" {
		req.Header.Set("Accept-Encoding", ae)
	}
	req.Header.Set(headerForwarded, rt.fp)
	start := time.Now()
	resp, err := rt.client.Do(req)
	if err == nil {
		// ObserveTraced drops the exemplar when the request carried no
		// trace ID (status polls), keeping the latency sample either way.
		rt.met.forwardLatency.With(addr).ObserveTraced(
			time.Since(start).Seconds(), req.Header.Get(obs.TraceHeader))
	}
	return resp, err
}

// relay streams a peer's response to the client, flushing after every
// read so proxied NDJSON job streams stay live row-by-row.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

func (rt *Router) addrList(nodes []int) string {
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = rt.peers[n].addr
	}
	return strings.Join(addrs, ", ")
}

// writeJSON buffers the encoded body so router-originated responses carry
// an exact Content-Length, matching the service's own framing.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	data, err := json.Marshal(v)
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	data = append(data, '\n')
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(status)
	_, _ = w.Write(data)
}
