package cluster

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"odeproto/internal/obs"
	"odeproto/internal/service"
)

// testNode is one in-process cluster member: a real TCP listener, a
// service instance, and the router in front of it, plus the node's obs
// registry and captured structured log (the trace/metrics tests read
// them back).
type testNode struct {
	addr string
	svc  *service.Server
	rt   *Router
	hs   *http.Server
	reg  *obs.Registry
	logs *syncBuf
}

func (n *testNode) base() string { return "http://" + n.addr }

// startTestCluster boots n odeprotod-shaped nodes on loopback ports, all
// sharing one peer list, and returns them indexed like the normalized
// list (ports ascend with the index only by accident — look addresses up
// via the returned nodes).
func startTestCluster(t *testing.T, n int) []*testNode {
	t.Helper()
	lnByAddr := make(map[string]net.Listener, n)
	peers := make([]string, n)
	for i := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lnByAddr[ln.Addr().String()] = ln
		peers[i] = ln.Addr().String()
	}
	// Reorder to the normalized (sorted) list so nodes[i] is ring node i:
	// the ring sorts its membership, and loopback ports don't allocate in
	// lexicographic order.
	peers, err := NormalizePeers(peers)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*testNode, n)
	for i, addr := range peers {
		ln := lnByAddr[addr]
		prefix, err := NodePrefix(peers, addr)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		logs := &syncBuf{}
		logger := obs.NewLeveledLogger(logs, addr, slog.LevelInfo)
		svc := service.New(service.Config{
			Workers: 1, JobIDPrefix: prefix,
			Metrics: reg, Logger: logger, Node: addr,
		})
		rt, err := New(Config{
			Peers:         peers,
			Self:          peers[i],
			Service:       svc,
			probeInterval: 100 * time.Millisecond,
			probeTimeout:  500 * time.Millisecond,
			Metrics:       reg,
			Logger:        logger,
		})
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: rt}
		go hs.Serve(ln)
		node := &testNode{addr: peers[i], svc: svc, rt: rt, hs: hs, reg: reg, logs: logs}
		nodes[i] = node
		t.Cleanup(func() {
			hs.Close()
			rt.Close()
			svc.Close()
		})
	}
	return nodes
}

// testSpec is a sweep small enough to finish in well under a second.
func testSpec(seed int64) map[string]any {
	return map[string]any{
		"source":  "x' = -x*y\ny' = x*y\n",
		"n":       300,
		"initial": map[string]int{"x": 290, "y": 10},
		"periods": 20,
		"seed":    seed,
	}
}

// specKey computes the content address the cluster routes testSpec(seed)
// by, through the same RouteKey path the router uses.
func specKey(t *testing.T, svc *service.Server, seed int64) string {
	t.Helper()
	spec := service.JobSpec{
		Source:  "x' = -x*y\ny' = x*y\n",
		N:       300,
		Initial: map[string]int{"x": 290, "y": 10},
		Periods: 20,
		Seed:    seed,
	}
	key, err := svc.RouteKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func pollDone(t *testing.T, base, id string, timeout time.Duration) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var st service.JobStatus
		code, body := getBody(t, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: %d %s", id, code, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("bad job body %q: %v", body, err)
		}
		switch st.Status {
		case service.StatusDone:
			return st
		case service.StatusFailed, service.StatusCancelled:
			t.Fatalf("job %s terminated %s: %s", id, st.Status, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, st.Status, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterSingleExecution is the tentpole acceptance path: the same
// spec POSTed through every node of a 3-node ring lands on one owner,
// runs exactly one sweep cluster-wide, and is readable (job status and
// result blob) through any node.
func TestClusterSingleExecution(t *testing.T) {
	nodes := startTestCluster(t, 3)
	key := specKey(t, nodes[0].svc, 1)
	owner := nodes[0].rt.ring.owner(key)

	var ids []string
	for i, n := range nodes {
		code, body := postJSON(t, n.base()+"/v1/jobs", testSpec(1))
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("submit via node %d: %d %s", i, code, body)
		}
		var st service.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.CacheKey != key {
			t.Fatalf("node %d filed the job under %s, want %s", i, st.CacheKey, key)
		}
		// Routed submission: the job must have been created on the key's
		// owner, whichever node took the POST.
		if want := nodePrefix(owner); !strings.HasPrefix(st.ID, want) {
			t.Fatalf("job %s not owned by ring owner %s (prefix %s)", st.ID, nodes[owner].addr, want)
		}
		ids = append(ids, st.ID)
		// Wait through a different node each time, so the ID-routed proxy
		// path (GET /v1/jobs/{id} on a non-owner) is exercised too.
		pollDone(t, nodes[(i+1)%len(nodes)].base(), st.ID, time.Minute)
	}

	// One sweep cluster-wide: POST 2 and 3 were cache hits or coalesced
	// onto the first job at the owner, never re-runs elsewhere.
	var sweeps int64
	for _, n := range nodes {
		sweeps += n.svc.SweepsExecuted()
	}
	if sweeps != 1 {
		t.Fatalf("cluster executed %d sweeps for one spec, want 1", sweeps)
	}
	if nodes[owner].svc.SweepsExecuted() != 1 {
		t.Fatal("the sweep did not run on the ring owner")
	}

	// The result blob is readable through every node, byte-identically.
	var first []byte
	for i, n := range nodes {
		code, body := getBody(t, n.base()+"/v1/results/"+key)
		if code != http.StatusOK {
			t.Fatalf("GET result via node %d: %d %s", i, code, body)
		}
		if first == nil {
			first = body
		} else if !bytes.Equal(first, body) {
			t.Fatalf("result bytes differ between nodes")
		}
	}

	// A non-owner forwarded something, and sees every peer.
	fams := scrapeNode(t, nodes[(owner+1)%3])
	if n := metricValue(fams, "odeproto_cluster_forwarded_total", nil); n < 1 {
		t.Fatalf("non-owner reports %g forwards", n)
	}
	if peers := len(fams["odeproto_cluster_peer_alive"].Samples); peers != 3 {
		t.Fatalf("odeproto_cluster_peer_alive has %d peers, want 3", peers)
	}
}

// TestClusterOwnerDownFailover is the failure-path acceptance test: with
// the key's owner dead, a POST through a surviving node completes on the
// next live ring successor and the result matches a standalone run of
// the same spec byte for byte.
func TestClusterOwnerDownFailover(t *testing.T) {
	nodes := startTestCluster(t, 3)
	key := specKey(t, nodes[0].svc, 42)
	owner := nodes[0].rt.ring.owner(key)

	// Kill the owner: its listener and connections drop, dials get
	// connection-refused. Its router/service stay allocated (cleanup
	// closes them) — the cluster sees only the dead TCP endpoint.
	nodes[owner].hs.Close()

	submitter := (owner + 1) % 3
	code, body := postJSON(t, nodes[submitter].base()+"/v1/jobs", testSpec(42))
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit with dead owner: %d %s", code, body)
	}
	var st service.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(st.ID, nodePrefix(owner)) {
		t.Fatalf("job %s landed on the dead owner", st.ID)
	}
	done := pollDone(t, nodes[submitter].base(), st.ID, time.Minute)

	// The substitute node ran the sweep; somebody counted a retry.
	var sweeps, retried int64
	for i, n := range nodes {
		if i != owner {
			sweeps += n.svc.SweepsExecuted()
			retried += n.rt.met.retried.Value()
		}
	}
	if sweeps != 1 {
		t.Fatalf("surviving nodes executed %d sweeps, want 1", sweeps)
	}
	if retried < 1 {
		t.Fatal("no node counted a retry while the owner was down")
	}

	// Byte-identical to a standalone daemon running the same spec: the
	// sweep is deterministic in the normalized spec, so failover changes
	// where it runs, never what it computes.
	standalone := service.New(service.Config{Workers: 1})
	defer standalone.Close()
	job, err := standalone.Submit(service.JobSpec{
		Source:  "x' = -x*y\ny' = x*y\n",
		N:       300,
		Initial: map[string]int{"x": 290, "y": 10},
		Periods: 20,
		Seed:    42,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ref service.JobStatus
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(10 * time.Millisecond) {
		ref = job.Snapshot(true)
		if ref.Status == service.StatusDone {
			break
		}
		if ref.Status == service.StatusFailed || time.Now().After(deadline) {
			t.Fatalf("standalone run: %+v", ref)
		}
	}
	clusterJSON, err := json.Marshal(done.Result)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := json.Marshal(ref.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clusterJSON, refJSON) {
		t.Fatalf("failover result diverges from the standalone run:\ncluster: %.200s\nref:     %.200s", clusterJSON, refJSON)
	}

	// The result stays reachable by key through the survivors even
	// though its ring owner is gone (the successor walk finds it).
	code, body = getBody(t, nodes[(owner+2)%3].base()+"/v1/results/"+key)
	if code != http.StatusOK {
		t.Fatalf("GET result with dead owner: %d %s", code, body)
	}
}

// TestClusterForwardedConditionalGet pins the proxy's pass-through of the
// result data plane's HTTP semantics: a result GET through a non-owner
// carries the owner's strong ETag, If-None-Match answers 304 across the
// forwarded hop without a body, and Accept-Encoding: gzip comes back
// compressed — decompressing to the exact bytes the owner serves.
func TestClusterForwardedConditionalGet(t *testing.T) {
	nodes := startTestCluster(t, 3)
	// A result above one 4 KiB block: stored, and sent to gzip clients, as a
	// gzip member (a smaller one goes out as identity).
	spec := testSpec(7)
	spec["periods"] = 400
	key, err := nodes[0].svc.RouteKey(service.JobSpec{Source: spec["source"].(string), N: 300,
		Initial: map[string]int{"x": 290, "y": 10}, Periods: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	owner := nodes[0].rt.ring.owner(key)
	forwarder := nodes[(owner+1)%3]

	code, body := postJSON(t, forwarder.base()+"/v1/jobs", spec)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, body)
	}
	var st service.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	pollDone(t, forwarder.base(), st.ID, time.Minute)

	rawGet := func(hdr map[string]string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, forwarder.base()+"/v1/results/"+key, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept-Encoding", "identity")
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, out
	}

	wantETag := `"` + key + `"`
	resp, canonical := rawGet(nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded result GET: %d %s", resp.StatusCode, canonical)
	}
	if got := resp.Header.Get("ETag"); got != wantETag {
		t.Fatalf("forwarded ETag = %q, want %q", got, wantETag)
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(canonical)) {
		t.Fatalf("forwarded Content-Length = %q for %d body bytes", got, len(canonical))
	}

	// Conditional GET through the forwarding hop: the validator travels
	// with the proxied request, and the 304 travels back bodiless.
	resp, body = rawGet(map[string]string{"If-None-Match": wantETag})
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("forwarded conditional GET: %d with %d bytes, want bodiless 304", resp.StatusCode, len(body))
	}

	// Gzip negotiation survives the hop: the proxy neither strips the
	// request header nor decompresses the response.
	resp, gz := rawGet(map[string]string{"Accept-Encoding": "gzip"})
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("forwarded gzip GET: %d, Content-Encoding %q", resp.StatusCode, resp.Header.Get("Content-Encoding"))
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, canonical) {
		t.Fatal("forwarded gzip body does not decompress to the owner's canonical bytes")
	}
}

// TestClusterRingMismatch rejects the misconfiguration the static-ring
// design cannot tolerate: two nodes started with different -peers lists.
// The forward must come back as a diagnosable 502, not hang, mis-route,
// or silently run the job on the wrong node.
func TestClusterRingMismatch(t *testing.T) {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrA, addrB := lnA.Addr().String(), lnB.Addr().String()

	start := func(ln net.Listener, self string, peers []string) *testNode {
		t.Helper()
		svc := service.New(service.Config{Workers: 1})
		rt, err := New(Config{Peers: peers, Self: self, Service: svc, probeInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: rt}
		go hs.Serve(ln)
		n := &testNode{addr: self, svc: svc, rt: rt, hs: hs}
		t.Cleanup(func() { hs.Close(); rt.Close(); svc.Close() })
		return n
	}
	// A believes the cluster is {A, B}; B was (mis)started believing it
	// is {A, B, ghost}. Their rings disagree on almost every key.
	nodeA := start(lnA, addrA, []string{addrA, addrB})
	nodeB := start(lnB, addrB, []string{addrA, addrB, "127.0.0.1:9"})

	// Find a spec A routes to B, then submit it through A.
	bIdx := -1
	for i, n := range nodeA.rt.ring.nodes {
		if n == addrB {
			bIdx = i
		}
	}
	if bIdx < 0 {
		t.Fatal("B not in A's ring")
	}
	seed := int64(0)
	for s := int64(1); s < 1000; s++ {
		if nodeA.rt.ring.owner(specKey(t, nodeA.svc, s)) == bIdx {
			seed = s
			break
		}
	}
	if seed == 0 {
		t.Fatal("no seed routes to B")
	}

	resp, err := http.Post(nodeA.base()+"/v1/jobs", "application/json",
		strings.NewReader(fmt.Sprintf(
			`{"source": "x' = -x*y\ny' = x*y\n", "n": 300, "initial": {"x": 290, "y": 10}, "periods": 20, "seed": %d}`, seed)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("mismatched forward: %d %s, want 502", resp.StatusCode, body)
	}
	if resp.Header.Get(headerRingMismatch) == "" {
		t.Fatalf("502 without the ring-mismatch marker: %s", body)
	}
	if !strings.Contains(string(body), "ring mismatch") || !strings.Contains(string(body), "-peers") {
		t.Fatalf("502 body does not diagnose the misconfiguration: %s", body)
	}
	if n := nodeB.rt.met.ringMismatches.Value(); n != 1 {
		t.Fatalf("B counted %d ring mismatches, want 1", n)
	}
	// Nobody ran the job.
	if nodeA.svc.SweepsExecuted()+nodeB.svc.SweepsExecuted() != 0 {
		t.Fatal("a sweep ran despite the ring mismatch")
	}
}
