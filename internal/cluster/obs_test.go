package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"odeproto/internal/obs"
	"odeproto/internal/service"
)

// syncBuf is a goroutine-safe log sink: the prober and request handlers
// log concurrently with the test's reads.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// scrapeNode fetches and parses one node's /metrics over real HTTP.
func scrapeNode(t *testing.T, n *testNode) map[string]*obs.MetricFamily {
	t.Helper()
	code, body := getBody(t, n.base()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics on %s: %d %s", n.addr, code, body)
	}
	fams, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("node %s serves malformed exposition: %v\n%s", n.addr, err, body)
	}
	return fams
}

// metricValue reads one sample, tolerating families that have no series
// yet (unobserved histograms and vectors read as 0).
func metricValue(fams map[string]*obs.MetricFamily, name string, labels map[string]string) float64 {
	for _, fam := range fams {
		if v, ok := fam.Value(name, labels); ok {
			return v
		}
	}
	return 0
}

// TestClusterTraceAndMetrics is the acceptance test of the flight
// recorder's cross-node story: a job submitted through a non-owner is
// forwarded under one trace ID, that ID shows up in both nodes'
// structured logs and in GET /v1/jobs/{id}/trace with every lifecycle
// span, and scraping both nodes' /metrics shows the miss, the hit, and
// the forward as counter deltas with well-formed histograms.
func TestClusterTraceAndMetrics(t *testing.T) {
	nodes := startTestCluster(t, 2)

	// Pick a seed whose content address node 1 owns, so a POST through
	// node 0 must forward.
	seed := int64(0)
	for s := int64(1); s < 1000; s++ {
		if nodes[0].rt.ring.owner(specKey(t, nodes[0].svc, s)) == 1 {
			seed = s
			break
		}
	}
	if seed == 0 {
		t.Fatal("no seed routes to node 1")
	}

	before0 := scrapeNode(t, nodes[0])
	before1 := scrapeNode(t, nodes[1])

	// Miss: submitted through node 0, executed on node 1.
	code, body := postJSON(t, nodes[0].base()+"/v1/jobs", testSpec(seed))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var st service.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if !obs.ValidTraceID(st.Trace) {
		t.Fatalf("forwarded submission carries no valid trace ID: %q", st.Trace)
	}
	pollDone(t, nodes[0].base(), st.ID, time.Minute)

	// Hit: the identical spec through node 0 again is a forwarded cache
	// hit on node 1 (under its own, fresh trace ID).
	code, body = postJSON(t, nodes[0].base()+"/v1/jobs", testSpec(seed))
	if code != http.StatusOK {
		t.Fatalf("duplicate submit: %d %s", code, body)
	}
	var stHit service.JobStatus
	if err := json.Unmarshal(body, &stHit); err != nil {
		t.Fatal(err)
	}

	// The trace endpoint is routable from the non-owner and reports the
	// full lifecycle under the submission's trace ID.
	code, body = getBody(t, nodes[0].base()+"/v1/jobs/"+st.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace via non-owner: %d %s", code, body)
	}
	var tr service.TraceStatus
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Trace != st.Trace {
		t.Fatalf("trace endpoint reports ID %s, submission returned %s", tr.Trace, st.Trace)
	}
	if tr.Node != nodes[1].addr {
		t.Fatalf("trace recorded on node %q, want owner %s", tr.Node, nodes[1].addr)
	}
	wantStages := []string{obs.StageQueued, obs.StageCompiled, obs.StageSwept, obs.StagePersisted, obs.StageResponded}
	if len(tr.Spans) != len(wantStages) {
		t.Fatalf("trace spans %+v, want stages %v", tr.Spans, wantStages)
	}
	for i, sp := range tr.Spans {
		if sp.Stage != wantStages[i] {
			t.Fatalf("span %d is %q, want %q", i, sp.Stage, wantStages[i])
		}
	}

	// One trace ID, both logs: the forwarding node logged the routing
	// decision, the owner logged queue + completion, all under st.Trace.
	logs0, logs1 := nodes[0].logs.String(), nodes[1].logs.String()
	if !strings.Contains(logs0, st.Trace) || !strings.Contains(logs0, "forwarded request") {
		t.Fatalf("forwarding node log lacks the trace:\n%s", logs0)
	}
	if !strings.Contains(logs1, st.Trace) || !strings.Contains(logs1, "job finished") {
		t.Fatalf("owner node log lacks the trace completion line:\n%s", logs1)
	}

	// Counter deltas across the miss + hit: the owner saw both
	// submissions, ran exactly one sweep, and counted one miss and one
	// hit; the forwarder ran nothing and counted the proxying.
	after0 := scrapeNode(t, nodes[0])
	after1 := scrapeNode(t, nodes[1])
	delta := func(before, after map[string]*obs.MetricFamily, name string, labels map[string]string) float64 {
		return metricValue(after, name, labels) - metricValue(before, name, labels)
	}
	if d := delta(before1, after1, "odeproto_jobs_submitted_total", nil); d != 2 {
		t.Errorf("owner jobs_submitted delta = %g, want 2", d)
	}
	if d := delta(before1, after1, "odeproto_sweeps_executed_total", nil); d != 1 {
		t.Errorf("owner sweeps_executed delta = %g, want 1", d)
	}
	if d := delta(before1, after1, "odeproto_cache_misses_total", nil); d != 1 {
		t.Errorf("owner cache_misses delta = %g, want 1", d)
	}
	if d := delta(before1, after1, "odeproto_cache_hits_total", nil); d < 1 {
		t.Errorf("owner cache_hits delta = %g, want >= 1", d)
	}
	if d := delta(before0, after0, "odeproto_sweeps_executed_total", nil); d != 0 {
		t.Errorf("forwarder executed %g sweeps", d)
	}
	if d := delta(before0, after0, "odeproto_cluster_forwarded_total", nil); d < 2 {
		t.Errorf("forwarder cluster_forwarded delta = %g, want >= 2 (submit + hit)", d)
	}
	if v := metricValue(after0, "odeproto_cluster_peer_alive", map[string]string{"peer": nodes[1].addr}); v != 1 {
		t.Errorf("peer_alive{peer=%s} = %g on the forwarder, want 1", nodes[1].addr, v)
	}

	// The owner's latency histograms are well-formed (cumulative,
	// +Inf-terminated, consistent with _count) and saw the one real run.
	for _, h := range []string{"odeproto_queue_wait_seconds", "odeproto_sweep_latency_seconds"} {
		fam, ok := after1[h]
		if !ok {
			t.Fatalf("owner exposes no %s", h)
		}
		if _, err := obs.CheckHistogram(fam); err != nil {
			t.Errorf("%s: %v", h, err)
		}
	}
	if v := metricValue(after1, "odeproto_sweep_latency_seconds_count",
		map[string]string{"engine": "agent", "mode": ""}); v != 1 {
		t.Errorf("owner sweep_latency count = %g, want 1", v)
	}

	// The forwarder timed its proxied requests per peer, and a submit
	// forward left its trace ID as a bucket exemplar. Both submits land
	// in the same fast bucket, so the hit's trace may have overwritten
	// the miss's — either proves the exemplar path.
	fwdFam, ok := after0["odeproto_cluster_forward_latency_seconds"]
	if !ok {
		t.Fatal("forwarder exposes no odeproto_cluster_forward_latency_seconds")
	}
	if _, err := obs.CheckHistogram(fwdFam); err != nil {
		t.Fatalf("forward latency histogram: %v", err)
	}
	if v := metricValue(after0, "odeproto_cluster_forward_latency_seconds_count",
		map[string]string{"peer": nodes[1].addr}); v < 2 {
		t.Errorf("forward latency count{peer=%s} = %g, want >= 2", nodes[1].addr, v)
	}
	sawTrace := false
	for _, s := range fwdFam.Samples {
		if s.Exemplar == nil {
			continue
		}
		if id := s.Exemplar.Labels["trace_id"]; id == st.Trace || id == stHit.Trace {
			sawTrace = true
		}
	}
	if !sawTrace {
		t.Errorf("no forward latency bucket carries exemplar trace_id %s or %s", st.Trace, stHit.Trace)
	}
}

// TestMetricsCarryEveryStatsField: the JSON counter endpoint is gone, and
// every field it served is on /metrics or in a log line. After a cache miss
// and a hit through the key's owner, each former field's family is exposed,
// the counts are the ones the two submissions make, the histograms and the
// trace record the one real run, and GET /v1/stats answers 404 from the
// service mux and from the router in front of it.
func TestMetricsCarryEveryStatsField(t *testing.T) {
	n := startTestCluster(t, 2)[0]
	seed := int64(0)
	for s := int64(1); s < 1000 && seed == 0; s++ {
		if n.rt.ring.owner(specKey(t, n.svc, s)) == 0 {
			seed = s
		}
	}
	if seed == 0 {
		t.Fatal("no seed routes to node 0")
	}

	// Miss: the first submission runs a sweep.
	data, err := json.Marshal(testSpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(n.base()+"/v1/jobs", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var first service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&first)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, err)
	}
	if tid := resp.Header.Get(obs.TraceHeader); !obs.ValidTraceID(tid) {
		t.Fatalf("submit response carries no valid %s header: %q", obs.TraceHeader, tid)
	}
	pollDone(t, n.base(), first.ID, time.Minute)

	// Hit: the identical spec is answered done-on-arrival.
	if code, body := postJSON(t, n.base()+"/v1/jobs", testSpec(seed)); code != http.StatusOK {
		t.Fatalf("duplicate submit: %d %s", code, body)
	}

	// Former field → the family that carries it now. Not listed, because
	// they are configuration a log line prints: workers ("serving"),
	// store.backend (whether -data is set), cluster.self and cluster.ring
	// ("joined cluster ring"), cluster.vnodes (64, which no flag sets) and
	// a peer's last_error ("peer down").
	fams := scrapeNode(t, n)
	for field, family := range map[string]string{
		"jobs":                    "odeproto_jobs_resident", // by status
		"queue_depth":             "odeproto_queue_depth",
		"queue_capacity":          "odeproto_queue_capacity",
		"sweeps_executed":         "odeproto_sweeps_executed_total",
		"coalesced_jobs":          "odeproto_jobs_coalesced_total",
		"rejected_jobs":           "odeproto_jobs_rejected_total",
		"cache.size":              "odeproto_cache_size",
		"cache.max":               "odeproto_cache_capacity",
		"cache.max_bytes":         "odeproto_cache_capacity", // × 256 KiB
		"cache.bytes":             "odeproto_cache_bytes",
		"cache.hits":              "odeproto_cache_hits_total",
		"cache.misses":            "odeproto_cache_misses_total",
		"result_disk_hits":        "odeproto_result_disk_hits_total",
		"warmed_results":          "odeproto_warmed_results",
		"resumed_jobs":            "odeproto_resumed_jobs",
		"store_errors":            "odeproto_store_errors_total",
		"result_encodes_saved":    "odeproto_result_encodes_saved_total",
		"result_bytes_served":     "odeproto_result_bytes_served_total",
		"store.records_appended":  "odeproto_wal_records_total",
		"store.wal_segments":      "odeproto_wal_segments",
		"store.wal_bytes":         "odeproto_wal_bytes",
		"store.wal_syncs":         "odeproto_wal_syncs_total",
		"store.unsynced_records":  "odeproto_wal_unsynced_records",
		"store.results_written":   "odeproto_store_results_written_total",
		"store.result_bytes":      "odeproto_store_result_bytes_total",
		"store.result_raw_bytes":  "odeproto_store_result_raw_bytes_total",
		"store.recovered_jobs":    "odeproto_store_recovered_jobs",
		"store.indexed_jobs":      "odeproto_jobs_resident", // the store forgets what the table retires
		"store.tail_truncations":  "odeproto_wal_tail_truncations_total",
		"store.compactions":       "odeproto_wal_compactions_total",
		"cluster.peers":           "odeproto_cluster_peer_alive", // by peer
		"cluster.owner_local":     "odeproto_cluster_owner_local_total",
		"cluster.forwarded":       "odeproto_cluster_forwarded_total",
		"cluster.retried":         "odeproto_cluster_retried_total",
		"cluster.ring_mismatches": "odeproto_cluster_ring_mismatches_total",
		"cluster.probe_failures":  "odeproto_cluster_probe_failures_total",
	} {
		if fam, ok := fams[family]; !ok || len(fam.Samples) == 0 {
			t.Errorf("%s: /metrics serves no %s", field, family)
		}
	}
	for _, c := range []struct {
		name   string
		labels map[string]string
		want   float64
	}{
		{"odeproto_jobs_submitted_total", nil, 2},
		{"odeproto_sweeps_executed_total", nil, 1},
		{"odeproto_jobs_resident", map[string]string{"status": "done"}, 2},
		{"odeproto_jobs_resident", map[string]string{"status": "queued"}, 0},
		{"odeproto_jobs_resident", map[string]string{"status": "running"}, 0},
		{"odeproto_jobs_resident", map[string]string{"status": "failed"}, 0},
		{"odeproto_jobs_resident", map[string]string{"status": "cancelled"}, 0},
		{"odeproto_cache_hits_total", nil, 1},
		{"odeproto_cache_misses_total", nil, 1},
		{"odeproto_cache_size", nil, 1},
		{"odeproto_cluster_owner_local_total", nil, 2},
		{"odeproto_cluster_peer_alive", map[string]string{"peer": n.addr}, 1},
	} {
		if got := metricValue(fams, c.name, c.labels); got != c.want {
			t.Errorf("%s%v = %g, want %g", c.name, c.labels, got, c.want)
		}
	}
	if logs := n.logs.String(); !strings.Contains(logs, `"joined cluster ring"`) || !strings.Contains(logs, n.rt.fp) {
		t.Errorf("no joined-cluster-ring line naming ring %s in the log:\n%s", n.rt.fp, logs)
	}

	// The histograms recorded the one real run: queue wait once (the hit
	// never queued), sweep latency once under the normalized engine+mode
	// labels, both with monotone cumulative buckets.
	for _, h := range []string{"odeproto_queue_wait_seconds", "odeproto_sweep_latency_seconds"} {
		fam, ok := fams[h]
		if !ok {
			t.Fatalf("histogram %s not exposed", h)
		}
		if _, err := obs.CheckHistogram(fam); err != nil {
			t.Errorf("%s: %v", h, err)
		}
	}
	if got := metricValue(fams, "odeproto_queue_wait_seconds_count", nil); got != 1 {
		t.Errorf("queue_wait count = %g, want 1", got)
	}
	if got := metricValue(fams, "odeproto_sweep_latency_seconds_count", map[string]string{"engine": "agent", "mode": ""}); got != 1 {
		t.Errorf("sweep_latency{engine=agent} count = %g, want 1", got)
	}

	// The trace endpoint reports every lifecycle span of the real run, in
	// submission order; a job that never existed has no trace.
	code, body := getBody(t, n.base()+"/v1/jobs/"+first.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace: %d %s", code, body)
	}
	var tr service.TraceStatus
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	want := []string{obs.StageQueued, obs.StageCompiled, obs.StageSwept, obs.StagePersisted, obs.StageResponded}
	if !obs.ValidTraceID(tr.Trace) || len(tr.Spans) != len(want) {
		t.Fatalf("trace %s spans = %+v, want stages %v", tr.Trace, tr.Spans, want)
	}
	for i, sp := range tr.Spans {
		if sp.Stage != want[i] || i > 0 && sp.ElapsedMS < tr.Spans[i-1].ElapsedMS {
			t.Fatalf("span %d = %q at %v ms, want %q in monotone order (all: %+v)", i, sp.Stage, sp.ElapsedMS, want[i], tr.Spans)
		}
	}
	if code, _ := getBody(t, n.base()+"/v1/jobs/zzz/trace"); code != http.StatusNotFound {
		t.Fatalf("trace of unknown job: %d", code)
	}

	// The endpoint itself is gone, from both muxes.
	if code, body := getBody(t, n.base()+"/v1/stats"); code != http.StatusNotFound {
		t.Errorf("GET /v1/stats through the router: %d %s, want 404", code, body)
	}
	rec := httptest.NewRecorder()
	n.svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET /v1/stats on the service mux: %d %s, want 404", rec.Code, rec.Body)
	}
}
