package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"odeproto/internal/core"
	"odeproto/internal/harness"
	"odeproto/internal/obs"
	"odeproto/internal/ode"
	"odeproto/internal/rewrite"
	"odeproto/internal/service"
	"odeproto/internal/sim"
)

// lvSource is the paper's Lotka–Volterra system (6), the majority-
// selection case study; it is outside the mappable class until the §7
// rewrite completes, homogenizes, and splits it into system (7).
const lvSource = "x' = 3*x - 3*x^2 - 6*x*y\ny' = 3*y - 3*y^2 - 6*x*y\n"

// startDaemonCtl boots odeprotod on a random port and returns its base
// URL plus an idempotent shutdown func, for tests that restart the daemon
// mid-test (it is also registered as a cleanup).
func startDaemonCtl(t *testing.T, args ...string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), ready) }()

	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not become ready")
	}
	var once sync.Once
	shutdown := func() {
		once.Do(func() {
			cancel()
			select {
			case err := <-errc:
				if err != nil {
					t.Errorf("daemon shutdown: %v", err)
				}
			case <-time.After(30 * time.Second):
				t.Error("daemon did not shut down")
			}
		})
	}
	t.Cleanup(shutdown)
	return "http://" + addr, shutdown
}

// startDaemon boots odeprotod on a random port and returns its base URL.
func startDaemon(t *testing.T, args ...string) string {
	t.Helper()
	base, _ := startDaemonCtl(t, args...)
	return base
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

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("bad body %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

// scrape fetches and parses base's /metrics.
func scrape(t *testing.T, base string) map[string]*obs.MetricFamily {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/metrics: %d %v", base, resp.StatusCode, err)
	}
	fams, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%s serves a malformed exposition: %v\n%s", base, err, body)
	}
	return fams
}

// sample reads one series of a scrape, failing the test if it is absent.
func sample(t *testing.T, fams map[string]*obs.MetricFamily, name string, labels map[string]string) float64 {
	t.Helper()
	if fam, ok := fams[name]; ok {
		if v, ok := fam.Value(name, labels); ok {
			return v
		}
	}
	t.Fatalf("/metrics has no %s%v", name, labels)
	return 0
}

func pollDone(t *testing.T, base, id string, timeout time.Duration) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var st service.JobStatus
		if code := getJSON(t, base+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET job %s: %d", id, code)
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

// TestServiceEndToEnd is the acceptance test of the odeprotod subsystem:
// boot the daemon on a random port, POST the paper's Lotka–Volterra
// source as a sharded sweep, poll the job to completion, check the
// returned per-period counts byte-identical against a direct
// harness.Sweep run with the same seed and shard count, and verify an
// identical second POST is answered from the content-addressed cache
// without executing a new sweep.
func TestServiceEndToEnd(t *testing.T) {
	base := startDaemon(t, "-workers", "1")

	const (
		n       = 2000
		periods = 80
		seed    = 7
		shards  = 4
		pNorm   = 0.01
	)
	spec := map[string]any{
		"source":  lvSource,
		"p":       pNorm,
		"engine":  "sharded",
		"shards":  shards,
		"n":       n,
		"initial": map[string]int{"x": 1200, "y": 800},
		"periods": periods,
		"seed":    seed,
	}

	code, body := postJSON(t, base+"/v1/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var st service.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	done := pollDone(t, base, st.ID, 2*time.Minute)
	if done.Cached {
		t.Fatal("first run claims to be cached")
	}
	if done.Result == nil || len(done.Result.Runs) != 1 {
		t.Fatalf("unexpected result shape: %+v", done.Result)
	}
	serviceRun := done.Result.Runs[0]
	if len(serviceRun.Rows) != periods {
		t.Fatalf("service recorded %d rows, want %d", len(serviceRun.Rows), periods)
	}

	// Reproduce the run directly through the library: same compile
	// pipeline, same seed, same shard count, same recording rule.
	sys, err := ode.Parse(lvSource, nil)
	if err != nil {
		t.Fatal(err)
	}
	mappable, err := rewrite.MakeMappable(sys, "z")
	if err != nil {
		t.Fatal(err)
	}
	proto, err := core.Translate(mappable, core.Options{P: pNorm})
	if err != nil {
		t.Fatal(err)
	}
	states := proto.States
	if len(states) != len(done.Result.States) {
		t.Fatalf("service states %v vs direct %v", done.Result.States, states)
	}
	for i, s := range states {
		if done.Result.States[i] != string(s) {
			t.Fatalf("service states %v vs direct %v", done.Result.States, states)
		}
	}

	var direct []service.PeriodRow
	results, err := harness.Sweep([]harness.Job{{
		Name: "direct-lv",
		Seed: seed,
		New: func(jobSeed int64) (harness.Runner, error) {
			return harness.NewAgent(sim.Config{
				N: n, Protocol: proto,
				Initial: map[ode.Var]int{"x": 1200, "y": 800},
				Seed:    jobSeed, Shards: shards,
			})
		},
		Periods: periods,
		AfterStep: func(r harness.Runner, period int) {
			row := service.PeriodRow{Period: period, Counts: make([]int, len(states))}
			for i, s := range states {
				row.Counts[i] = r.Count(s)
			}
			direct = append(direct, row)
		},
	}}, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Killed != serviceRun.Killed {
		t.Fatalf("killed: service %d vs direct %d", serviceRun.Killed, results[0].Killed)
	}

	serviceJSON, err := json.Marshal(serviceRun.Rows)
	if err != nil {
		t.Fatal(err)
	}
	directJSON, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serviceJSON, directJSON) {
		t.Fatalf("service trajectory diverges from the direct harness.Sweep run:\nservice: %.200s\ndirect:  %.200s",
			serviceJSON, directJSON)
	}

	// The identical second POST must be a pure cache hit: answered done
	// on arrival, same bytes, and the sweep run counter stays at 1.
	if n := sample(t, scrape(t, base), "odeproto_sweeps_executed_total", nil); n != 1 {
		t.Fatalf("sweeps executed before the duplicate POST: %g, want 1", n)
	}

	code, body = postJSON(t, base+"/v1/jobs", spec)
	if code != http.StatusOK {
		t.Fatalf("duplicate submit: %d %s", code, body)
	}
	var st2 service.JobStatus
	if err := json.Unmarshal(body, &st2); err != nil {
		t.Fatal(err)
	}
	if st2.Status != service.StatusDone || !st2.Cached {
		t.Fatalf("duplicate POST not served from cache: %+v", st2)
	}
	if st2.CacheKey != done.CacheKey {
		t.Fatal("duplicate POST produced a different cache key")
	}
	cached := pollDone(t, base, st2.ID, 10*time.Second)
	cachedJSON, err := json.Marshal(cached.Result.Runs[0].Rows)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cachedJSON, serviceJSON) {
		t.Fatal("cached result bytes differ from the original result")
	}

	fams := scrape(t, base)
	if n := sample(t, fams, "odeproto_sweeps_executed_total", nil); n != 1 {
		t.Fatalf("duplicate POST executed a sweep (counter %g)", n)
	}
	if n := sample(t, fams, "odeproto_cache_hits_total", nil); n < 1 {
		t.Fatalf("cache reported %g hits", n)
	}
}

// TestDaemonCompileAndFigure exercises the remaining endpoints through a
// real TCP round trip: compile, figure rendering, and stats.
func TestDaemonCompileAndFigure(t *testing.T) {
	base := startDaemon(t)

	code, body := postJSON(t, base+"/v1/compile", map[string]any{"source": "x' = -x*y\ny' = x*y\n"})
	if code != http.StatusOK {
		t.Fatalf("compile: %d %s", code, body)
	}
	var cr service.CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Protocol.Actions) != 1 || cr.Protocol.Actions[0].Kind != "sample" {
		t.Fatalf("unexpected compile output: %+v", cr.Protocol)
	}

	code, body = postJSON(t, base+"/v1/jobs", map[string]any{
		"source": "x' = -x*y\ny' = x*y\n", "n": 300, "periods": 20,
		"initial": map[string]int{"x": 290, "y": 10},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var st service.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	pollDone(t, base, st.ID, time.Minute)

	resp, err := http.Get(base + "/v1/jobs/" + st.ID + "/figure.svg")
	if err != nil {
		t.Fatal(err)
	}
	svg, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.HasPrefix(svg, []byte("<svg")) {
		t.Fatalf("figure: %d %.60s", resp.StatusCode, svg)
	}
}

// TestCrashRecoveryEndToEnd is the acceptance test of the persistence
// subsystem: run a job against a -data dir, kill the daemon, corrupt the
// WAL tail the way an interrupted write would, restart, and verify the
// result is served from disk — byte-identical, with no re-simulation.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	dataDir := t.TempDir()
	base, shutdown := startDaemonCtl(t, "-workers", "1", "-data", dataDir)

	spec := map[string]any{
		"source":  "x' = -x*y\ny' = x*y\n",
		"n":       500,
		"initial": map[string]int{"x": 480, "y": 20},
		"periods": 30,
		"seed":    11,
	}
	code, body := postJSON(t, base+"/v1/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var st service.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	done := pollDone(t, base, st.ID, time.Minute)

	resp, err := http.Get(base + "/v1/results/" + done.CacheKey)
	if err != nil {
		t.Fatal(err)
	}
	resultBody1, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result before restart: %d %v", resp.StatusCode, err)
	}
	doneJSON, err := json.Marshal(done.Result)
	if err != nil {
		t.Fatal(err)
	}

	shutdown()

	// Simulate the torn write a kill -9 mid-append leaves behind: garbage
	// bytes on the newest WAL segment's tail.
	segs, err := filepath.Glob(filepath.Join(dataDir, "wal", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s: %v", dataDir, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x2c, 0x00, 0x00, 0x00, 0xba, 0xad, 0xf0, 0x0d, '{', '"'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// -resume-interrupted is exercised for wiring here (this crash left
	// no interrupted jobs — the sweep completed before the kill); the
	// resubmission behaviour itself is covered by the service-level
	// recovery tests.
	base2, _ := startDaemonCtl(t, "-workers", "1", "-data", dataDir, "-resume-interrupted")

	// The job list survived the crash and the torn tail.
	var list []service.JobStatus
	if code := getJSON(t, base2+"/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("GET jobs after restart: %d", code)
	}
	foundRecovered := false
	for _, j := range list {
		if j.ID == st.ID && j.Status == service.StatusDone {
			foundRecovered = true
		}
	}
	if !foundRecovered {
		t.Fatalf("job %s not recovered as done: %+v", st.ID, list)
	}

	// The identical spec is answered from disk: 200 done-on-arrival,
	// byte-identical result, and the fresh process still reports zero
	// sweeps executed.
	code, body = postJSON(t, base2+"/v1/jobs", spec)
	if code != http.StatusOK {
		t.Fatalf("resubmit after restart: %d %s", code, body)
	}
	var st2 service.JobStatus
	if err := json.Unmarshal(body, &st2); err != nil {
		t.Fatal(err)
	}
	if st2.Status != service.StatusDone || !st2.Cached || st2.CacheKey != done.CacheKey {
		t.Fatalf("resubmit after restart: %+v", st2)
	}
	replayed := pollDone(t, base2, st2.ID, 10*time.Second)
	replayedJSON, err := json.Marshal(replayed.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replayedJSON, doneJSON) {
		t.Fatal("result after restart differs from the pre-crash result")
	}

	resp, err = http.Get(base2 + "/v1/results/" + done.CacheKey)
	if err != nil {
		t.Fatal(err)
	}
	resultBody2, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result after restart: %d %v", resp.StatusCode, err)
	}
	if !bytes.Equal(resultBody1, resultBody2) {
		t.Fatal("/v1/results body not byte-identical across the restart")
	}

	fams := scrape(t, base2)
	if n := sample(t, fams, "odeproto_sweeps_executed_total", nil); n != 0 {
		t.Fatalf("restarted daemon executed %g sweeps serving a persisted result", n)
	}
	if n := sample(t, fams, "odeproto_store_recovered_jobs", nil); n < 1 {
		t.Fatalf("the file store recovered %g jobs after the restart", n)
	}
	if n := sample(t, fams, "odeproto_wal_tail_truncations_total", nil); n != 1 {
		t.Fatalf("tail truncations = %g, want 1 (the injected torn record)", n)
	}
	if n := sample(t, fams, "odeproto_resumed_jobs", nil); n != 0 {
		t.Fatalf("resumed_jobs = %g for a cleanly finished job", n)
	}
}

// TestClusterEndToEnd is the multi-node smoke test: three real daemons
// on loopback sharing one -peers list, the same spec POSTed through each
// of them, exactly one sweep executed cluster-wide, and the result
// readable byte-identically through every node.
func TestClusterEndToEnd(t *testing.T) {
	// Reserve three loopback ports, then hand them to the daemons: the
	// shared -peers list must be known before any node starts, so the
	// listen addresses cannot stay ":0".
	addrs := make([]string, 3)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	peers := strings.Join(addrs, ",")
	bases := make([]string, len(addrs))
	for i, addr := range addrs {
		// -self is deliberately omitted on a distinct-port loopback
		// cluster: the daemon infers it from the bound address. Each node
		// gets a -data dir so the scrape below covers the WAL and blob
		// metric families too.
		bases[i], _ = startDaemonCtl(t, "-addr", addr, "-workers", "1", "-peers", peers, "-data", t.TempDir())
	}

	// Nodes started first probed peers that weren't listening yet; wait
	// for a probe round to mark everyone up before asserting on health.
	allUp := func(base string) bool {
		fams := scrape(t, base)
		for _, addr := range addrs {
			if sample(t, fams, "odeproto_cluster_peer_alive", map[string]string{"peer": addr}) != 1 {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		up := true
		for _, base := range bases {
			up = up && allUp(base)
		}
		if up {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("peers never all reported alive")
		}
	}

	spec := map[string]any{
		"source":  "x' = -x*y\ny' = x*y\n",
		"n":       400,
		"initial": map[string]int{"x": 380, "y": 20},
		"periods": 25,
		"seed":    3,
	}
	key := ""
	for i, base := range bases {
		code, body := postJSON(t, base+"/v1/jobs", spec)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("submit via node %d: %d %s", i, code, body)
		}
		var st service.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if key == "" {
			key = st.CacheKey
		} else if st.CacheKey != key {
			t.Fatalf("node %d filed the spec under %s, want %s", i, st.CacheKey, key)
		}
		// The ID is routable from any node, not just the one POSTed to.
		pollDone(t, bases[(i+1)%len(bases)], st.ID, time.Minute)
	}

	var first []byte
	wantETag := `"` + key + `"`
	for i, base := range bases {
		resp, err := http.Get(base + "/v1/results/" + key)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET result via node %d: %d %v", i, resp.StatusCode, err)
		}
		// The content address is the validator on every node — including
		// the ones that proxied this GET to the key's owner.
		if got := resp.Header.Get("ETag"); got != wantETag {
			t.Fatalf("result ETag via node %d = %q, want %q", i, got, wantETag)
		}
		if first == nil {
			first = body
		} else if !bytes.Equal(first, body) {
			t.Fatalf("result bytes differ between nodes")
		}

		// A conditional GET with the current validator answers 304 through
		// any node: at least two of these three hops are forwarded, so this
		// pins If-None-Match propagation across the proxy.
		req, err := http.NewRequest(http.MethodGet, base+"/v1/results/"+key, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-None-Match", wantETag)
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		notModifiedBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotModified || len(notModifiedBody) != 0 {
			t.Fatalf("conditional GET via node %d: %d with %d bytes, want bodiless 304", i, resp.StatusCode, len(notModifiedBody))
		}
		if !allUp(base) {
			t.Fatalf("node %d sees a peer down", i)
		}
	}

	// Scrape /metrics on all three nodes: the exposition must parse, the
	// histograms must be well-formed, every required family must be
	// present, and the sweep counters must sum to exactly one execution
	// cluster-wide. CI's cluster-e2e step runs this test, so a malformed or
	// incomplete exposition fails the build.
	required := []string{
		"odeproto_jobs_submitted_total",
		"odeproto_jobs_coalesced_total",
		"odeproto_sweeps_executed_total",
		"odeproto_queue_depth",
		"odeproto_queue_capacity",
		"odeproto_queue_wait_seconds",
		"odeproto_cache_hits_total",
		"odeproto_cache_misses_total",
		"odeproto_cache_size",
		"odeproto_sweep_latency_seconds",
		"odeproto_wal_records_total",
		"odeproto_wal_syncs_total",
		"odeproto_wal_bytes",
		"odeproto_store_results_written_total",
		"odeproto_cluster_owner_local_total",
		"odeproto_cluster_forwarded_total",
		"odeproto_cluster_forward_latency_seconds",
		"odeproto_cluster_peer_alive",
		"odeproto_metrics_render_errors_total",
		"odeproto_jobs_rejected_total",
		"odeproto_job_duration_seconds",
		"odeproto_slo_state",
		"odeproto_slo_burn_rate",
	}
	var metricSweeps float64
	exemplarTraces := make(map[string]struct{})
	for i, base := range bases {
		fams := scrape(t, base)
		for _, name := range required {
			if _, ok := fams[name]; !ok {
				t.Errorf("node %d /metrics lacks required family %s", i, name)
			}
		}
		for _, fam := range fams {
			if fam.Type == "histogram" {
				// CheckHistogram also validates every exemplar: in-bucket
				// value, well-formed trace ID.
				if _, err := obs.CheckHistogram(fam); err != nil {
					t.Errorf("node %d %s: %v", i, fam.Name, err)
				}
				for _, s := range fam.Samples {
					if s.Exemplar != nil {
						exemplarTraces[s.Exemplar.Labels["trace_id"]] = struct{}{}
					}
				}
			}
		}
		metricSweeps += sample(t, fams, "odeproto_sweeps_executed_total", nil)
		if v := sample(t, fams, "odeproto_metrics_render_errors_total", nil); v != 0 {
			t.Errorf("node %d reports %g render errors", i, v)
		}
	}
	if metricSweeps != 1 {
		t.Fatalf("cluster executed %g sweeps for one spec, want 1", metricSweeps)
	}

	// Every exemplar scraped anywhere in the cluster must resolve: its
	// trace ID belongs to a known job whose trace endpoint serves the
	// same ID, from any node.
	if len(exemplarTraces) == 0 {
		t.Fatal("no histogram bucket anywhere in the cluster carries an exemplar")
	}
	traceToJob := make(map[string]string)
	for i, base := range bases {
		var list []service.JobStatus
		if code := getJSON(t, base+"/v1/jobs", &list); code != http.StatusOK {
			t.Fatalf("GET jobs via node %d: %d", i, code)
		}
		for _, j := range list {
			if j.Trace != "" {
				traceToJob[j.Trace] = j.ID
			}
		}
	}
	for trace := range exemplarTraces {
		id, ok := traceToJob[trace]
		if !ok {
			t.Errorf("exemplar trace %s matches no job in the cluster", trace)
			continue
		}
		var tr service.TraceStatus
		if code := getJSON(t, bases[0]+"/v1/jobs/"+id+"/trace", &tr); code != http.StatusOK {
			t.Errorf("trace %s (job %s) does not resolve: %d", trace, id, code)
		} else if tr.Trace != trace {
			t.Errorf("job %s trace endpoint reports %s, exemplar carried %s", id, tr.Trace, trace)
		}
	}

	// GET /v1/slo answers on every node: a healthy cluster reports ok
	// overall, with the compiled-in latency and error-rate SLOs each
	// evaluated over their three windows.
	for i, base := range bases {
		var report service.SLOReport
		if code := getJSON(t, base+"/v1/slo", &report); code != http.StatusOK {
			t.Fatalf("GET /v1/slo via node %d: %d", i, code)
		}
		if report.State != service.SLOOk {
			t.Errorf("node %d SLO state = %s, want ok: %+v", i, report.State, report)
		}
		if len(report.SLOs) != 2 {
			t.Fatalf("node %d reports %d SLOs, want the 2 defaults", i, len(report.SLOs))
		}
		for _, s := range report.SLOs {
			if s.State != service.SLOOk {
				t.Errorf("node %d SLO %s state = %s, want ok", i, s.Name, s.State)
			}
			if len(s.Windows) != 3 {
				t.Errorf("node %d SLO %s evaluated %d windows, want 3", i, s.Name, len(s.Windows))
			}
			if s.Name == "job_latency" {
				for _, w := range s.Windows {
					if w.Total > 0 && (w.P50 <= 0 || w.P95 <= 0 || w.P99 <= 0) {
						t.Errorf("node %d latency window %s has observations but no quantiles: %+v", i, w.Window, w)
					}
				}
			}
		}
	}
}

func TestRunFlagErrors(t *testing.T) {
	if err := run(context.Background(), []string{"-bogus"}, nil); err == nil {
		t.Fatal("unknown flag accepted")
	}
	// -h prints usage and succeeds without starting a server.
	if err := run(context.Background(), []string{"-h"}, nil); err != nil {
		t.Fatalf("-h returned an error: %v", err)
	}
	// Flag validation happens before the listener opens: a bad log level
	// fails fast.
	if err := run(context.Background(), []string{"-log-level", "verbose"}, nil); err == nil {
		t.Fatal("bad -log-level accepted")
	}
	// A busy port must surface as an error, not a hang.
	base := startDaemon(t)
	addr := base[len("http://"):]
	errc := make(chan error, 1)
	go func() { errc <- run(context.Background(), []string{"-addr", addr}, nil) }()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("second listener on a busy port succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("busy-port run did not return")
	}
}
