package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"odeproto/internal/store"
)

const epidemicSource = "x' = -x*y\ny' = x*y\n"

// newTestServer boots a Server over httptest. With ODEPROTO_TEST_DATA set
// (the CI file-backend pass), every test server runs against a file store
// in a temp dir instead of the default in-memory backend, so the whole
// service suite exercises the durable path.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil && os.Getenv("ODEPROTO_TEST_DATA") != "" {
		fst, err := store.Open(filepath.Join(t.TempDir(), "data"), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fst.Close() }) // runs after the server cleanup below
		cfg.Store = fst
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodeStatus(t *testing.T, data []byte) JobStatus {
	t.Helper()
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("bad status body %q: %v", data, err)
	}
	return st
}

// waitStatus polls GET /v1/jobs/{id} until the job reaches a terminal
// state or the deadline passes.
func waitStatus(t *testing.T, base, id string, want Status, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, data := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job: %d %s", resp.StatusCode, data)
		}
		st := decodeStatus(t, data)
		if st.Status == want {
			return st
		}
		switch st.Status {
		case StatusDone, StatusFailed, StatusCancelled:
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.Status, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, st.Status, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCompileEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/compile", CompileRequest{Source: epidemicSource})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %s", resp.StatusCode, data)
	}
	var cr CompileResponse
	if err := json.Unmarshal(data, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Rewritten {
		t.Fatal("epidemic system should be mappable without rewriting")
	}
	if len(cr.Protocol.States) != 2 || len(cr.Protocol.Actions) != 1 {
		t.Fatalf("protocol states/actions = %v/%v", cr.Protocol.States, cr.Protocol.Actions)
	}
	a := cr.Protocol.Actions[0]
	if a.Kind != "sample" || a.Owner != "x" || a.To != "y" {
		t.Fatalf("unexpected action %+v", a)
	}
	// Theorem 1 at the uniform point (x = y = 1/2): drift = ±p·x·y.
	wantDrift := cr.Protocol.P * 0.25
	if d := cr.ExpectedFlow["y"]; d < wantDrift-1e-12 || d > wantDrift+1e-12 {
		t.Fatalf("expected_flow[y] = %v, want %v", d, wantDrift)
	}
	if cr.SamplingMessages["x"] != 1 || cr.SamplingMessages["y"] != 0 {
		t.Fatalf("sampling messages = %v", cr.SamplingMessages)
	}

	// The LV system (6) needs the §7 rewrite.
	lv := CompileRequest{Source: "x' = 3*x - 3*x^2 - 6*x*y\ny' = 3*y - 3*y^2 - 6*x*y\n", P: 0.01}
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/compile", lv)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile lv: %d %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &cr); err != nil {
		t.Fatal(err)
	}
	if !cr.Rewritten || cr.RewrittenSystem == "" {
		t.Fatal("LV system should have been rewritten")
	}
	if len(cr.Protocol.States) != 3 {
		t.Fatalf("rewritten LV protocol has states %v, want 3", cr.Protocol.States)
	}

	// A constant term takes the rewrite too (§6: c → c·Σx), though the
	// system is classified mappable: it compiles and runs — and without the
	// rewrite the 400 names the expansion, not a Go function.
	pool := CompileRequest{Source: "a' = -0.15 + 0.1*w\nw' = 0.15 - 0.1*w\n"}
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/compile", pool)
	if err := json.Unmarshal(data, &cr); err != nil || resp.StatusCode != http.StatusOK || !cr.Rewritten {
		t.Fatalf("compile pool: %d %s", resp.StatusCode, data)
	}
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobSpec{Source: pool.Source, N: 400, Periods: 10})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit pool: %d %s", resp.StatusCode, data)
	}
	waitStatus(t, ts.URL, decodeStatus(t, data).ID, StatusDone, 30*time.Second)
	pool.NoRewrite = true
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/compile", pool)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "§6") || strings.Contains(string(data), "ExpandConstants") {
		t.Fatalf("compile pool without rewriting: %d %s, want a 400 naming the §6 expansion", resp.StatusCode, data)
	}

	// Compile failures are input errors.
	for _, bad := range []CompileRequest{
		{},
		{Source: "x' = -k*x\n"},
		{Source: "x' = -x*y\ny' = x*y\n", NoRewrite: true, FailureRate: 2},
	} {
		resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/compile", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad compile request %+v: status %d", bad, resp.StatusCode)
		}
	}
}

func smallSpec() JobSpec {
	return JobSpec{
		Source:  epidemicSource,
		N:       400,
		Initial: map[string]int{"x": 380, "y": 20},
		Periods: 25,
		Seed:    7,
	}
}

func TestJobLifecycleAndCache(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})

	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	st := decodeStatus(t, data)
	if st.ID == "" || st.CacheKey == "" {
		t.Fatalf("submit response missing id/key: %+v", st)
	}
	done := waitStatus(t, ts.URL, st.ID, StatusDone, 30*time.Second)
	if done.Cached {
		t.Fatal("first run reported cached")
	}
	if done.Result == nil || len(done.Result.Runs) != 1 {
		t.Fatalf("result runs = %+v", done.Result)
	}
	rows := done.Result.Runs[0].Rows
	if len(rows) != 25 {
		t.Fatalf("recorded %d rows, want 25", len(rows))
	}
	if got := done.Result.States; len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("states = %v", got)
	}
	for _, row := range rows {
		if row.Counts[0]+row.Counts[1] != 400 {
			t.Fatalf("period %d counts %v do not conserve N", row.Period, row.Counts)
		}
	}
	if n := srv.SweepsExecuted(); n != 1 {
		t.Fatalf("sweeps executed = %d, want 1", n)
	}

	// The identical spec is answered from the cache: 200 (not 202),
	// already done, cached flag, byte-identical result, no new sweep.
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallSpec())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached submit: %d %s", resp.StatusCode, data)
	}
	st2 := decodeStatus(t, data)
	if st2.Status != StatusDone || !st2.Cached {
		t.Fatalf("cached submit status %+v", st2)
	}
	if st2.CacheKey != st.CacheKey {
		t.Fatal("identical specs produced different cache keys")
	}
	got2 := waitStatus(t, ts.URL, st2.ID, StatusDone, 5*time.Second)
	a, _ := json.Marshal(done.Result)
	b, _ := json.Marshal(got2.Result)
	if !bytes.Equal(a, b) {
		t.Fatal("cached result differs from the original")
	}
	if n := srv.SweepsExecuted(); n != 1 {
		t.Fatalf("cache hit ran a sweep (count %d)", n)
	}

	// A different seed is different content: a new sweep runs.
	other := smallSpec()
	other.Seed = 8
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", other)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit other: %d %s", resp.StatusCode, data)
	}
	waitStatus(t, ts.URL, decodeStatus(t, data).ID, StatusDone, 30*time.Second)
	if n := srv.SweepsExecuted(); n != 2 {
		t.Fatalf("sweeps executed = %d, want 2", n)
	}

	// Multi-seed + events + aggregate engine round out the matrix.
	multi := JobSpec{
		Source: epidemicSource, Engine: "aggregate",
		N: 1000, Initial: map[string]int{"x": 900, "y": 100},
		Periods: 10, Seeds: 3,
		Events: []EventSpec{{At: 5, Kind: "kill-fraction", Frac: 0.5}},
	}
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", multi)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit multi: %d %s", resp.StatusCode, data)
	}
	mdone := waitStatus(t, ts.URL, decodeStatus(t, data).ID, StatusDone, 30*time.Second)
	if len(mdone.Result.Runs) != 3 {
		t.Fatalf("multi-seed runs = %d", len(mdone.Result.Runs))
	}
	seen := map[int64]bool{}
	for _, run := range mdone.Result.Runs {
		if seen[run.Seed] {
			t.Fatalf("duplicate derived seed %d", run.Seed)
		}
		seen[run.Seed] = true
		if run.Killed == 0 {
			t.Fatalf("run %d recorded no kills despite the kill-fraction event", run.Seed)
		}
	}
}

func TestSubmitValidationOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	bad := []any{
		JobSpec{},                        // no source
		JobSpec{Source: epidemicSource},  // no n/periods
		map[string]any{"sauce": "typo"},  // unknown field
		map[string]any{"n": "over 9000"}, // wrong type
	}
	for i, body := range bad {
		resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad submit %d: status %d", i, resp.StatusCode)
		}
	}
	resp, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/j999999", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: status %d", resp.StatusCode)
	}
}

// slowSpec is a job big enough to still be running when the test acts on
// it (~4e8 process-periods; the harness checks ctx every period).
func slowSpec() JobSpec {
	return JobSpec{
		Source:  epidemicSource,
		N:       20000,
		Initial: map[string]int{"x": 19999, "y": 1},
		Periods: 20000,
	}
}

func TestCancelRunningAndQueuedJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})

	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", slowSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit slow: %d %s", resp.StatusCode, data)
	}
	running := decodeStatus(t, data)
	waitStatus(t, ts.URL, running.ID, StatusRunning, 30*time.Second)

	// A second job sits in the queue behind the single worker.
	queuedSpec := slowSpec()
	queuedSpec.Seed = 2
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", queuedSpec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit queued: %d %s", resp.StatusCode, data)
	}
	queued := decodeStatus(t, data)

	// Cancelling the queued job terminates it immediately.
	resp, data = doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: %d %s", resp.StatusCode, data)
	}
	if st := decodeStatus(t, data); st.Status != StatusCancelled {
		t.Fatalf("queued job status after cancel = %s", st.Status)
	}

	// Cancelling the running job stops it at a period boundary.
	resp, data = doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel running: %d %s", resp.StatusCode, data)
	}
	st := waitStatus(t, ts.URL, running.ID, StatusCancelled, 30*time.Second)
	if st.Result != nil {
		t.Fatal("cancelled job carries a result")
	}

	// Cancelling a terminal job conflicts.
	resp, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel: status %d", resp.StatusCode)
	}
	// A cancelled job's partial result never reaches the cache.
	if n := sampleValue(t, scrapeMetrics(t, ts.URL), "odeproto_cache_size", nil); n != 0 {
		t.Fatalf("cache size %g after cancellations, want 0", n)
	}
}

func TestQueueFullReturns429WithRetryAfter(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", slowSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: %d %s", resp.StatusCode, data)
	}
	first := decodeStatus(t, data)
	waitStatus(t, ts.URL, first.ID, StatusRunning, 30*time.Second)

	second := slowSpec()
	second.Seed = 2
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", second)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2: %d", resp.StatusCode)
	}
	third := slowSpec()
	third.Seed = 3
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", third)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit 3 with a full queue: %d %s", resp.StatusCode, data)
	}
	// Admission control promises a concrete hint: Retry-After derived
	// from the windowed p95 queue wait, floored at 1s.
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	if got := srv.met.rejected.Value(); got != 1 {
		t.Fatalf("rejected_jobs = %d, want 1", got)
	}
	// The rejected job must not linger in the job list.
	resp, data = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil)
	var list []JobStatus
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("job list has %d entries, want 2", len(list))
	}
}

func TestStreamNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	spec := smallSpec()
	spec.Periods = 40
	spec.RecordEvery = 4
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	id := decodeStatus(t, data).ID

	// Attach to the stream immediately — rows arrive as the run records
	// them, then the terminal row closes the stream.
	streamResp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if ct := streamResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var rows []StreamRow
	sc := bufio.NewScanner(streamResp.Body)
	for sc.Scan() {
		var row StreamRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// 40 periods sampled every 4 → periods 0,4,...,36 plus the final
	// period 39, plus the terminal event row.
	if len(rows) != 12 {
		t.Fatalf("streamed %d rows, want 12", len(rows))
	}
	last := rows[len(rows)-1]
	if last.Event != string(StatusDone) {
		t.Fatalf("terminal row %+v", last)
	}
	for _, row := range rows[:len(rows)-1] {
		if len(row.Counts) != 2 || row.Counts[0]+row.Counts[1] != 400 {
			t.Fatalf("stream row %+v does not conserve N", row)
		}
	}
	if rows[len(rows)-2].Period != 39 {
		t.Fatalf("final recorded period %d, want 39", rows[len(rows)-2].Period)
	}

	// Streaming a cached twin replays the same rows.
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached submit: %d %s", resp.StatusCode, data)
	}
	cachedID := decodeStatus(t, data).ID
	streamResp2, err := http.Get(ts.URL + "/v1/jobs/" + cachedID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp2.Body.Close()
	body, err := io.ReadAll(streamResp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(body), "\n"); got != 12 {
		t.Fatalf("cached stream has %d rows, want 12", got)
	}
}

func TestFigureEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	id := decodeStatus(t, data).ID

	// Figures for unfinished jobs conflict.
	resp, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/figure.svg", nil)
	if resp.StatusCode == http.StatusOK {
		// The tiny job may already be done; only a non-conflict non-OK is
		// a failure. Re-check after completion below regardless.
	} else if resp.StatusCode != http.StatusConflict {
		t.Fatalf("figure before done: %d", resp.StatusCode)
	}

	waitStatus(t, ts.URL, id, StatusDone, 30*time.Second)
	resp, data = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/figure.svg", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("figure: %d %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Fatalf("figure content type %q", ct)
	}
	svg := string(data)
	if !strings.HasPrefix(svg, "<svg") {
		t.Fatalf("figure does not start with <svg: %.60s", svg)
	}
	for _, want := range []string{"x", "y", "period"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("figure missing %q", want)
		}
	}
}

func TestStatsAndHealth(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})

	resp, data := doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %s", resp.StatusCode, data)
	}

	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	waitStatus(t, ts.URL, decodeStatus(t, data).ID, StatusDone, 30*time.Second)
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallSpec()) // cache hit

	fams := scrapeMetrics(t, ts.URL)
	if n := sampleValue(t, fams, "odeproto_jobs_resident", map[string]string{"status": "done"}); n != 2 {
		t.Fatalf("done jobs = %g, want 2", n)
	}
	if n := sampleValue(t, fams, "odeproto_sweeps_executed_total", nil); n != 1 || srv.SweepsExecuted() != 1 {
		t.Fatalf("sweeps executed = %g, want 1", n)
	}
	if hits, size := sampleValue(t, fams, "odeproto_cache_hits_total", nil), sampleValue(t, fams, "odeproto_cache_size", nil); hits < 1 || size != 1 {
		t.Fatalf("cache hits %g, size %g", hits, size)
	}
}

// TestAsyncnetVirtualJobsAreCached: the virtual-time scheduler made
// asyncnet deterministic, so an identical second POST is a pure cache hit
// — byte-identical result, no second sweep.
func TestAsyncnetVirtualJobsAreCached(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	spec := JobSpec{
		Source: epidemicSource, Engine: "asyncnet",
		N: 60, Initial: map[string]int{"x": 50, "y": 10}, Periods: 4,
	}
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit asyncnet: %d %s", resp.StatusCode, data)
	}
	first := waitStatus(t, ts.URL, decodeStatus(t, data).ID, StatusDone, 60*time.Second)
	if first.Cached || first.Mode != ModeVirtual {
		t.Fatalf("first asyncnet run: cached=%v mode=%q", first.Cached, first.Mode)
	}
	total := 0
	for _, c := range first.Result.Runs[0].Rows[len(first.Result.Runs[0].Rows)-1].Counts {
		total += c
	}
	if total != 60 {
		t.Fatalf("asyncnet final counts sum to %d", total)
	}

	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate asyncnet submit: %d %s", resp.StatusCode, data)
	}
	dup := decodeStatus(t, data)
	if dup.Status != StatusDone || !dup.Cached || dup.CacheKey != first.CacheKey {
		t.Fatalf("duplicate virtual asyncnet POST not served from cache: %+v", dup)
	}
	if n := srv.SweepsExecuted(); n != 1 {
		t.Fatalf("two identical virtual asyncnet posts ran %d sweeps, want 1", n)
	}
	got := waitStatus(t, ts.URL, dup.ID, StatusDone, 10*time.Second)
	a, err := json.Marshal(first.Result)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(got.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("cached virtual asyncnet result differs from the original")
	}
}

// TestCloseFinishesQueuedJobs guards the graceful-shutdown path: jobs
// still sitting in the queue when the server closes must reach a terminal
// state (and close their streams) instead of staying "queued" forever.
func TestCloseFinishesQueuedJobs(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 8})
	running, err := srv.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	queuedSpec := slowSpec()
	queuedSpec.Seed = 2
	queued, err := srv.Submit(queuedSpec)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if st := running.Snapshot(false); st.Status != StatusCancelled {
		t.Fatalf("running job after Close: %s", st.Status)
	}
	if st := queued.Snapshot(false); st.Status != StatusCancelled {
		t.Fatalf("queued job after Close: %s", st.Status)
	}
	select {
	case <-queued.done:
	default:
		t.Fatal("queued job's done channel still open after Close")
	}
	// New submissions after Close are rejected, not stranded.
	if _, err := srv.Submit(smallSpec()); err == nil {
		t.Fatal("Submit accepted after Close")
	}
}

// TestWorkerCacheRecheckDoesNotDoubleCountMisses: each executed job
// should register exactly one miss (at Submit), not a second one when the
// worker re-checks the cache at pickup.
func TestWorkerCacheRecheckDoesNotDoubleCountMisses(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	waitStatus(t, ts.URL, decodeStatus(t, data).ID, StatusDone, 30*time.Second)
	if n := srv.met.cacheMisses.Value(); n != 1 {
		t.Fatalf("one executed job recorded %d misses, want 1", n)
	}
}

func TestSubmitterSeesConsistentIDs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	ids := map[string]bool{}
	for i := 0; i < 5; i++ {
		spec := smallSpec()
		spec.Seed = int64(100 + i)
		resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, data)
		}
		st := decodeStatus(t, data)
		if ids[st.ID] {
			t.Fatalf("duplicate job id %s", st.ID)
		}
		ids[st.ID] = true
	}
	for id := range ids {
		waitStatus(t, ts.URL, id, StatusDone, 60*time.Second)
	}
}
