package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"odeproto/internal/obs"
)

// testSLOs is a one-SLO latency policy with short windows, so a fake clock
// crosses every window in a few ticks.
func testSLOs() []sloDef {
	return []sloDef{{
		name: "lat", indicator: IndicatorLatency, objective: 0.9, threshold: 1,
		windows:  [3]time.Duration{time.Minute, 5 * time.Minute, 30 * time.Minute},
		pageBurn: 5, warnBurn: 2,
	}}
}

// TestSLOStateMachineTransitions drives the evaluator with a fake clock
// through ok → page → ok and asserts both the transitions and the
// structured log line each one produces.
func TestSLOStateMachineTransitions(t *testing.T) {
	reg := obs.NewRegistry()
	met := newServiceMetrics(reg)
	e := newSLOEvaluator(testSLOs(), met, reg)
	var logBuf bytes.Buffer
	s := &Server{log: obs.NewLeveledLogger(&logBuf, "n1", slog.LevelInfo)}

	base := time.Unix(1700000000, 0)
	e.tick(base)
	report, transitions := e.evaluate(base)
	if report.State != SLOOk || len(transitions) != 0 {
		t.Fatalf("initial state = %s, transitions %v; want ok, none", report.State, transitions)
	}

	// Burn-rate breach: every job blows the 1s threshold, so the bad
	// fraction is 1 and the burn rate is 1/(1-0.9) = 10 >= the page
	// threshold in both the short and mid windows.
	for i := 0; i < 20; i++ {
		met.jobDuration.ObserveTraced(5, obs.NewTraceID())
	}
	now := base.Add(30 * time.Second)
	e.tick(now)
	report, transitions = e.evaluate(now)
	s.logSLOTransitions(transitions)
	if report.State != SLOPage {
		t.Fatalf("state after breach = %s, want page (report %+v)", report.State, report)
	}
	if len(transitions) != 1 || transitions[0].from != SLOOk || transitions[0].to != SLOPage {
		t.Fatalf("transitions = %+v, want one ok->page", transitions)
	}
	if v := e.stateGauge.With("lat").Value(); v != 2 {
		t.Fatalf("odeproto_slo_state = %v, want 2 (page)", v)
	}

	// Recovery: the windows roll past the burst with no new bad events.
	for i := 1; i <= 30; i++ {
		e.tick(now.Add(time.Duration(i) * time.Minute))
	}
	later := now.Add(30 * time.Minute)
	report, transitions = e.evaluate(later)
	s.logSLOTransitions(transitions)
	if report.State != SLOOk {
		t.Fatalf("state after recovery = %s, want ok (report %+v)", report.State, report)
	}
	if len(transitions) != 1 || transitions[0].from != SLOPage || transitions[0].to != SLOOk {
		t.Fatalf("transitions = %+v, want one page->ok", transitions)
	}
	if v := e.stateGauge.With("lat").Value(); v != 0 {
		t.Fatalf("odeproto_slo_state = %v, want 0 (ok)", v)
	}

	// Each transition produced one structured log line with from/to.
	var lines []map[string]any
	sc := bufio.NewScanner(&logBuf)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q", sc.Text())
		}
		if rec["msg"] == "slo state change" {
			lines = append(lines, rec)
		}
	}
	if len(lines) != 2 {
		t.Fatalf("slo state change log lines = %d, want 2", len(lines))
	}
	if lines[0]["from"] != "ok" || lines[0]["to"] != "page" || lines[0]["level"] != "WARN" {
		t.Fatalf("breach line = %v", lines[0])
	}
	if lines[1]["from"] != "page" || lines[1]["to"] != "ok" || lines[1]["level"] != "INFO" {
		t.Fatalf("recovery line = %v", lines[1])
	}
}

func TestSLOErrorRateIndicator(t *testing.T) {
	reg := obs.NewRegistry()
	met := newServiceMetrics(reg)
	defs := testSLOs()
	defs[0] = sloDef{
		name: "errs", indicator: IndicatorErrors, objective: 0.99,
		windows: defs[0].windows, pageBurn: 5, warnBurn: 2,
	}
	e := newSLOEvaluator(defs, met, reg)
	base := time.Unix(1700000000, 0)
	e.tick(base)
	// 100 completions, 10 failures: bad fraction 0.1 against a 0.01
	// budget burns at 10x — page.
	for i := 0; i < 100; i++ {
		met.jobDuration.Observe(0.01)
	}
	met.failed.Add(10)
	report, _ := e.evaluate(base.Add(30 * time.Second))
	if report.State != SLOPage {
		t.Fatalf("error-rate state = %s, want page (report %+v)", report.State, report)
	}
	ws := report.SLOs[0].Windows[0]
	if ws.Total != 100 || ws.Bad != 10 || ws.BadFraction != 0.1 {
		t.Fatalf("window = %+v, want total 100 bad 10 fraction 0.1", ws)
	}
}

func TestRetryAfterFromQueueWaitQuantile(t *testing.T) {
	reg := obs.NewRegistry()
	met := newServiceMetrics(reg)
	e := newSLOEvaluator(testSLOs(), met, reg)
	now := time.Unix(1700000000, 0)
	if got := e.retryAfterSeconds(now); got != 1 {
		t.Fatalf("retry-after with no data = %d, want floor 1", got)
	}
	// 100 queue waits of 8s land in the (5, 10] bucket; the interpolated
	// p95 is 9.75s, so the hint rounds up to 10.
	for i := 0; i < 100; i++ {
		met.queueWait.Observe(8)
	}
	if got := e.retryAfterSeconds(now); got != 10 {
		t.Fatalf("retry-after = %d, want 10 (ceil of interpolated p95)", got)
	}
}

// TestSLOEndpoint exercises GET /v1/slo on a live server: after a job
// completes, the latency SLO reports computed quantiles in every window
// and the overall state is ok.
func TestSLOEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallSpec())
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	id := decodeStatus(t, data).ID
	waitStatus(t, ts.URL, id, StatusDone, 30*time.Second)

	resp, data = doJSON(t, http.MethodGet, ts.URL+"/v1/slo", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/slo: %d %s", resp.StatusCode, data)
	}
	var report SLOReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("decoding /v1/slo: %v\n%s", err, data)
	}
	if report.State != SLOOk {
		t.Fatalf("overall state = %s, want ok\n%s", report.State, data)
	}
	var lat *SLOStatus
	for i := range report.SLOs {
		if report.SLOs[i].Name == "job_latency" {
			lat = &report.SLOs[i]
		}
	}
	if lat == nil {
		t.Fatalf("no job_latency SLO in report:\n%s", data)
	}
	if len(lat.Windows) != 3 {
		t.Fatalf("windows = %d, want 3", len(lat.Windows))
	}
	for _, ws := range lat.Windows {
		if ws.Total < 1 {
			t.Fatalf("window %s total = %d, want >= 1", ws.Window, ws.Total)
		}
		if ws.P50 <= 0 || ws.P95 <= 0 || ws.P99 <= 0 || ws.P50 > ws.P99 {
			t.Fatalf("window %s quantiles = p50 %v p95 %v p99 %v", ws.Window, ws.P50, ws.P95, ws.P99)
		}
	}
}

// TestTraceWaterfallSVG checks the trace.svg rendering: stage labels,
// node attribution, and SVG shape.
func TestTraceWaterfallSVG(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Node: "n1"})
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallSpec())
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	id := decodeStatus(t, data).ID
	waitStatus(t, ts.URL, id, StatusDone, 30*time.Second)

	svgResp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace.svg")
	if err != nil {
		t.Fatal(err)
	}
	defer svgResp.Body.Close()
	if svgResp.StatusCode != http.StatusOK {
		t.Fatalf("trace.svg status = %d", svgResp.StatusCode)
	}
	if ct := svgResp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Fatalf("trace.svg content type = %q", ct)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(svgResp.Body); err != nil {
		t.Fatal(err)
	}
	svg := body.String()
	if !strings.HasPrefix(svg, "<svg") {
		t.Fatalf("trace.svg body does not start with <svg:\n%.200s", svg)
	}
	for _, stage := range []string{obs.StageQueued, obs.StageCompiled, obs.StageSwept, obs.StageResponded} {
		if !strings.Contains(svg, ">"+stage+"<") {
			t.Fatalf("trace.svg missing stage label %q", stage)
		}
	}
	if !strings.Contains(svg, "node n1") {
		t.Fatal("trace.svg missing owning-node label")
	}

	if resp, _ := http.Get(ts.URL + "/v1/jobs/nope/trace.svg"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job trace.svg status = %d, want 404", resp.StatusCode)
	}
}
