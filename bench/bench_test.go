package main

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"odeproto/internal/obs"
	"odeproto/internal/service"
	"odeproto/internal/store"
)

func openTestStore(t *testing.T) *store.FileStore {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}

func durations(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for k, v := range ms {
		out[k] = time.Duration(v) * time.Millisecond
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	s := durations(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	for _, tc := range []struct {
		p    float64
		want int
	}{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {0, 1}, {10, 1}, {11, 2}} {
		if got := percentile(s, tc.p); got != time.Duration(tc.want)*time.Millisecond {
			t.Errorf("p%g = %v, want %dms", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

// An open loop keeps its schedule through a stall: the ops that were due
// while the connection was stuck are charged the wait (latency runs from
// the due instant), and none of it is booked as the generator's own
// lateness.
func TestOpenLoopChargesStallToDueTime(t *testing.T) {
	const (
		rate    = 500.0 // one op every 2 ms
		stallAt = 10
		stall   = 60 * time.Millisecond
	)
	c := &client{}
	lats := make(map[int]time.Duration)
	var started []time.Time
	do := func(c *client, i int) error {
		started = append(started, time.Now())
		if i == stallAt {
			time.Sleep(stall)
		}
		c.lastResponse = time.Now()
		return nil
	}
	begin := time.Now()
	st := runLoop(context.Background(), []*client{c}, loop{rate: rate, dur: 200 * time.Millisecond}, func(c *client, i int) error {
		err := do(c, i)
		due := begin.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		lats[i] = c.lastResponse.Sub(due)
		return err
	})
	if st.attempted != 100 || st.failed != 0 || len(st.lats) != 100 {
		t.Fatalf("attempted %d failed %d samples %d, want exactly rate × dur = 100 ops", st.attempted, st.failed, len(st.lats))
	}
	// Op 11 was due 2 ms into a 60 ms stall: it waited out the rest.
	if got := lats[stallAt+1]; got < 50*time.Millisecond {
		t.Errorf("op after the stall has latency %v from its due time, want ≥ 50ms", got)
	}
	// The backlog drains: the ops queued behind the stall start back to
	// back, not at their 2 ms spacing.
	if gap := started[stallAt+5].Sub(started[stallAt+1]); gap > 6*time.Millisecond {
		t.Errorf("backlogged ops started %v apart (8ms on schedule), want them sent back to back", gap)
	}
	if got := st.lats[len(st.lats)-1]; got < stall {
		t.Errorf("worst latency %v, want ≥ the %v stall", got, stall)
	}
	// The stall kept the connection busy; the generator itself was on time.
	if lag := st.lags[len(st.lags)-1]; lag > 45*time.Millisecond {
		t.Errorf("worst generator lag = %v: the stall was booked as generator lateness", lag)
	}
	// The clock is polled, not slept on: half the ops start within 0.2 ms
	// of the instant they could.
	if lag := st.lags[len(st.lags)/2]; lag > 200*time.Microsecond {
		t.Errorf("median generator lag = %v, want the release within 0.2ms of the schedule", lag)
	}
	// Before the stall, ops start on schedule.
	if early := started[5].Sub(begin); early < 10*time.Millisecond || early > 60*time.Millisecond {
		t.Errorf("op 5 started %v after the phase began, want about 10ms", early)
	}
}

func TestClosedLoopStopsAfterDuration(t *testing.T) {
	c := &client{}
	st := runLoop(context.Background(), []*client{c}, loop{dur: 50 * time.Millisecond, first: 7}, func(c *client, i int) error {
		if i < 7 {
			t.Errorf("op index %d below the phase's first index", i)
		}
		time.Sleep(5 * time.Millisecond)
		c.lastResponse = time.Now()
		return nil
	})
	if st.attempted < 5 || st.attempted > 11 {
		t.Errorf("closed loop ran %d 5ms ops in 50ms", st.attempted)
	}
	if st.elapsed < 50*time.Millisecond {
		t.Errorf("elapsed %v, want the last completion at or after the duration", st.elapsed)
	}
}

func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	for i := 0; i < 50; i++ {
		if a, b := tinySpec(3, i), tinySpec(3, i); !reflect.DeepEqual(a, b) {
			t.Fatalf("tinySpec(3, %d) differs between calls", i)
		}
		if reflect.DeepEqual(simJobs(3, i), simJobs(4, i)) {
			t.Fatalf("simJobs ignores the seed at op %d", i)
		}
	}
	if reflect.DeepEqual(tinySpec(3, 0).Params, tinySpec(4, 0).Params) && reflect.DeepEqual(tinySpec(3, 1).Params, tinySpec(4, 1).Params) {
		t.Error("tinySpec draws the same parameters under different seeds")
	}
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		for j := 0; j < 3; j++ {
			s := jobSeed(9, i, j)
			if s == 0 || seen[s] {
				t.Fatalf("jobSeed(9, %d, %d) = %d is zero or repeats", i, j, s)
			}
			seen[s] = true
		}
	}

	a, b := readPlan(5, readKeys, 4000), readPlan(5, readKeys, 4000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("readPlan differs between calls with one seed")
	}
	if reflect.DeepEqual(a, readPlan(6, readKeys, 4000)) {
		t.Fatal("readPlan ignores the seed")
	}
	// Class shares are exact (the cycle), and keys are skewed: the most
	// popular key takes far more than 1/1024 of the requests.
	perClass := map[int]int{}
	perKey := map[int]int{}
	for _, rq := range a {
		perClass[rq.class]++
		perKey[rq.key]++
		if rq.key < 0 || rq.key >= readKeys {
			t.Fatalf("key %d out of range", rq.key)
		}
		if rq.class == clsStreamReplay && rq.key < readKeys-replayWindow {
			t.Fatalf("stream replay targets key %d, outside the newest %d", rq.key, replayWindow)
		}
	}
	want := map[int]int{clsResult: 1400, clsResultGzip: 600, clsResult304: 800, clsStatus: 600, clsStreamReplay: 200, clsDupSubmit: 400}
	if !reflect.DeepEqual(perClass, want) {
		t.Errorf("class counts %v, want %v", perClass, want)
	}
	top := 0
	for _, n := range perKey {
		top = max(top, n)
	}
	if top < 200 {
		t.Errorf("hottest key has %d of 4000 requests; want a Zipf head", top)
	}
	if got := traceID(7, 41); !obs.ValidTraceID(got) {
		t.Errorf("traceID %q is not a trace ID the daemon accepts", got)
	}
}

// Every catalogue system must compile through the service's own pipeline
// at both ends of its parameter grid, and start with counts that sum to N.
func TestCatalogueCompiles(t *testing.T) {
	srv := service.New(service.Config{})
	defer srv.Close()
	rewrites := 0
	for _, sys := range catalogue {
		for _, v := range []float64{sys.lo + (sys.hi-sys.lo)/gridSize, sys.hi} {
			params := map[string]float64{sys.grid: v}
			for k, f := range sys.fixed {
				params[k] = f
			}
			spec := service.JobSpec{Source: sys.source, Params: params, N: 300, Periods: 20, Initial: initial(sys.vars, sys.fracs, 300)}
			if _, err := srv.RouteKey(spec); err != nil {
				t.Errorf("%s at %s=%g: %v", sys.name, sys.grid, v, err)
			}
		}
		lt, err := replayJob(service.JobSpec{Source: sys.source, Params: map[string]float64{sys.grid: sys.hi, "gamma": 1, "alpha": 0.01},
			N: 300, Periods: 2, Initial: initial(sys.vars, sys.fracs, 300), Seed: 1}, openTestStore(t), nil, "")
		if err != nil {
			t.Fatalf("replay %s: %v", sys.name, err)
		}
		if lt.rewrote {
			rewrites++
		}
	}
	if rewrites != 2 {
		t.Errorf("%d catalogue systems needed the §7 rewrite, want 2 (lv and pool)", rewrites)
	}
	for _, n := range []int{300, 2000, 5000, 100_000, 1_000_000, 7} {
		sum := 0
		for _, c := range initial([]string{"x", "y", "w"}, []float64{0.29, 0.57, 0.14}, n) {
			sum += c
		}
		if sum != n {
			t.Errorf("initial counts for n=%d sum to %d", n, sum)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100]; a [10,40] and b [30,60] overlap; c [90,120] sticks out;
	// a has child a1 [15,25].
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 40, 2: 20, 3: 30, 4: 30, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if got := rootCoverage(spans); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("root coverage %g, want 0.6", got)
	}
	// A nil recorder records nothing and hands out no IDs.
	var rec *recorder
	if id := rec.add("t", 0, "x", time.Now(), time.Now()); id != 0 {
		t.Errorf("nil recorder returned span ID %d", id)
	}
	rec.setEnd(0, time.Now())
}

func TestProcParsers(t *testing.T) {
	// A command name with spaces and a closing parenthesis inside.
	stat := "4242 (ode) proto d) S 1 4242 4242 0 -1 4194560 1500 0 3 0 731 269 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	user, sys, err := parseProcStat(stat)
	if err != nil || user != 7310*time.Millisecond || sys != 2690*time.Millisecond {
		t.Errorf("parseProcStat = %v %v %v, want 7.31s 2.69s", user, sys, err)
	}
	if _, _, err := parseProcStat("garbage"); err == nil {
		t.Error("parseProcStat accepted garbage")
	}
	status := "Name:\todeprotod\nVmPeak:\t 1234567 kB\nVmHWM:\t   65536 kB\nVmRSS:\t   1024 kB\n"
	if kb, err := parseProcStatusKB(status, "VmHWM"); err != nil || kb != 65536 {
		t.Errorf("VmHWM = %d %v, want 65536", kb, err)
	}
	if _, err := parseProcStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing field did not error")
	}
}

func parseSnapshot(t *testing.T, text string) *snapshot {
	t.Helper()
	fam, err := obs.ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return &snapshot{families: fam, scrapeBytes: len(text)}
}

func TestLayerCountsAreExpositionDeltas(t *testing.T) {
	expo := func(syncs, written, sweeps, hits, misses int, b1, b5, binf int, sum float64) string {
		r := obs.NewRegistry()
		r.Counter("odeproto_wal_syncs_total", "h").Add(int64(syncs))
		r.Counter("odeproto_store_results_written_total", "h").Add(int64(written))
		r.Counter("odeproto_sweeps_executed_total", "h").Add(int64(sweeps))
		r.Counter("odeproto_cache_hits_total", "h").Add(int64(hits))
		r.Counter("odeproto_cache_misses_total", "h").Add(int64(misses))
		h := r.Histogram("odeproto_queue_wait_seconds", "h", []float64{0.001, 0.005})
		for k := 0; k < b1; k++ {
			h.Observe(0.0005)
		}
		for k := 0; k < b5-b1; k++ {
			h.Observe(0.003)
		}
		for k := 0; k < binf-b5; k++ {
			h.Observe(1)
		}
		var sb strings.Builder
		if err := r.Render(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	before := parseSnapshot(t, expo(30, 10, 10, 0, 10, 10, 10, 10, 0))
	after := parseSnapshot(t, expo(330, 110, 110, 25, 85, 10, 110, 110, 0))
	before.cpuUser, after.cpuUser = time.Second, 3*time.Second
	before.cpuSys, after.cpuSys = 0, time.Second
	before.diskBytes, after.diskBytes = 1000, 151000
	m := map[string]float64{}
	layerCounts(m, before, after, 100, 50)
	for name, want := range map[string]float64{
		"fsyncs_per_op":                4,
		"store.wal_syncs_per_op":       3,
		"service.sweeps_per_op":        1,
		"disk_bytes_per_op":            1500,
		"cpu_ms_per_op":                30,
		"odeprotod.cpu_user_ms_per_op": 20,
		"odeprotod.cpu_sys_ms_per_op":  10,
		"service.cache_hit_ratio":      0.25,
		// All 100 new observations fell in (1 ms, 5 ms]: the median
		// interpolates to the middle of that bucket.
		"service.queue_wait_p50_ms": 3,
		// Nothing observed between the snapshots reports 0, not NaN.
		"service.job_duration_p50_ms": 0,
	} {
		if got := m[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %g %g %g, want 1.5 4 12", q1, q2, q3)
	}
}

// derive gates a metric only when the calibration files leave room for it
// under the ceiling, in both directions: it demotes on drift between two
// files and promotes a metric that has become steady.
func TestDeriveBoundsFromCalibrations(t *testing.T) {
	bound := 0.1
	bf := &benchFile{
		EndToEnd: []metricDecl{
			{Name: "setup_s", Unit: "s", Better: "lower", Bound: &bound},
			{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: &bound},
			{Name: "within_limit_ratio", Unit: "ratio", Better: "higher", Bound: &bound},
			{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: &bound},
			{Name: "disk_bytes_per_op", Unit: "B", Better: "lower", Bound: &bound},
			{Name: "fsyncs_per_op", Unit: "count", Better: "lower", Bound: &bound},
		},
		PerLayer: []metricDecl{
			{Name: "odeload.lat_p99_ms", Unit: "ms", Better: "lower"},
			{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
			{Name: "lat_p50_ms", Unit: "ms", Better: "lower"},
			{Name: "lat_p90_ms", Unit: "ms", Better: "lower"},
		},
	}
	rows := func(lat, cpu, within float64) []spreadRow {
		return []spreadRow{
			{Workload: "sweep-sim", Metric: "setup_s", Median: 0.005, Spread: 0.40},
			{Workload: "sweep-sim", Metric: "ops_per_s", Median: 9, Spread: 0.02},
			{Workload: "sweep-sim", Metric: "lat_p50_ms", Median: lat, Spread: 0.04},
			{Workload: "read-mix", Metric: "lat_p90_ms", Median: 1, Spread: 0.20},
			{Workload: "sweep-sim", Metric: "cpu_ms_per_op", Median: cpu, Spread: 0.03},
			{Workload: "read-mix", Metric: "within_limit_ratio", Median: within, Spread: 0.001},
			{Workload: "read-mix", Metric: "rss_peak_mb", Median: 130, Spread: 0.03},
			{Workload: "read-mix", Metric: "disk_bytes_per_op", Median: 50, Spread: 0},
			{Workload: "read-mix", Metric: "fsyncs_per_op", Median: 0.1, Spread: 0},
		}
	}
	decs := derive(bf, map[string]calibration{
		"01.json": {Rows: rows(100, 100, 1)},
		"02.json": {Rows: rows(103, 120, 0.99)},
	})
	want := map[string]float64{ // 0: not gated
		"setup_s":            0.25, // gated whatever its spread
		"ops_per_s":          0.10, // promoted: 3 × 2 % is under the floor
		"lat_p50_ms":         0.12, // 3 × spread beats 2 × 3 % drift
		"lat_p90_ms":         0,    // 3 × 20 % is over the ceiling
		"cpu_ms_per_op":      0,    // steady within a file, 20 % apart between two
		"within_limit_ratio": 0.02, // a higher-is-better metric drifts downwards
		"rss_peak_mb":        0.10,
		"disk_bytes_per_op":  0.01,
		"fsyncs_per_op":      0.001,
	}
	for _, d := range decs {
		if got := d.Bound; d.Gated != (want[d.Metric] != 0) || math.Abs(got-want[d.Metric]) > 1e-9 {
			t.Errorf("%s: gated %v bound %g, want bound %g (%s)", d.Metric, d.Gated, got, want[d.Metric], d.Why)
		}
	}
	var e2e, layers []string
	for _, d := range bf.EndToEnd {
		e2e = append(e2e, d.Name)
		if d.Bound == nil || *d.Bound != want[d.Name] {
			t.Errorf("end-to-end %s carries bound %v, want %g", d.Name, d.Bound, want[d.Name])
		}
	}
	for _, d := range bf.PerLayer {
		layers = append(layers, d.Name)
		if d.Bound != nil {
			t.Errorf("per-layer %s carries a bound", d.Name)
		}
	}
	if got, want := strings.Join(e2e, " "), "setup_s ops_per_s lat_p50_ms within_limit_ratio rss_peak_mb disk_bytes_per_op fsyncs_per_op"; got != want {
		t.Errorf("end-to-end list %q, want %q", got, want)
	}
	if got, want := strings.Join(layers, " "), "odeload.lat_p99_ms lat_p90_ms cpu_ms_per_op"; got != want {
		t.Errorf("per-layer list %q, want %q", got, want)
	}
}

func TestCheckCounts(t *testing.T) {
	stream := `{"run":0,"seed":1,"period":0,"counts":[270,30,0]}
{"run":0,"seed":1,"period":1,"counts":[250,40,10]}
{"run":0,"seed":0,"period":-1,"counts":null,"event":"done"}
`
	if err := checkCounts([]byte(stream), 300, 2); err != nil {
		t.Error(err)
	}
	if err := checkCounts([]byte(stream), 300, 3); err == nil {
		t.Error("a missing row went unnoticed")
	}
	if err := checkCounts([]byte(strings.Replace(stream, "250", "251", 1)), 300, 2); err == nil {
		t.Error("a row that gained a process went unnoticed")
	}
	if err := checkCounts([]byte(`{"counts":[1,2,`), 3, 1); err == nil {
		t.Error("a truncated row went unnoticed")
	}
}

// Every name in BENCHMARK.json must be one a run produces: the smoke run
// boots a real daemon for each workload, measures for a second with the
// trace and the probes on, and checks that all declared metrics — both
// lists — come out, that nothing failed verification, and that the spans
// account for the ops.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots daemons and measures for a second per workload")
	}
	t.Chdir("..")
	bf, err := readBenchFile(benchFileName)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%s names %d workloads, the program has %d", benchFileName, len(bf.Workloads), len(workloads))
	}
	dir := t.TempDir()
	cfg := &config{outDir: dir, dataRoot: dir}
	if cfg.bin, err = buildDaemon(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	for k, decl := range bf.Workloads {
		w := findWorkload(decl.Name)
		if w == nil || w != &workloads[k] {
			t.Fatalf("workload %q of %s is not workload %d of the program", decl.Name, benchFileName, k)
		}
		t.Run(w.name, func(t *testing.T) {
			res, err := cfg.runWorkload(context.Background(), w, 1, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%d of %d ops failed: %v", res.failed, res.attempted, res.firstErr)
			}
			for _, d := range append(bf.EndToEnd, bf.PerLayer...) {
				v, ok := res.metrics[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("metric %s: measured %v, value %v", d.Name, ok, v)
				}
			}
			for _, d := range bf.EndToEnd {
				if res.metrics[d.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %g, want it positive on every workload", d.Name, res.metrics[d.Name])
				}
			}
			if res.coverage < 0.95 {
				t.Errorf("child spans explain %.3f of the op spans, want ≥ 0.95", res.coverage)
			}
			if got := res.metrics["sim.msgs_per_period"]; got != math.Trunc(got) || got == 0 {
				t.Errorf("sim.msgs_per_period = %g, want a positive whole number", got)
			}
		})
	}
}

// The result object of a single run has exactly the keys of the contract.
func TestRunJSONShape(t *testing.T) {
	line, err := json.Marshal(runJSON{Correct: true, Attempted: 3, Metrics: map[string]metricValue{"lat_p50_ms": {1.25, "ms"}}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":3,"failed":0,"metrics":{"lat_p50_ms":{"value":1.25,"unit":"ms"}}}`
	if string(line) != want {
		t.Errorf("result object\n got %s\nwant %s", line, want)
	}
}
