package obs

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatalf("Render: %v", err)
	}
	return b.String()
}

func parse(t *testing.T, text string) map[string]*MetricFamily {
	t.Helper()
	fams, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseExposition: %v\ninput:\n%s", err, text)
	}
	return fams
}

func TestCounterRenderParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "Events seen.")
	c.Inc()
	c.Add(4)
	fams := parse(t, render(t, r))
	f := fams["test_events_total"]
	if f == nil || f.Type != "counter" || f.Help != "Events seen." {
		t.Fatalf("family mismatch: %+v", f)
	}
	if v, ok := f.Value("test_events_total", nil); !ok || v != 5 {
		t.Fatalf("value = %v, %v; want 5", v, ok)
	}
	if c.Value() != 5 {
		t.Fatalf("Value() = %d, want 5", c.Value())
	}
}

func TestCounterVecLabels(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("test_ops_total", "Ops.", "op", "result")
	vec.With("get", "hit").Add(3)
	vec.With("get", "miss").Inc()
	vec.With("put", "hit").Add(7)
	fams := parse(t, render(t, r))
	f := fams["test_ops_total"]
	if len(f.Samples) != 3 {
		t.Fatalf("samples = %d, want 3", len(f.Samples))
	}
	if v, _ := f.Value("test_ops_total", map[string]string{"op": "get", "miss": ""}); v != 0 {
		t.Fatalf("bogus label set matched: %v", v)
	}
	if v, ok := f.Value("test_ops_total", map[string]string{"op": "get", "result": "miss"}); !ok || v != 1 {
		t.Fatalf("get/miss = %v, %v; want 1", v, ok)
	}
	if v, ok := f.Value("test_ops_total", map[string]string{"op": "put", "result": "hit"}); !ok || v != 7 {
		t.Fatalf("put/hit = %v, %v; want 7", v, ok)
	}
}

func TestGaugeSetAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_depth", "Depth.")
	g.Set(10)
	g.Add(-2.5)
	if g.Value() != 7.5 {
		t.Fatalf("Value = %v, want 7.5", g.Value())
	}
	fams := parse(t, render(t, r))
	if v, ok := fams["test_depth"].Value("test_depth", nil); !ok || v != 7.5 {
		t.Fatalf("rendered = %v, %v; want 7.5", v, ok)
	}
}

func TestFuncMetricsSampledAtScrape(t *testing.T) {
	r := NewRegistry()
	n := int64(0)
	r.CounterFunc("test_fn_total", "Sampled.", func() int64 { return n })
	x := 1.5
	r.GaugeFunc("test_fn_gauge", "Sampled.", func() float64 { return x })
	n, x = 42, -3
	fams := parse(t, render(t, r))
	if v, _ := fams["test_fn_total"].Value("test_fn_total", nil); v != 42 {
		t.Fatalf("counter fn = %v, want 42", v)
	}
	if v, _ := fams["test_fn_gauge"].Value("test_fn_gauge", nil); v != -3 {
		t.Fatalf("gauge fn = %v, want -3", v)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	fams := parse(t, render(t, r))
	f := fams["test_latency_seconds"]
	if _, err := CheckHistogram(f); err != nil {
		t.Fatalf("CheckHistogram: %v", err)
	}
	want := map[string]float64{"0.1": 2, "1": 3, "10": 4, "+Inf": 5}
	for le, count := range want {
		v, ok := f.Value("test_latency_seconds_bucket", map[string]string{"le": le})
		if !ok || v != count {
			t.Fatalf("bucket le=%s = %v, %v; want %v", le, v, ok, count)
		}
	}
	if v, _ := f.Value("test_latency_seconds_count", nil); v != 5 {
		t.Fatalf("_count = %v, want 5", v)
	}
	if v, _ := f.Value("test_latency_seconds_sum", nil); v != 102.65 {
		t.Fatalf("_sum = %v, want 102.65", v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count() = %d, want 5", h.Count())
	}
}

func TestHistogramVecPerLabelSeries(t *testing.T) {
	r := NewRegistry()
	vec := r.HistogramVec("test_sweep_seconds", "Sweep latency.", DefBuckets, "engine", "mode")
	vec.With("agent", "").Observe(0.2)
	vec.With("asyncnet", "virtual").Observe(0.002)
	vec.With("asyncnet", "virtual").Observe(3)
	fams := parse(t, render(t, r))
	keys, err := CheckHistogram(fams["test_sweep_seconds"])
	if err != nil {
		t.Fatalf("CheckHistogram: %v", err)
	}
	if len(keys) != 2 {
		t.Fatalf("series = %v, want 2", keys)
	}
	v, ok := fams["test_sweep_seconds"].Value("test_sweep_seconds_count",
		map[string]string{"engine": "asyncnet", "mode": "virtual"})
	if !ok || v != 2 {
		t.Fatalf("asyncnet count = %v, %v; want 2", v, ok)
	}
}

func TestLabelEscapingRoundTrip(t *testing.T) {
	r := NewRegistry()
	vec := r.GaugeVec("test_escape", "Has \\ and\nnewline.", "v")
	weird := "a\"b\\c\nd"
	vec.With(weird).Set(1)
	fams := parse(t, render(t, r))
	f := fams["test_escape"]
	if f.Help != "Has \\ and\nnewline." {
		t.Fatalf("help round-trip = %q", f.Help)
	}
	if v, ok := f.Value("test_escape", map[string]string{"v": weird}); !ok || v != 1 {
		t.Fatalf("escaped label lost: %v, %v", v, ok)
	}
}

func TestRenderDeterministic(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		r.Counter("test_b_total", "b").Inc()
		vec := r.CounterVec("test_a_total", "a", "k")
		vec.With("z").Inc()
		vec.With("a").Inc()
		var b strings.Builder
		if err := r.Render(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first := build()
	for i := 0; i < 5; i++ {
		if got := build(); got != first {
			t.Fatalf("render not deterministic:\n%s\nvs\n%s", first, got)
		}
	}
	if strings.Index(first, "test_a_total") > strings.Index(first, "test_b_total") {
		t.Fatalf("families not sorted:\n%s", first)
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("test_dup_total", "x")
	mustPanic("duplicate name", func() { r.Gauge("test_dup_total", "y") })
	mustPanic("invalid name", func() { r.Counter("1bad", "x") })
	mustPanic("invalid label", func() { r.CounterVec("test_l_total", "x", "0bad") })
	mustPanic("negative counter", func() { r.Counter("test_neg_total", "x").Add(-1) })
	mustPanic("no buckets", func() { r.Histogram("test_h0", "x", nil) })
	mustPanic("unsorted buckets", func() { r.Histogram("test_h1", "x", []float64{2, 1}) })
	mustPanic("le label", func() { r.HistogramVec("test_h2", "x", DefBuckets, "le") })
	vec := r.CounterVec("test_arity_total", "x", "a", "b")
	mustPanic("label arity", func() { vec.With("only-one") })
	capVec := r.CounterVec("test_cap_total", "x", "id")
	for i := 0; i < maxChildren; i++ {
		capVec.With(strings.Repeat("x", 3) + string(rune('a'+i%26)) + formatFloat(float64(i)))
	}
	mustPanic("child cap", func() { capVec.With("one-too-many") })
}

type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, errors.New("stream hung up")
	}
	f.after--
	return len(p), nil
}

func TestRenderSurfacesWriteErrors(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_x_total", "x").Inc()
	for after := 0; after < 4; after++ {
		if err := r.Render(&failWriter{after: after}); err == nil {
			t.Fatalf("write failure at write %d swallowed", after)
		}
	}
}

func TestParserRejectsMalformed(t *testing.T) {
	bad := []string{
		"test_orphan 1\n",
		"# HELP test_x x\n# TYPE test_x widget\ntest_x 1\n",
		"# HELP test_x x\n# TYPE test_x counter\ntest_x{a=\"unterminated} 1\n",
		"# HELP test_x x\n# TYPE test_x counter\ntest_x notanumber\n",
		"# HELP test_x x\n# TYPE test_x counter\ntest_y 1\n",
		"# HELP test_x x\n# TYPE test_x counter\ntest_x_bucket{le=\"1\"} 1\n",
		"# HELP test_x x\ntest_x 1\n", // HELP but never typed
		"# HELP test_x x\n# HELP test_x x\n",
		// Duplicate series (same name + label set twice) must be rejected,
		// not last-write-wins: a scrape that repeats a series is corrupt.
		"# HELP test_x x\n# TYPE test_x counter\ntest_x 1\ntest_x 2\n",
		"# HELP test_x x\n# TYPE test_x counter\ntest_x{a=\"1\",b=\"2\"} 1\ntest_x{b=\"2\",a=\"1\"} 2\n",
		"# HELP test_x x\n# TYPE test_x histogram\ntest_x_bucket{le=\"+Inf\"} 1\ntest_x_bucket{le=\"+Inf\"} 1\ntest_x_sum 0\ntest_x_count 1\n",
		// Malformed exemplars: missing label block, unparseable value.
		"# HELP test_x x\n# TYPE test_x counter\ntest_x 1 # nolabels 2\n",
		"# HELP test_x x\n# TYPE test_x counter\ntest_x 1 # {trace_id=\"abc\"} nope\n",
	}
	for _, text := range bad {
		if _, err := ParseExposition(strings.NewReader(text)); err == nil {
			t.Fatalf("accepted malformed input:\n%s", text)
		}
	}
}

func TestTraceSpansAndIDs(t *testing.T) {
	if id := NewTraceID(); !ValidTraceID(id) {
		t.Fatalf("NewTraceID produced invalid id %q", id)
	}
	if ValidTraceID("short") || ValidTraceID(strings.Repeat("Z", 32)) {
		t.Fatal("ValidTraceID accepted junk")
	}
	inherited := NewTraceID()
	tr := NewTrace(inherited, "n0", 5)
	if tr.ID != inherited {
		t.Fatalf("valid inherited ID replaced: %s", tr.ID)
	}
	tr2 := NewTrace("../../etc/passwd", "n0", 1)
	if tr2.ID == "../../etc/passwd" || !ValidTraceID(tr2.ID) {
		t.Fatalf("malformed header ID not re-minted: %q", tr2.ID)
	}
	base := time.Unix(1700000000, 0)
	for i, st := range []string{StageQueued, StageCompiled, StageSwept, StagePersisted, StageResponded} {
		tr.Add(st, base.Add(time.Duration(i)*time.Second))
	}
	spans := tr.Spans()
	if len(spans) != 5 || spans[0].Stage != StageQueued || spans[4].Stage != StageResponded {
		t.Fatalf("spans = %+v", spans)
	}
	if !spans[3].At.Equal(base.Add(3 * time.Second)) {
		t.Fatalf("span timestamp lost: %v", spans[3].At)
	}
}

// TestTraceAllocatesItsSpansOnce: a job keeps its trace for as long as it is
// listed, so a lifecycle costs the Trace and one backing array of exactly its
// stages — not the 1 → 2 → 4 → 8 regrowth of an empty slice, which left four
// allocations and room for eight spans behind five.
func TestTraceAllocatesItsSpansOnce(t *testing.T) {
	id, now := NewTraceID(), time.Unix(1700000000, 0)
	stages := []string{StageQueued, StageCompiled, StageSwept, StagePersisted, StageResponded}
	var tr *Trace
	allocs := testing.AllocsPerRun(100, func() {
		tr = NewTrace(id, "n0", len(stages))
		for _, st := range stages {
			tr.Add(st, now)
		}
	})
	if allocs != 2 || len(tr.spans) != len(stages) || cap(tr.spans) != len(stages) {
		t.Fatalf("a %d-stage trace: %v allocations (want 2), %d spans in room for %d", len(stages), allocs, len(tr.spans), cap(tr.spans))
	}
}
