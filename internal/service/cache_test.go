package service

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"odeproto/internal/obs"
)

func TestResultCacheLRU(t *testing.T) {
	hits, misses := &obs.Counter{}, &obs.Counter{}
	c := newResultCache(2, hits, misses, &obs.Counter{})
	r1 := &resultBlob{key: "a"}
	r2 := &resultBlob{key: "b"}
	r3 := &resultBlob{key: "c"}
	c.put(r1)
	c.put(r2)
	if got, ok := c.get("a"); !ok || got != r1 {
		t.Fatal("a missing after insert")
	}
	// "b" is now least recently used; inserting "c" must evict it.
	c.put(r3)
	if _, ok := c.get("b"); ok {
		t.Fatal("b not evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted despite being recently used")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c missing")
	}
	if n, _ := c.usage(); n != 2 || c.max != 2 {
		t.Fatalf("size/max = %d/%d", n, c.max)
	}
	if hits.Value() != 3 || misses.Value() != 1 {
		t.Fatalf("hits/misses = %d/%d", hits.Value(), misses.Value())
	}
}

// checkAccounting verifies the LRU's books: its byte total is the sum of
// its entries' stored lengths, and both bounds hold unless a single entry is
// all that is left.
func checkAccounting(t *testing.T, c *resultCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for el := c.order.Front(); el != nil; el = el.Next() {
		blob := el.Value.(*resultBlob)
		if c.entries[blob.key] != el {
			t.Errorf("entry %s is listed but not indexed", blob.key)
		}
		sum += int64(len(blob.stored))
	}
	if sum != c.bytes || len(c.entries) != c.order.Len() {
		t.Errorf("cache accounts %d B over %d indexed entries; its %d listed entries hold %d B",
			c.bytes, len(c.entries), c.order.Len(), sum)
	}
	if c.order.Len() > 1 && (c.order.Len() > c.max || c.bytes > c.maxBytes) {
		t.Errorf("cache holds %d entries, %d B: bounds are %d entries, %d B", c.order.Len(), c.bytes, c.max, c.maxBytes)
	}
}

// sizedBlob is a blob of n stored bytes filled with the key's first byte.
func sizedBlob(key string, n int) *resultBlob {
	return &resultBlob{key: key, stored: bytes.Repeat([]byte{key[0]}, n)}
}

// TestResultCacheByteBudget: the LRU accounts len(stored) per entry against
// CacheSize × 256 KiB and evicts least recently used first past it, the
// entry bound notwithstanding.
func TestResultCacheByteBudget(t *testing.T) {
	evictions := &obs.Counter{}
	c := newResultCache(4, &obs.Counter{}, &obs.Counter{}, evictions)
	if c.maxBytes != 4*256<<10 {
		t.Fatalf("budget for 4 entries is %d B, want 1 MiB", c.maxBytes)
	}
	const third = 300 << 10
	for _, key := range []string{"a", "b", "c"} {
		c.put(sizedBlob(key, third))
	}
	if n, b := c.usage(); n != 3 || b != 3*third || c.maxBytes != 1<<20 {
		t.Fatalf("after three 300 KiB results: %d entries, %d of %d B", n, b, c.maxBytes)
	}
	c.peek("a") // b is now the oldest
	c.put(sizedBlob("d", third))
	if c.contains("b") || !c.contains("a") || evictions.Value() != 1 {
		t.Fatalf("the fourth result must evict b alone: b=%v a=%v evictions=%d", c.contains("b"), c.contains("a"), evictions.Value())
	}
	checkAccounting(t, c)

	// Replacing a key re-accounts it instead of adding to it.
	c.put(sizedBlob("a", 10))
	if n, b := c.usage(); n != 3 || b != 2*third+10 {
		t.Fatalf("after replacing a with 10 B: %d entries, %d B", n, b)
	}
	checkAccounting(t, c)

	// A replacement that grows its key can push older entries out.
	c.put(sizedBlob("d", 400<<10))
	if n, b := c.usage(); b != third+10+400<<10 || n != 3 {
		t.Fatalf("after replacing d with 400 KiB: %d entries, %d B", n, b)
	}
	c.put(sizedBlob("a", 400<<10)) // 300 + 400 + 400 KiB > 1 MiB: c, the oldest, goes
	if c.contains("c") || !c.contains("d") || !c.contains("a") {
		t.Fatalf("a's growth must evict c alone")
	}
	checkAccounting(t, c)
}

// TestResultCacheOversizeNewest: a result larger than the whole budget is
// admitted as the only entry — readable until the next one arrives — and
// then leaves like any other.
func TestResultCacheOversizeNewest(t *testing.T) {
	c := newResultCache(2, &obs.Counter{}, &obs.Counter{}, &obs.Counter{})
	c.put(sizedBlob("a", 100))
	c.put(sizedBlob("big", 1<<20)) // budget: 512 KiB
	if n, b := c.usage(); n != 1 || b != 1<<20 || !c.contains("big") {
		t.Fatalf("oversize newest entry: %d entries, %d B", n, b)
	}
	c.put(sizedBlob("c", 100))
	if n, b := c.usage(); n != 1 || b != 100 || c.contains("big") {
		t.Fatalf("after the next result: %d entries, %d B", n, b)
	}
	checkAccounting(t, c)
}

// TestResultCachePutOldest: warming places results behind the ones already
// there and refuses the first that does not fit, leaving the cache as it
// was.
func TestResultCachePutOldest(t *testing.T) {
	c := newResultCache(3, &obs.Counter{}, &obs.Counter{}, &obs.Counter{})
	if !c.putOldest(sizedBlob("new", 300<<10)) || !c.putOldest(sizedBlob("old", 300<<10)) {
		t.Fatal("two 300 KiB results fit a 768 KiB budget")
	}
	if c.putOldest(sizedBlob("older", 300<<10)) {
		t.Fatal("a third does not")
	}
	if !c.putOldest(sizedBlob("new", 1)) {
		t.Fatal("a key already warm counts as warm")
	}
	c.put(sizedBlob("x", 300<<10)) // over budget: the least recently used goes
	if c.contains("old") || !c.contains("new") {
		t.Fatal("putOldest must leave the later arrival least recently used")
	}
	checkAccounting(t, c)
}

// TestResultCacheEvictionUnderReaders: readers copy blobs out while writers
// evict them. A reader that got a blob keeps
// reading the same bytes after the eviction; the books balance at the end.
// Run under -race.
func TestResultCacheEvictionUnderReaders(t *testing.T) {
	c := newResultCache(4, &obs.Counter{}, &obs.Counter{}, &obs.Counter{})
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) { // writer: keeps replacing and evicting
			defer wg.Done()
			for i := 0; i < 400; i++ {
				c.put(sizedBlob(keys[(i+w)%len(keys)], 200<<10))
			}
		}(w)
		go func(w int) { // reader: streams whatever is resident, slowly enough to be evicted under
			defer wg.Done()
			for i := 0; i < 400; i++ {
				key := keys[(i*3+w)%len(keys)]
				blob, ok := c.peek(key)
				if !ok {
					continue
				}
				n, err := io.Copy(io.Discard, bytes.NewReader(blob.stored))
				if err != nil || n != 200<<10 || blob.stored[0] != key[0] || blob.stored[n-1] != key[0] {
					t.Errorf("reader of %s saw %d bytes starting %q (err %v)", key, n, blob.stored[0], err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	checkAccounting(t, c)
}

func normalizeOrFatal(t *testing.T, spec JobSpec) (JobSpec, string) {
	t.Helper()
	comp, err := spec.normalize(defaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	return spec, spec.cacheKey(comp)
}

func TestCacheKeyCanonicalization(t *testing.T) {
	base := JobSpec{
		Source: "x' = -x*y\ny' = x*y\n",
		N:      100, Periods: 10, Engine: "agent", Shards: 4, Seed: 3,
		Initial: map[string]int{"x": 99, "y": 1},
	}
	_, keyBase := normalizeOrFatal(t, base)

	// Formatting and comments in the DSL must not split the cache.
	reformatted := base
	reformatted.Source = "# epidemic\n x'   =  -1*x*y\n\ny' = x*y"
	reformatted.Initial = map[string]int{"x": 99, "y": 1}
	if _, key := normalizeOrFatal(t, reformatted); key != keyBase {
		t.Fatal("reformatted source changed the cache key")
	}

	// "sharded" with the same K is the same content as "agent" + shards.
	sharded := base
	sharded.Engine = "sharded"
	sharded.Initial = map[string]int{"x": 99, "y": 1}
	if _, key := normalizeOrFatal(t, sharded); key != keyBase {
		t.Fatal(`engine "sharded" split the cache from agent-with-K`)
	}

	// Zero initial entries are dropped from the canonical form: starting
	// everyone in x is the same content with or without an explicit y: 0.
	allX := base
	allX.Initial = map[string]int{"x": 100}
	_, keyAllX := normalizeOrFatal(t, allX)
	withZero := base
	withZero.Initial = map[string]int{"x": 100, "y": 0}
	if _, key := normalizeOrFatal(t, withZero); key != keyAllX {
		t.Fatal("explicit zero initial entry changed the cache key")
	}

	// A different shard count is a different RNG stream → different key.
	otherK := base
	otherK.Shards = 8
	otherK.Initial = map[string]int{"x": 99, "y": 1}
	if _, key := normalizeOrFatal(t, otherK); key == keyBase {
		t.Fatal("shard count is not part of the cache key")
	}

	// A different seed is different content.
	otherSeed := base
	otherSeed.Seed = 4
	otherSeed.Initial = map[string]int{"x": 99, "y": 1}
	if _, key := normalizeOrFatal(t, otherSeed); key == keyBase {
		t.Fatal("seed is not part of the cache key")
	}
}

// TestCompileMemoization pins the compile-cache contract: equivalent
// compile requests share one *compiled (compilation is pure, so the
// pointer itself is the cache), requests that differ in any
// artifact-affecting field do not, and FlowPoint — which only shapes the
// compile *response* — is not part of the identity.
func TestCompileMemoization(t *testing.T) {
	req := CompileRequest{Source: "x' = -x*y\ny' = x*y\n"}
	a, err := compilePipeline(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := compilePipeline(req)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical requests compiled twice")
	}
	flow := req
	flow.FlowPoint = map[string]float64{"x": 0.5, "y": 0.5}
	c, err := compilePipeline(flow)
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatal("FlowPoint split the compile cache")
	}
	other := req
	other.FailureRate = 0.1
	d, err := compilePipeline(other)
	if err != nil {
		t.Fatal(err)
	}
	if d == a {
		t.Fatal("different failure rate shared a compile result")
	}
}

func TestSpecValidationErrors(t *testing.T) {
	ok := JobSpec{Source: "x' = -x*y\ny' = x*y\n", N: 100, Periods: 10}
	cases := []struct {
		name   string
		mutate func(*JobSpec)
		want   string
	}{
		{"bad engine", func(s *JobSpec) { s.Engine = "quantum" }, "unknown engine"},
		{"sharded without K", func(s *JobSpec) { s.Engine = "sharded" }, "needs shards"},
		{"aggregate with shards", func(s *JobSpec) { s.Engine = "aggregate"; s.Shards = 4 }, "does not shard"},
		{"zero n", func(s *JobSpec) { s.N = 0 }, "n must be"},
		{"zero periods", func(s *JobSpec) { s.Periods = 0 }, "periods must be"},
		{"n above limit", func(s *JobSpec) { s.N = defaultLimits.MaxN + 1 }, "exceeds the service limit"},
		{"shards above n", func(s *JobSpec) { s.Shards = 200 }, "exceeds the group size"},
		{"bad source", func(s *JobSpec) { s.Source = "x = 1" }, "must be of the form"},
		{"unknown param", func(s *JobSpec) { s.Source = "x' = -k*x\n" }, "unknown identifier"},
		{"initial not a state", func(s *JobSpec) { s.Initial = map[string]int{"x": 50, "q": 50} }, "not a protocol state"},
		{"initial sum mismatch", func(s *JobSpec) { s.Initial = map[string]int{"x": 10, "y": 10} }, "sum to"},
		{"negative initial", func(s *JobSpec) { s.Initial = map[string]int{"x": -1, "y": 101} }, "negative"},
		{"event past horizon", func(s *JobSpec) { s.Events = []EventSpec{{At: 10, Kind: "kill"}} }, "outside [0, 10)"},
		{"event proc out of range", func(s *JobSpec) { s.Events = []EventSpec{{At: 1, Kind: "kill", Proc: 100}} }, "outside the group"},
		{"event proc negative", func(s *JobSpec) { s.Events = []EventSpec{{At: 1, Kind: "freeze", Proc: -1}} }, "outside the group"},
		{"row budget", func(s *JobSpec) { s.Periods = 10000; s.Seeds = 1000 }, "would record"},
		{"event bad kind", func(s *JobSpec) { s.Events = []EventSpec{{At: 1, Kind: "nuke"}} }, "unknown event kind"},
		{"event bad frac", func(s *JobSpec) { s.Events = []EventSpec{{At: 1, Kind: "kill-fraction", Frac: 1.5}} }, "outside [0,1]"},
		{"revive without state", func(s *JobSpec) { s.Events = []EventSpec{{At: 1, Kind: "revive"}} }, "needs a state"},
		{"aggregate with kill", func(s *JobSpec) {
			s.Engine = "aggregate"
			s.Events = []EventSpec{{At: 1, Kind: "kill"}}
		}, "only supports kill-fraction"},
		{"asyncnet with events", func(s *JobSpec) {
			s.Engine = "asyncnet"
			s.Events = []EventSpec{{At: 1, Kind: "kill-fraction", Frac: 0.5}}
		}, "supports no perturbations"},
		{"asyncnet bad mode", func(s *JobSpec) { s.Engine = "asyncnet"; s.Mode = "hybrid" }, "unknown mode"},
		{"mode on agent engine", func(s *JobSpec) { s.Mode = ModeVirtual }, "only meaningful for engine"},
	}
	for _, tc := range cases {
		spec := ok
		spec.Initial = nil
		spec.Events = nil
		tc.mutate(&spec)
		_, err := spec.normalize(defaultLimits)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestAsyncnetCacheability: wallclock mode is not served — a 400 that names
// the CLI which still runs it — and the keys of the modes that are hold
// their values from when it was: the mode is hashed as before, so an
// existing -data directory and every ETag a client holds stay valid.
func TestAsyncnetCacheability(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		JobSpec{Source: epidemicSource, N: 50, Periods: 2, Engine: "asyncnet", Mode: "wallclock"})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "odeproto -engine asyncnet -async-mode wallclock") {
		t.Fatalf("wallclock submit: %d %s, want a 400 pointing at the CLI", resp.StatusCode, data)
	}

	// Golden keys, computed by the commit before wallclock mode left.
	for _, tc := range []struct {
		name string
		spec JobSpec
		key  string
	}{
		{"asyncnet default", JobSpec{Source: epidemicSource, N: 50, Periods: 2, Engine: "asyncnet"},
			"a5fde25758e471acd3ac95668088ff6aa07957d914723f3301d344862444911e"},
		{"asyncnet virtual", JobSpec{Source: epidemicSource, N: 50, Periods: 2, Engine: "asyncnet", Mode: ModeVirtual},
			"a5fde25758e471acd3ac95668088ff6aa07957d914723f3301d344862444911e"},
		{"agent", JobSpec{Source: epidemicSource, N: 50, Periods: 2},
			"adfecf7634d147a1c521e30e8d312b0246e28c2627bcfadb15e9489df432dffd"},
	} {
		spec, key := normalizeOrFatal(t, tc.spec)
		if key != tc.key {
			t.Errorf("%s: cache key %s, want %s", tc.name, key, tc.key)
		}
		if tc.spec.Engine == "asyncnet" && spec.Mode != ModeVirtual {
			t.Errorf("%s: mode normalized to %q, want %q", tc.name, spec.Mode, ModeVirtual)
		}
	}
}

// TestAsyncnetModeCacheKey: the empty mode and the explicit "virtual"
// mode are one canonical form (one cache identity), and the mode is part
// of the key.
func TestAsyncnetModeCacheKey(t *testing.T) {
	base := JobSpec{Source: "x' = -x*y\ny' = x*y\n", N: 50, Periods: 2, Engine: "asyncnet"}
	comp, err := base.normalize(defaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	keyDefault := base.cacheKey(comp)
	explicit := JobSpec{Source: "x' = -x*y\ny' = x*y\n", N: 50, Periods: 2, Engine: "asyncnet", Mode: ModeVirtual}
	if _, key := normalizeOrFatal(t, explicit); key != keyDefault {
		t.Fatal("explicit virtual mode split the cache from the default")
	}
	// normalize no longer lets another mode through, but the field is hashed
	// as it was: the key the parent gave mode "wallclock".
	base.Mode = "wallclock"
	if key := base.cacheKey(comp); key != "2a71309be2139284791b37ecec006271721e9d7833f5a56e59282bbd60aaa127" {
		t.Fatalf("mode is not hashed as before: key %s", key)
	}
}
