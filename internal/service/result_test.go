package service

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"odeproto/internal/store"
)

// newFileBackedServer boots a test server over an explicit file store, so
// the disk-fallback paths exist regardless of ODEPROTO_TEST_DATA.
func newFileBackedServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	fst, err := store.Open(filepath.Join(t.TempDir(), "data"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fst.Close() }) // runs after the server cleanup below
	cfg.Store = fst
	srv, ts := newTestServer(t, cfg)
	return srv, ts.URL
}

// rawGet issues a GET with explicit headers. Setting Accept-Encoding by
// hand also disables the transport's transparent gunzip, so tests see the
// wire bytes; absent an explicit choice the request pins identity — the
// default transport would otherwise negotiate gzip on its own and hide
// the Content-Length/Content-Encoding headers under test.
func rawGet(t *testing.T, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
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
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// dropFromCache evicts one key from the LRU, forcing the next result GET
// onto the disk-fallback path.
func dropFromCache(srv *Server, key string) {
	srv.cache.mu.Lock()
	defer srv.cache.mu.Unlock()
	if el, ok := srv.cache.entries[key]; ok {
		srv.cache.bytes -= int64(len(srv.cache.order.Remove(el).(*resultBlob).stored))
		delete(srv.cache.entries, key)
	}
}

// canonicalOf returns a copy of blob's canonical bytes.
func canonicalOf(t *testing.T, blob *resultBlob) []byte {
	t.Helper()
	var out []byte
	if err := blob.canonical(func(data []byte) error {
		out = bytes.Clone(data)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// largeSpec is smallSpec run long enough that its result outgrows one 4 KiB
// block, so the file store holds it as a gzip member.
func largeSpec() JobSpec {
	spec := smallSpec()
	spec.Engine, spec.Periods = EngineAggregate, 600
	return spec
}

// runJob submits spec and returns its terminal status.
func runJob(t *testing.T, base string, spec JobSpec) JobStatus {
	t.Helper()
	resp, data := doJSON(t, http.MethodPost, base+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	return waitStatus(t, base, decodeStatus(t, data).ID, StatusDone, 30*time.Second)
}

// runSmallJob submits smallSpec and returns its terminal status.
func runSmallJob(t *testing.T, base string) JobStatus {
	t.Helper()
	return runJob(t, base, smallSpec())
}

// TestResultBytesIdenticalAcrossPaths pins the encode-once contract: the
// LRU-hit result GET, the disk-fallback result GET, and the result spliced
// into the job-status envelope all serve the same canonical bytes — the
// single json.Marshal performed at completion.
func TestResultBytesIdenticalAcrossPaths(t *testing.T) {
	srv, base := newFileBackedServer(t, Config{Workers: 1})
	done := runSmallJob(t, base)
	key := done.CacheKey

	// LRU-hit path.
	resp, canonical := rawGet(t, base+"/v1/results/"+key, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result GET: %d %s", resp.StatusCode, canonical)
	}
	wantETag := `"` + key + `"`
	if got := resp.Header.Get("ETag"); got != wantETag {
		t.Fatalf("ETag = %q, want %q", got, wantETag)
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(canonical)) {
		t.Fatalf("Content-Length = %q for %d body bytes", got, len(canonical))
	}
	// The canonical bytes round-trip: JobResult holds only ints and
	// strings, so re-encoding the decoded struct reproduces them exactly.
	reenc, err := json.Marshal(done.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonical, reenc) {
		t.Fatal("result endpoint bytes differ from the re-encoded status result")
	}

	// Status-splice path: the result object inside GET /v1/jobs/{id} is the
	// same raw buffer, byte for byte.
	resp, stBody := rawGet(t, base+"/v1/jobs/"+done.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job GET: %d %s", resp.StatusCode, stBody)
	}
	var envelope struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(stBody, &envelope); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(envelope.Result), canonical) {
		t.Fatal("status envelope result differs from the canonical result bytes")
	}

	// Disk-fallback path: evict and re-fetch; the store streams the same
	// bytes under the same ETag and exact length.
	dropFromCache(srv, key)
	resp, fromDisk := rawGet(t, base+"/v1/results/"+key, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("disk result GET: %d %s", resp.StatusCode, fromDisk)
	}
	if got := resp.Header.Get("ETag"); got != wantETag {
		t.Fatalf("disk ETag = %q, want %q", got, wantETag)
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(fromDisk)) {
		t.Fatalf("disk Content-Length = %q for %d body bytes", got, len(fromDisk))
	}
	if !bytes.Equal(fromDisk, canonical) {
		t.Fatal("disk-fallback bytes differ from the LRU-hit bytes")
	}
}

// TestResultConditionalGet covers the If-None-Match → 304 round-trip on
// both the LRU and disk paths, including weak-comparison forms.
func TestResultConditionalGet(t *testing.T) {
	srv, base := newFileBackedServer(t, Config{Workers: 1})
	done := runSmallJob(t, base)
	key := done.CacheKey
	etag := `"` + key + `"`

	for _, inm := range []string{etag, "W/" + etag, `"other", ` + etag, "*"} {
		resp, body := rawGet(t, base+"/v1/results/"+key, map[string]string{"If-None-Match": inm})
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("If-None-Match %q: status %d, want 304", inm, resp.StatusCode)
		}
		if len(body) != 0 {
			t.Fatalf("304 carried a %d-byte body", len(body))
		}
		if got := resp.Header.Get("ETag"); got != etag {
			t.Fatalf("304 ETag = %q, want %q", got, etag)
		}
	}
	// A stale validator still gets the full representation.
	resp, body := rawGet(t, base+"/v1/results/"+key, map[string]string{"If-None-Match": `"stale"`})
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("stale If-None-Match: %d with %d bytes, want 200 with body", resp.StatusCode, len(body))
	}

	// Same round-trip once the blob is out of the LRU: the disk path must
	// answer 304 from the open alone, without reading result bytes.
	dropFromCache(srv, key)
	resp, body = rawGet(t, base+"/v1/results/"+key, map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("disk 304: %d with %d bytes", resp.StatusCode, len(body))
	}
}

// TestColdRevalidationReadsNothing: a conditional GET of a key the LRU does
// not hold answers 304 from the store's open alone — no blob, no stored
// gzip member and no byte of the reader is read, whatever encoding the client
// accepts — and a key the store does not hold is still a 404 (the cluster
// router's failover keys on it).
func TestColdRevalidationReadsNothing(t *testing.T) {
	fst := openFileStore(t, t.TempDir())
	t.Cleanup(func() { fst.Close() }) // after the server cleanup below
	rec := &recordingStore{Store: fst}
	srv, ts := newTestServer(t, Config{Workers: 1, Store: rec})
	// Stored compressed, so a gzip revalidation has something it could read
	// and an identity one something it could inflate.
	key := runJob(t, ts.URL, largeSpec()).CacheKey
	etag := `"` + key + `"`
	dropFromCache(srv, key)

	for _, enc := range []string{"identity", "gzip"} {
		rec.mu.Lock()
		rec.reads = 0
		rec.mu.Unlock()
		resp, body := rawGet(t, ts.URL+"/v1/results/"+key, map[string]string{"If-None-Match": etag, "Accept-Encoding": enc})
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 || resp.Header.Get("ETag") != etag {
			t.Fatalf("cold revalidation (%s): %d with %d bytes, ETag %q", enc, resp.StatusCode, len(body), resp.Header.Get("ETag"))
		}
		rec.mu.Lock()
		reads := rec.reads
		rec.mu.Unlock()
		if reads != 0 {
			t.Errorf("cold revalidation (%s) read result bytes %d times before answering 304", enc, reads)
		}
	}
	// The router's probe is the same open: true, and nothing read or inflated.
	rec.mu.Lock()
	rec.reads = 0
	rec.mu.Unlock()
	if has := srv.HasResult(key); !has || rec.reads != 0 {
		t.Errorf("HasResult = %v after %d reads of result bytes, want true after none", has, rec.reads)
	}
	for _, enc := range []string{"identity", "gzip"} {
		resp, _ := rawGet(t, ts.URL+"/v1/results/"+strings.Repeat("ab", 32), map[string]string{"If-None-Match": "*", "Accept-Encoding": enc})
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("missing key (%s): %d, want 404", enc, resp.StatusCode)
		}
	}
}

// resultFiles lists every file under dir's results tree, by path from dir.
func resultFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(filepath.Join(dir, "results"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		files[strings.TrimPrefix(path, dir)] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestResultGzipVariant pins where gzip bodies come from: the service writes
// no sibling and compresses nothing per request. A result above one block is
// stored as a gzip member, the LRU holds that member, and both paths answer a
// gzip request with it, byte for byte, with an exact Content-Length; a result
// that fits one block is stored and held as is, and a gzip request gets
// identity from the LRU and past it alike.
func TestResultGzipVariant(t *testing.T) {
	dir := t.TempDir()
	fst := openFileStore(t, dir)
	t.Cleanup(func() { fst.Close() }) // after the server cleanup below
	srv, ts := newTestServer(t, Config{Workers: 1, Store: fst})
	base := ts.URL

	for _, row := range []struct {
		name       string
		spec       JobSpec
		compressed bool
	}{
		{"above one block", largeSpec(), true},
		{"within one block", smallSpec(), false},
	} {
		key := runJob(t, base, row.spec).CacheKey
		_, canonical := rawGet(t, base+"/v1/results/"+key, nil)
		if (len(canonical) > 4096) != row.compressed {
			t.Fatalf("%s: the result is %d B", row.name, len(canonical))
		}
		stored := resultFiles(t, dir)[filepath.Join("/results", key[:2], key)]
		if row.compressed == bytes.Equal(stored, canonical) {
			t.Fatalf("%s: %d B result stored in %d B", row.name, len(canonical), len(stored))
		}

		// check GETs with Accept-Encoding: gzip and returns the wire bytes
		// of a gzip answer, nil for an identity one.
		check := func(label string) []byte {
			t.Helper()
			resp, body := rawGet(t, base+"/v1/results/"+key, map[string]string{"Accept-Encoding": "gzip"})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s, %s: status %d", row.name, label, resp.StatusCode)
			}
			if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
				t.Fatalf("%s, %s: Content-Length = %q for %d wire bytes", row.name, label, got, len(body))
			}
			if resp.Header.Get("Content-Encoding") != "gzip" {
				if !bytes.Equal(body, canonical) {
					t.Fatalf("%s, %s: identity answer differs from the canonical bytes", row.name, label)
				}
				return nil
			}
			zr, err := gzip.NewReader(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%s, %s: %v", row.name, label, err)
			}
			plain, err := io.ReadAll(zr)
			if err != nil {
				t.Fatalf("%s, %s: %v", row.name, label, err)
			}
			if !bytes.Equal(plain, canonical) {
				t.Fatalf("%s, %s: gzip body does not decompress to the canonical bytes", row.name, label)
			}
			return body
		}
		// The resident blob is the file's bytes, exactly sized, and serving
		// gzip grows nothing on the LRU's books.
		blob, _ := srv.cache.peek(key)
		if !bytes.Equal(blob.stored, stored) || cap(blob.stored) > len(blob.stored)+len(blob.stored)/8+64 {
			t.Fatalf("%s: the LRU holds %d B (cap %d), the file %d B", row.name, len(blob.stored), cap(blob.stored), len(stored))
		}
		_, before := srv.cache.usage()
		for _, path := range []string{"cache hit", "past the LRU"} {
			if path == "past the LRU" {
				dropFromCache(srv, key)
			}
			if got := check(path); row.compressed != bytes.Equal(got, stored) || !row.compressed && got != nil {
				t.Fatalf("%s, %s: a gzip request got %d gzip bytes, the file holds %d", row.name, path, len(got), len(stored))
			}
			if _, after := srv.cache.usage(); path == "cache hit" && after != before {
				t.Fatalf("%s: a gzip GET moved the LRU from %d B to %d B", row.name, before, after)
			}
		}
		if resp, body := rawGet(t, base+"/v1/results/"+key, nil); resp.Header.Get("Content-Length") != strconv.Itoa(len(canonical)) || !bytes.Equal(body, canonical) {
			t.Fatalf("%s: identity past the LRU: Content-Length %q, %d B, want the %d canonical bytes", row.name, resp.Header.Get("Content-Length"), len(body), len(canonical))
		}

		// An explicit q=0 refuses gzip: identity bytes come back.
		resp, body := rawGet(t, base+"/v1/results/"+key, map[string]string{"Accept-Encoding": "gzip;q=0"})
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Encoding") != "" {
			t.Fatalf("%s, q=0: status %d, Content-Encoding %q", row.name, resp.StatusCode, resp.Header.Get("Content-Encoding"))
		}
		if !bytes.Equal(body, canonical) {
			t.Fatalf("%s: q=0 response differs from the canonical bytes", row.name)
		}
	}
	// One file per result: no request wrote anything.
	if files := resultFiles(t, dir); len(files) != 2 {
		t.Fatalf("the results tree holds %d files, want the two blobs", len(files))
	}
	if errs := srv.met.storeErrs.Value(); errs != 0 {
		t.Fatalf("%d store errors", errs)
	}
}

// TestResultEncodeOnceCounter is the zero-marshal regression test: every
// cache-hit result GET (304s included) and every status splice must tick
// result_encodes_saved — the designated witness that no per-request
// json.Marshal ran on the hot path. If someone reintroduces a marshal,
// this counter is the contract they have to delete to get the test green.
func TestResultEncodeOnceCounter(t *testing.T) {
	srv, base := newFileBackedServer(t, Config{Workers: 1})
	done := runSmallJob(t, base)
	key := done.CacheKey

	before := srv.met.encodesSaved.Value()
	const hot = 5
	for i := 0; i < hot; i++ {
		resp, _ := rawGet(t, base+"/v1/results/"+key, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("hot GET %d: status %d", i, resp.StatusCode)
		}
	}
	resp, _ := rawGet(t, base+"/v1/results/"+key, map[string]string{"If-None-Match": `"` + key + `"`})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET: status %d", resp.StatusCode)
	}
	resp, _ = rawGet(t, base+"/v1/jobs/"+done.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status GET: %d", resp.StatusCode)
	}
	after := srv.met.encodesSaved.Value()
	if got, want := after-before, int64(hot+2); got != want {
		t.Fatalf("result_encodes_saved advanced by %d, want %d (5 hot GETs + 1 conditional + 1 splice)", got, want)
	}
	if served := srv.met.bytesServed.Value(); served <= 0 {
		t.Fatalf("result_bytes_served = %d, want > 0", served)
	}
}

// TestFigureTraceConditionalHeaders: the SVG endpoints of a finished job
// carry a strong validator and an exact Content-Length, and honor
// If-None-Match.
func TestFigureTraceConditionalHeaders(t *testing.T) {
	_, base := newFileBackedServer(t, Config{Workers: 1})
	done := runSmallJob(t, base)

	for _, path := range []string{
		"/v1/jobs/" + done.ID + "/figure.svg",
		"/v1/jobs/" + done.ID + "/trace.svg",
	} {
		resp, body := rawGet(t, base+path, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
			t.Fatalf("%s: Content-Length = %q for %d body bytes", path, got, len(body))
		}
		etag := resp.Header.Get("ETag")
		if etag == "" {
			t.Fatalf("%s: no ETag on a finished job", path)
		}
		resp, body = rawGet(t, base+path, map[string]string{"If-None-Match": etag})
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Fatalf("%s conditional: %d with %d bytes", path, resp.StatusCode, len(body))
		}
	}
}

// rowsJob is an aggregate-engine job recording the given number of rows.
func rowsJob(rows int, seed int64) JobSpec {
	return JobSpec{Source: "x' = -4*x*y + 0.01*z\ny' = 4*x*y - y\nz' = y - 0.01*z", Engine: EngineAggregate,
		N: 1_000_000, Initial: map[string]int{"x": 900_000, "y": 100_000}, Periods: rows, Seed: seed}
}

// oracleStatusJSON is the status body as it was produced before the splice
// by copy: the envelope marshaled by encoding/json with the result as a
// shadowing json.RawMessage field.
func oracleStatusJSON(t *testing.T, st JobStatus) []byte {
	t.Helper()
	type alias JobStatus
	var raw json.RawMessage
	if st.result != nil {
		raw = canonicalOf(t, st.result)
	}
	data, err := marshalNoEscape(struct {
		alias
		Result json.RawMessage `json:"result,omitempty"`
	}{alias: alias(st), Result: raw})
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestStatusSpliceBytesAndNoDecode: GET /v1/jobs/{id} of a finished job
// answers with exactly the bytes the encoder-driven splice produced — same
// keys, same order, result verbatim — and gets there without decoding,
// re-validating or re-encoding the result: the whole request allocates a
// few dozen objects where one unmarshal of these 2 000 rows takes
// thousands.
func TestStatusSpliceBytesAndNoDecode(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	job, err := srv.Submit(rowsJob(2000, 5))
	if err != nil {
		t.Fatal(err)
	}
	<-job.wait()
	h := srv.Handler()
	get := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+job.ID, nil))
		return rec
	}

	st := job.snapshot(true)
	if st.result == nil || len(canonicalOf(t, st.result)) < 50_000 || st.Result != nil {
		t.Fatalf("HTTP-path snapshot carries blob %v and decoded result %v", st.result != nil, st.Result)
	}
	if got, want := get().Body.Bytes(), oracleStatusJSON(t, st); !bytes.Equal(got, want) {
		t.Fatalf("status body changed:\n got %.300s…\nwant %.300s…", got, want)
	}
	if allocs := testing.AllocsPerRun(20, func() { get() }); allocs > 100 {
		t.Fatalf("GET /v1/jobs/{id} allocates %.0f objects per request: something decodes the result", allocs)
	}
	// In-process callers still get the struct, decoded on request.
	if res := job.Snapshot(true).Result; res == nil || len(res.Runs[0].Rows) != 2000 {
		t.Fatalf("Snapshot(true).Result = %v", res)
	}
}

// TestDoneJobPastTheLRU pins the memory backend's contract: a result lives
// exactly as long as the LRU holds it. A done job whose bytes are gone
// answers its status without a result, replays only the terminal stream
// row and 409s its figure; resubmitting the spec recomputes identical
// bytes under the same key.
func TestDoneJobPastTheLRU(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, CacheSize: 1, Store: store.NewMemory()})
	first := runSmallJob(t, ts.URL)
	_, original := rawGet(t, ts.URL+"/v1/results/"+first.CacheKey, nil)
	other := smallSpec()
	other.Seed = 99
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", other)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	waitStatus(t, ts.URL, decodeStatus(t, data).ID, StatusDone, 30*time.Second) // evicts the first result

	resp, data = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+first.ID, nil)
	if st := decodeStatus(t, data); resp.StatusCode != http.StatusOK || st.Status != StatusDone || st.Result != nil || st.Rows != first.Rows {
		t.Fatalf("status past the LRU: %d %s", resp.StatusCode, data)
	}
	if lines := readStream(t, ts.URL, first.ID); len(lines) != 1 || !bytes.Contains(lines[0], []byte(`"event":"done"`)) {
		t.Fatalf("stream past the LRU: %d lines, want the terminal row alone: %s", len(lines), bytes.Join(lines, nil))
	}
	if resp, body := rawGet(t, ts.URL+"/v1/jobs/"+first.ID+"/figure.svg", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("figure past the LRU: %d %s", resp.StatusCode, body)
	}
	if resp, _ := rawGet(t, ts.URL+"/v1/results/"+first.CacheKey, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("result by key past the LRU: %d", resp.StatusCode)
	}

	sweeps := srv.SweepsExecuted()
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %d %s", resp.StatusCode, data)
	}
	again := waitStatus(t, ts.URL, decodeStatus(t, data).ID, StatusDone, 30*time.Second)
	_, recomputed := rawGet(t, ts.URL+"/v1/results/"+again.CacheKey, nil)
	if again.CacheKey != first.CacheKey || !bytes.Equal(recomputed, original) || srv.SweepsExecuted() != sweeps+1 {
		t.Fatalf("resubmission: key %s (want %s), %d bytes (want %d), %d sweeps (want %d)",
			again.CacheKey, first.CacheKey, len(recomputed), len(original), srv.SweepsExecuted(), sweeps+1)
	}
	// The old job answers with the recomputed bytes too: it resolves its key.
	_, data = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+first.ID, nil)
	if st := decodeStatus(t, data); st.Result == nil {
		t.Fatalf("the first job's status once its key is resident again: %s", data)
	}
}

// TestFinishedJobKeepsOnlyItsBytes pins the finished-job memory bound: a
// done job holds its key, the spec scalars its status shows and its stamps
// — ≈ 850 B measured, held under 1.5 KiB — and none of its result, whatever
// the result's size: the bytes belong to the LRU (here one entry deep, so
// the heap holds one result before and after) and, past it, to nobody.
// Every job here shares one compiled protocol; TestTerminalJobIsARow is the
// one whose jobs each compile their own.
func TestFinishedJobKeepsOnlyItsBytes(t *testing.T) {
	for _, rows := range []int{500, 5000} {
		srv := New(Config{Workers: 1, CacheSize: 1})
		run := func(seed int64) int {
			job, err := srv.Submit(rowsJob(rows, seed))
			if err != nil {
				t.Fatal(err)
			}
			<-job.wait()
			st := job.snapshot(true)
			if st.Status != StatusDone || st.result == nil {
				t.Fatalf("job %s: %s %s, no result", st.ID, st.Status, st.Error)
			}
			return len(canonicalOf(t, st.result))
		}
		run(1000) // compile memo, metric series, pools and the LRU's one entry exist before the baseline
		before := heapAfterGC()
		const jobs = 40
		canonical := 0
		for seed := int64(1); seed <= jobs; seed++ {
			canonical += run(seed)
		}
		after := heapAfterGC()
		perJob := (float64(after) - float64(before)) / jobs
		t.Logf("%d rows: retained %.0f B per finished job, canonical bytes %d B", rows, perJob, canonical/jobs)
		if perJob > 1536 {
			t.Fatalf("a finished %d-row job retains %.0f B; its %d canonical bytes are the LRU's to keep, not the job's",
				rows, perJob, canonical/jobs)
		}
		if st := srv.snapshotOf(t, "j000001"); st.Status != StatusDone || st.result != nil {
			t.Fatalf("with the memory backend a done job past the LRU answers without a result: got %s with a blob %v",
				st.Status, st.result != nil)
		}
		srv.Close()
	}
}

// snapshotOf is the HTTP-path snapshot of the job with this ID.
func (s *Server) snapshotOf(t *testing.T, id string) JobStatus {
	t.Helper()
	job, err := s.job(id)
	if err != nil {
		t.Fatal(err)
	}
	return job.snapshot(true)
}

// heapAfterGC is the live heap once a collection has settled.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC() // the first cycle's sweep and pool clearing settle in the second
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
