// Benchmarks for the encode-once result data plane: each pair puts the
// hot read path (serving the stored bytes made once at job completion — a
// gzip member for a result above 4 KiB, like this one) against an ...Encode
// baseline that performs the work the pre-encode-once service paid on every
// request — a fresh json.Marshal of the result (plus gzip compression or
// per-row rendering, for those variants). CI runs the pairs into
// BENCH_http.json, so the hot-path/baseline throughput ratio is
// machine-comparable across commits; it is tracked, not gated.
package odeproto_test

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"odeproto/internal/obs"
	"odeproto/internal/service"
	"odeproto/internal/store"
)

// benchResultSpec is a sweep whose result is large enough (1000 recorded
// rows, ~40 KiB of JSON) that encoding dominates serving — the regime the
// encode-once plane is built for.
func benchResultSpec() []byte {
	body, err := json.Marshal(map[string]any{
		"source":  "x' = -x*y\ny' = x*y",
		"n":       1000,
		"initial": map[string]int{"x": 990, "y": 10},
		"periods": 500,
		"seeds":   2,
		"seed":    11,
	})
	if err != nil {
		panic(err)
	}
	return body
}

// runBenchJob is postServiceJob returning the terminal status (the result
// benchmarks need the cache key and job ID).
func runBenchJob(b *testing.B, handler http.Handler, body []byte) service.JobStatus {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", newBody(body))
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK && rec.Code != http.StatusAccepted {
		b.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	var st service.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		b.Fatal(err)
	}
	for st.Status == service.StatusQueued || st.Status == service.StatusRunning {
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID, nil)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("poll: %d %s", rec.Code, rec.Body.String())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			b.Fatal(err)
		}
	}
	if st.Status != service.StatusDone {
		b.Fatalf("job finished %s: %s", st.Status, st.Error)
	}
	return st
}

func newBody(data []byte) io.Reader { return &sliceReader{data: data} }

// sliceReader is a minimal one-shot reader (bytes.NewReader without the
// extra interface surface; keeps the request-building allocation profile
// flat across iterations).
type sliceReader struct {
	data []byte
	off  int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// setupResultPlane boots a one-worker service, runs the large sweep once,
// and returns the handler plus the finished job's status. Every result
// benchmark iterates against this warm state.
func setupResultPlane(b *testing.B) (http.Handler, *service.Server, service.JobStatus) {
	b.Helper()
	srv := service.New(service.Config{Workers: 1})
	b.Cleanup(srv.Close)
	handler := srv.Handler()
	st := runBenchJob(b, handler, benchResultSpec())
	return handler, srv, st
}

// metricValue reads a label-less family from the registry srv records into,
// as GET /metrics renders it.
func metricValue(b *testing.B, srv *service.Server, name string) float64 {
	b.Helper()
	var buf bytes.Buffer
	if err := srv.Metrics().Render(&buf); err != nil {
		b.Fatal(err)
	}
	fams, err := obs.ParseExposition(&buf)
	if err != nil {
		b.Fatal(err)
	}
	if fam, ok := fams[name]; ok {
		if v, ok := fam.Value(name, nil); ok {
			return v
		}
	}
	b.Fatalf("the registry has no %s", name)
	return 0
}

// handlerGet drives one GET through the handler with optional headers.
func handlerGet(b *testing.B, handler http.Handler, path string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	return rec
}

// BenchmarkResultGetHot measures the hot cache-hit GET /v1/results/{key}
// for an identity client: every response is an inflate of the resident
// member, and the encodes-saved counter check proves no iteration performed
// a JSON encode.
func BenchmarkResultGetHot(b *testing.B) {
	handler, srv, st := setupResultPlane(b)
	path := "/v1/results/" + st.CacheKey
	before := metricValue(b, srv, "odeproto_result_encodes_saved_total")
	var bytesOut int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := handlerGet(b, handler, path, nil)
		if rec.Code != http.StatusOK {
			b.Fatalf("hot GET: %d", rec.Code)
		}
		bytesOut = rec.Body.Len()
	}
	b.StopTimer()
	if advanced := metricValue(b, srv, "odeproto_result_encodes_saved_total") - before; advanced < float64(b.N) {
		b.Fatalf("hot path re-encoded: encodes_saved advanced %g for %d GETs", advanced, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(float64(bytesOut), "body_bytes")
}

// BenchmarkResultGetHotEncode is the per-request-encode baseline: the
// marshal the pre-encode-once handler ran for every result GET, writing
// into the same recorder shape. The Hot/HotEncode req/s ratio is the
// data plane's acceptance number.
func BenchmarkResultGetHotEncode(b *testing.B) {
	handler, _, st := setupResultPlane(b)
	rec := handlerGet(b, handler, "/v1/jobs/"+st.ID, nil)
	var full service.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil {
		b.Fatal(err)
	}
	if full.Result == nil {
		b.Fatal("no result on the finished job")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := json.Marshal(full.Result)
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		rec.Header().Set("Content-Type", "application/json")
		if _, err := rec.Body.Write(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkResultGet304 measures the conditional-GET fast path: the
// If-None-Match validator matches, so the handler answers 304 without
// touching (or allocating) any result-sized buffer.
func BenchmarkResultGet304(b *testing.B) {
	handler, _, st := setupResultPlane(b)
	path := "/v1/results/" + st.CacheKey
	hdr := map[string]string{"If-None-Match": `"` + st.CacheKey + `"`}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := handlerGet(b, handler, path, hdr)
		if rec.Code != http.StatusNotModified {
			b.Fatalf("conditional GET: %d", rec.Code)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkResultGet304Encode is the revalidation baseline: a server
// without conditional-GET support re-encodes and re-sends the full body
// on every poll — the work a 304 avoids entirely.
func BenchmarkResultGet304Encode(b *testing.B) {
	handler, _, st := setupResultPlane(b)
	rec := handlerGet(b, handler, "/v1/jobs/"+st.ID, nil)
	var full service.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := json.Marshal(full.Result)
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		if _, err := rec.Body.Write(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkResultGetGzip measures compressed serving: every response copies
// the resident member, the bytes the result was stored as.
func BenchmarkResultGetGzip(b *testing.B) {
	handler, _, st := setupResultPlane(b)
	path := "/v1/results/" + st.CacheKey
	hdr := map[string]string{"Accept-Encoding": "gzip"}
	if rec := handlerGet(b, handler, path, hdr); rec.Header().Get("Content-Encoding") != "gzip" {
		b.Fatal("gzip not negotiated")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := handlerGet(b, handler, path, hdr)
		if rec.Code != http.StatusOK {
			b.Fatalf("gzip GET: %d", rec.Code)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkResultGetGzipEncode is the per-request compression baseline:
// marshal plus a full gzip pass per response.
func BenchmarkResultGetGzipEncode(b *testing.B) {
	handler, _, st := setupResultPlane(b)
	rec := handlerGet(b, handler, "/v1/jobs/"+st.ID, nil)
	var full service.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := json.Marshal(full.Result)
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		zw := gzip.NewWriter(rec.Body)
		if _, err := zw.Write(data); err != nil {
			b.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkResultGetDisk measures GET /v1/results/{key} past the LRU on a
// file store: one open of the stored member per request, inflated as it
// streams to an identity client, sent as it lies to a gzip client with its
// trailer held back until the member inflates clean. A one-entry LRU holds a
// second result, and a disk-served GET promotes nothing, so every iteration
// reads the disk (the encodes-saved counter, which counts LRU requests, must
// not move).
func BenchmarkResultGetDisk(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() }) // after the server's cleanup below
	srv := service.New(service.Config{Workers: 1, CacheSize: 1, Store: st})
	b.Cleanup(srv.Close)
	handler := srv.Handler()
	spec := benchResultSpec()
	key := runBenchJob(b, handler, spec).CacheKey
	runBenchJob(b, handler, bytes.Replace(spec, []byte(`"seed":11,`), []byte(`"seed":12,`), 1))
	path := "/v1/results/" + key
	for _, enc := range []string{"identity", "gzip"} {
		b.Run(enc, func(b *testing.B) {
			hdr := map[string]string{"Accept-Encoding": enc}
			if got := handlerGet(b, handler, path, hdr).Header().Get("Content-Encoding"); (got == "gzip") != (enc == "gzip") {
				b.Fatalf("%s client got Content-Encoding %q", enc, got)
			}
			before := metricValue(b, srv, "odeproto_result_encodes_saved_total")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rec := handlerGet(b, handler, path, hdr); rec.Code != http.StatusOK {
					b.Fatalf("disk GET: %d", rec.Code)
				}
			}
			b.StopTimer()
			if metricValue(b, srv, "odeproto_result_encodes_saved_total") != before {
				b.Fatal("a GET was served from the LRU")
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}

// BenchmarkStreamReplay measures a cache-hit stream replay: each row's
// body is copied out of the canonical result bytes into one buffer, one
// write per replay, no per-replay marshaling and nothing memoized.
func BenchmarkStreamReplay(b *testing.B) {
	handler, _, st := setupResultPlane(b)
	path := "/v1/jobs/" + st.ID + "/stream"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := handlerGet(b, handler, path, nil)
		if rec.Code != http.StatusOK {
			b.Fatalf("stream replay: %d", rec.Code)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkStreamReplayEncode is the per-replay rendering baseline: one
// json.Marshal and two writes per row (the loop the old replay path ran),
// re-rendering the full row set on every request.
func BenchmarkStreamReplayEncode(b *testing.B) {
	handler, _, st := setupResultPlane(b)
	rec := handlerGet(b, handler, "/v1/jobs/"+st.ID, nil)
	var full service.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil {
		b.Fatal(err)
	}
	if full.Result == nil {
		b.Fatal("no result on the finished job")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		for ri := range full.Result.Runs {
			run := &full.Result.Runs[ri]
			for _, row := range run.Rows {
				data, err := json.Marshal(service.StreamRow{Run: ri, Seed: run.Seed, Period: row.Period, Counts: row.Counts})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := rec.Body.Write(data); err != nil {
					b.Fatal(err)
				}
				if _, err := rec.Body.Write([]byte("\n")); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}
