package service

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"odeproto/internal/harness"
	"odeproto/internal/obs"
	"odeproto/internal/store"
)

// storedPath is where the file store keeps key's blob under dir.
func storedPath(dir, key string) string { return filepath.Join(dir, "results", key[:2], key) }

// flip returns b with one bit of the byte at offset at flipped.
func flip(b []byte, at int) []byte {
	b = bytes.Clone(b)
	b[at] ^= 0x10
	return b
}

// damages are the ways a file rots: a bit flips — in the deflate stream, or
// in the trailer's CRC, where only the last Read finds out — or the tail goes
// missing.
var damages = map[string]func([]byte) []byte{
	"flipped byte": func(b []byte) []byte { return flip(b, len(b)/2) },
	"flipped crc":  func(b []byte) []byte { return flip(b, len(b)-6) },
	"truncated":    func(b []byte) []byte { return b[:len(b)/2] },
}

// TestDamagedBlobAbortsResponse: past the LRU an identity GET inflates the
// stored member as it copies, so bit rot surfaces mid-body, after the 200 and
// its Content-Length are committed. The handler tears the connection — the
// client sees a transport error or a short read, never a well-framed 200 —
// and counts one store error.
func TestDamagedBlobAbortsResponse(t *testing.T) {
	for name, damage := range damages {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fst := openFileStore(t, dir)
			t.Cleanup(func() { fst.Close() }) // after the server cleanup below
			srv, ts := newTestServer(t, Config{Workers: 1, Store: fst})
			key := runJob(t, ts.URL, largeSpec()).CacheKey
			_, canonical := rawGet(t, ts.URL+"/v1/results/"+key, nil)

			member, err := os.ReadFile(storedPath(dir, key))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(storedPath(dir, key), damage(member), 0o644); err != nil {
				t.Fatal(err)
			}
			dropFromCache(srv, key)
			errs := srv.met.storeErrs.Value()

			req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/results/"+key, nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Accept-Encoding", "identity")
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				var body []byte
				body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode == http.StatusOK {
					t.Fatalf("a damaged blob was served as a well-framed 200 of %d bytes (canonical: %d)", len(body), len(canonical))
				}
				if bytes.Equal(body, canonical) {
					t.Fatal("the whole canonical body arrived from a damaged blob")
				}
			}
			if got := srv.met.storeErrs.Value(); got != errs+1 {
				t.Fatalf("store errors moved by %d, want 1", got-errs)
			}
		})
	}
}

// TestCorruptCompressedBlobIsRefused: the trailer check reaches every
// buffered read of a stored member. A damaged one is refused on an LRU miss,
// by the startup warm and by the heal path — the interrupted job whose only
// evidence it is comes back failed-restartable, not done — and the next POST
// of the spec recomputes, replaces the file and serves the bytes it held
// before the damage.
func TestCorruptCompressedBlobIsRefused(t *testing.T) {
	for name, damage := range damages {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fst := openFileStore(t, dir)
			srv, ts := newTestServer(t, Config{Workers: 1, Store: fst})
			spec, key := normalizeOrFatal(t, largeSpec())
			first := runJob(t, ts.URL, spec)
			_, canonical := rawGet(t, ts.URL+"/v1/results/"+key, nil)
			member, err := os.ReadFile(storedPath(dir, key))
			if err != nil {
				t.Fatal(err)
			}
			if first.CacheKey != key || !bytes.Equal(member, store.Deflate(canonical)) {
				t.Fatalf("job %s: the file is not the deflated result", first.CacheKey[:8])
			}
			if err := os.WriteFile(storedPath(dir, key), damage(member), 0o644); err != nil {
				t.Fatal(err)
			}

			dropFromCache(srv, key)
			errs := srv.met.storeErrs.Value()
			if _, ok := srv.loadResult(key); ok || srv.met.storeErrs.Value() != errs+1 {
				t.Fatalf("LRU miss loaded the damaged blob: %v, store errors +%d", ok, srv.met.storeErrs.Value()-errs)
			}
			// A second job that finished — its blob is this one — and lost its
			// done record.
			if err := fst.Append(store.JobRecord{Op: store.OpSubmitted, ID: "j000009", Key: key, Spec: specJSON(&spec),
				SubmittedAt: time.Now().UnixNano()}); err != nil {
				t.Fatal(err)
			}
			ts.Close()
			srv.Close()
			if err := fst.Close(); err != nil {
				t.Fatal(err)
			}

			fst2 := openFileStore(t, dir)
			t.Cleanup(func() { fst2.Close() }) // after the server cleanup below
			srv2, ts2 := newTestServer(t, Config{Workers: 1, Store: fst2})
			if warmed, errs := srv2.warmed, srv2.met.storeErrs.Value(); warmed != 0 || errs < 2 {
				t.Fatalf("restart warmed %d results with %d store errors, want none warmed and one error each from the warm and the heal", warmed, errs)
			}
			_, data := doJSON(t, http.MethodGet, ts2.URL+"/v1/jobs/j000009", nil)
			if st := decodeStatus(t, data); st.Status != StatusFailed || st.Error != restartableErr {
				t.Fatalf("the job beside a damaged blob recovered as %s (%q), want failed-restartable", st.Status, st.Error)
			}

			again := runJob(t, ts2.URL, spec) // 202: a miss, recomputed
			if n := srv2.SweepsExecuted(); n != 1 || again.Cached {
				t.Fatalf("the POST after the damage ran %d sweeps (cached %v), want one", n, again.Cached)
			}
			if healed, err := os.ReadFile(storedPath(dir, key)); err != nil || !bytes.Equal(healed, member) {
				t.Fatalf("the recompute left %d B in the file (err %v), want the %d B it held before the damage", len(healed), err, len(member))
			}
			dropFromCache(srv2, key)
			if _, body := rawGet(t, ts2.URL+"/v1/results/"+key, nil); !bytes.Equal(body, canonical) {
				t.Fatal("the recomputed result differs from the bytes served before the damage")
			}
		})
	}
}

// TestOldDataDirServesUnchanged: a -data directory in the layout of the
// daemons before blobs were compressed — an identity blob above one block
// with the .gz sibling a gzip client once caused, a sub-block identity blob
// without one — opens, warms, heals and serves: identity byte-identical to
// every client, the sibling never read, and not one file in it rewritten or
// removed.
func TestOldDataDirServesUnchanged(t *testing.T) {
	bigSpec, _ := normalizeOrFatal(t, largeSpec())
	tinySpec, _ := normalizeOrFatal(t, smallSpec())
	big, small := twinResult(t, bigSpec), twinResult(t, tinySpec)
	canonical := map[*resultBlob][]byte{big: canonicalOf(t, big), small: canonicalOf(t, small)}
	var sibling bytes.Buffer
	zw := gzip.NewWriter(&sibling) // the default level, as those daemons compressed
	_, _ = zw.Write(canonical[big])
	_ = zw.Close()

	dir := t.TempDir()
	for path, data := range map[string][]byte{
		storedPath(dir, big.key):         canonical[big],
		storedPath(dir, big.key) + ".gz": sibling.Bytes(),
		storedPath(dir, small.key):       canonical[small],
	} {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The big job is journaled done (the warm loads it); the small one lost
	// its done record (the heal concludes it from its blob).
	fst := openFileStore(t, dir)
	now := time.Now().UnixNano()
	for _, rec := range []store.JobRecord{
		{Op: store.OpSubmitted, ID: "j000001", Key: big.key, Spec: specJSON(&bigSpec), SubmittedAt: now},
		{Op: store.OpDone, ID: "j000001", Key: big.key, FinishedAt: now},
		{Op: store.OpSubmitted, ID: "j000002", Key: small.key, Spec: specJSON(&tinySpec), SubmittedAt: now},
	} {
		if err := fst.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}
	// Contents, and modification times: rewriting a file with the same
	// bytes would still move its.
	mtimes := func() map[string]time.Time {
		out := make(map[string]time.Time)
		for rel := range resultFiles(t, dir) {
			fi, err := os.Stat(filepath.Join(dir, rel))
			if err != nil {
				t.Fatal(err)
			}
			out[rel] = fi.ModTime()
		}
		return out
	}
	before, stamped := resultFiles(t, dir), mtimes()

	fst2 := openFileStore(t, dir)
	t.Cleanup(func() { fst2.Close() }) // after the server cleanup below
	srv, ts := newTestServer(t, Config{Workers: 1, Store: fst2})
	if warmed, errs := srv.warmed, srv.met.storeErrs.Value(); warmed != 1 || errs != 0 {
		t.Fatalf("old directory: warmed %d results with %d store errors, want 1 and 0", warmed, errs)
	}
	_, data := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/j000002", nil)
	if st := decodeStatus(t, data); st.Status != StatusDone || !st.Cached {
		t.Fatalf("the job beside its identity blob recovered as %s (cached %v), want healed done", st.Status, st.Cached)
	}

	get := func(key, enc string) (string, []byte) {
		t.Helper()
		resp, body := rawGet(t, ts.URL+"/v1/results/"+key, map[string]string{"Accept-Encoding": enc})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s… (%s): %d", key[:8], enc, resp.StatusCode)
		}
		return resp.Header.Get("Content-Encoding"), body
	}
	for _, path := range []string{"from the LRU", "past the LRU"} {
		for _, blob := range []*resultBlob{big, small} {
			if path == "past the LRU" {
				dropFromCache(srv, blob.key)
			}
			if enc, body := get(blob.key, "identity"); enc != "" || !bytes.Equal(body, canonical[blob]) {
				t.Fatalf("%s, identity %s…: encoding %q, %d B, want the blob's %d", path, blob.key[:8], enc, len(body), len(canonical[blob]))
			}
		}
		if enc, body := get(big.key, "gzip"); enc != "" || !bytes.Equal(body, canonical[big]) {
			t.Fatalf("%s, gzip of the large identity blob: encoding %q, %d B, want the blob's %d as identity", path, enc, len(body), len(canonical[big]))
		}
	}
	// The sub-block blob has no gzip form on disk: identity goes out.
	dropFromCache(srv, small.key)
	if enc, body := get(small.key, "gzip"); enc != "" || !bytes.Equal(body, canonical[small]) {
		t.Fatalf("gzip of a sub-block identity blob past the LRU: encoding %q, %d B", enc, len(body))
	}

	if after := resultFiles(t, dir); !reflect.DeepEqual(after, before) || !reflect.DeepEqual(mtimes(), stamped) {
		t.Fatalf("serving an old directory changed its results tree: %d files, were %d", len(after), len(before))
	}
	if n := srv.SweepsExecuted(); n != 0 {
		t.Fatalf("%d sweeps ran", n)
	}
}

// TestDamagedMemberAbortsGzipResponse: past the LRU a gzip client is sent the
// stored member as it lies but for its 8-byte trailer, which goes out only
// once the member has inflated clean. A damaged member ends short of its
// Content-Length — never a complete, well-framed body — and counts one store
// error.
func TestDamagedMemberAbortsGzipResponse(t *testing.T) {
	for name, damage := range damages {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fst := openFileStore(t, dir)
			t.Cleanup(func() { fst.Close() }) // after the server cleanup below
			srv, ts := newTestServer(t, Config{Workers: 1, Store: fst})
			key := runJob(t, ts.URL, largeSpec()).CacheKey
			member, err := os.ReadFile(storedPath(dir, key))
			if err != nil {
				t.Fatal(err)
			}
			bad := damage(member)
			if err := os.WriteFile(storedPath(dir, key), bad, 0o644); err != nil {
				t.Fatal(err)
			}
			dropFromCache(srv, key)
			errs := srv.met.storeErrs.Value()

			req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/results/"+key, nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Accept-Encoding", "gzip")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case name == "truncated" && resp.StatusCode == http.StatusInternalServerError:
				// Its trailer is too damaged to size an identity body, so the
				// store's open refuses it before a byte goes out.
			case resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Encoding") != "gzip" ||
				resp.Header.Get("Content-Length") != strconv.Itoa(len(bad)):
				t.Fatalf("gzip GET: %d, encoding %q, Content-Length %q: want 200 and the %d B file as gzip",
					resp.StatusCode, resp.Header.Get("Content-Encoding"), resp.Header.Get("Content-Length"), len(bad))
			case err == nil || len(body) >= len(bad):
				t.Fatalf("a damaged member went out as %d of its %d B (err %v), want a body cut short", len(body), len(bad), err)
			}
			if got := srv.met.storeErrs.Value(); got != errs+1 {
				t.Fatalf("store errors moved by %d, want 1", got-errs)
			}
		})
	}
}

// fetch GETs url with Accept-Encoding enc and reports whether a complete,
// well-framed 200 arrived: a torn connection or a body short of its
// Content-Length is a refusal, like any other status.
func fetch(t *testing.T, url, enc string) (body []byte, served bool) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", enc)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, false
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return body, err == nil && resp.StatusCode == http.StatusOK
}

// TestOneAdmissionRule: past the LRU, a blob that fails the one rule — an
// identity blob that is not JSON, a member that does not match its trailer —
// is refused by every read path alike, each refusal counted as one store
// error: the result GET as identity and as gzip, the status, the stream
// replay, the warm and the heal. A 304 reads no result byte, so it still
// answers; the next POST of the spec recomputes the bytes it held.
func TestOneAdmissionRule(t *testing.T) {
	for name, row := range map[string]struct {
		spec   JobSpec
		damage func([]byte) []byte
	}{
		"empty identity":     {smallSpec(), func([]byte) []byte { return nil }},
		"truncated identity": {smallSpec(), func(b []byte) []byte { return b[:len(b)/2] }},
		"flipped member":     {largeSpec(), func(b []byte) []byte { return flip(b, len(b)/2) }},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fst := openFileStore(t, dir)
			rec := &recordingStore{Store: fst}
			srv, ts := newTestServer(t, Config{Workers: 1, Store: rec})
			spec, key := normalizeOrFatal(t, row.spec)
			done := runJob(t, ts.URL, spec)
			_, canonical := rawGet(t, ts.URL+"/v1/results/"+key, nil)
			good, err := os.ReadFile(storedPath(dir, key))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(storedPath(dir, key), row.damage(good), 0o644); err != nil {
				t.Fatal(err)
			}
			dropFromCache(srv, key)

			refused := func(path string, refuses func() bool) {
				t.Helper()
				errs := srv.met.storeErrs.Value()
				if !refuses() {
					t.Errorf("%s served the damaged blob", path)
				}
				if n := srv.met.storeErrs.Value() - errs; n != 1 {
					t.Errorf("%s counted %d store errors, want 1", path, n)
				}
			}
			for _, enc := range []string{"identity", "gzip"} {
				refused("GET "+enc, func() bool {
					_, served := fetch(t, ts.URL+"/v1/results/"+key, enc)
					return !served
				})
			}
			refused("status", func() bool {
				_, data := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+done.ID, nil)
				st := decodeStatus(t, data)
				return st.Status == StatusDone && st.Result == nil
			})
			refused("stream replay", func() bool {
				return len(readStream(t, ts.URL, done.ID)) == 1
			})
			rec.counts()
			resp, body := rawGet(t, ts.URL+"/v1/results/"+key, map[string]string{"If-None-Match": etagForKey(key)})
			if _, reads := rec.counts(); resp.StatusCode != http.StatusNotModified || len(body) != 0 || reads != 0 {
				t.Errorf("revalidation: %d with %d B after %d reads, want a bare 304 after none", resp.StatusCode, len(body), reads)
			}

			// The warm loads the done job's blob and the heal the blob of one
			// that lost its done record: one refusal each.
			if err := fst.Append(store.JobRecord{Op: store.OpSubmitted, ID: "j000009", Key: key, Spec: specJSON(&spec),
				SubmittedAt: time.Now().UnixNano()}); err != nil {
				t.Fatal(err)
			}
			ts.Close()
			srv.Close()
			if err := fst.Close(); err != nil {
				t.Fatal(err)
			}
			fst2 := openFileStore(t, dir)
			t.Cleanup(func() { fst2.Close() }) // after the server cleanup below
			srv2, ts2 := newTestServer(t, Config{Workers: 1, Store: fst2})
			if warmed, errs := srv2.warmed, srv2.met.storeErrs.Value(); warmed != 0 || errs != 2 {
				t.Fatalf("restart warmed %d results with %d store errors, want none warmed and one error each from the warm and the heal", warmed, errs)
			}
			_, data := doJSON(t, http.MethodGet, ts2.URL+"/v1/jobs/j000009", nil)
			if st := decodeStatus(t, data); st.Status != StatusFailed || st.Error != restartableErr {
				t.Fatalf("the job beside a refused blob recovered as %s (%q), want failed-restartable", st.Status, st.Error)
			}

			again := runJob(t, ts2.URL, spec)
			if n := srv2.SweepsExecuted(); n != 1 || again.Cached || again.CacheKey != key {
				t.Fatalf("the POST after the damage ran %d sweeps (cached %v), want one", n, again.Cached)
			}
			if healed, err := os.ReadFile(storedPath(dir, key)); err != nil || !bytes.Equal(healed, good) {
				t.Fatalf("the recompute left %d B in the file (err %v), want the %d B it held before the damage", len(healed), err, len(good))
			}
			dropFromCache(srv2, key)
			if body, served := fetch(t, ts2.URL+"/v1/results/"+key, "identity"); !served || !bytes.Equal(body, canonical) {
				t.Fatal("the recomputed result differs from the bytes served before the damage")
			}
		})
	}
}

// TestEachReadOpensOnce: every read of a stored result past the LRU opens
// its blob exactly once — a result GET (identity and gzip clients, a member
// and an identity blob), a submit-time disk hit, the warm and the heal — and
// the existence probe and a 304 are an open that reads nothing.
func TestEachReadOpensOnce(t *testing.T) {
	dir := t.TempDir()
	fst := openFileStore(t, dir)
	rec := &recordingStore{Store: fst}
	srv, ts := newTestServer(t, Config{Workers: 1, Store: rec})
	specs := map[string]JobSpec{"member": largeSpec(), "identity": smallSpec()}
	keys := make(map[string]string)
	for blob, spec := range specs {
		keys[blob] = runJob(t, ts.URL, spec).CacheKey
	}
	opened := func(what string, want int, read func()) {
		t.Helper()
		rec.counts()
		read()
		if opens, _ := rec.counts(); opens != want {
			t.Errorf("%s opened the blob %d times, want %d", what, opens, want)
		}
	}
	for blob, key := range keys {
		_, canonical := rawGet(t, ts.URL+"/v1/results/"+key, nil)
		for _, enc := range []string{"identity", "gzip"} {
			dropFromCache(srv, key)
			opened("GET of the "+blob+" blob ("+enc+")", 1, func() {
				body, served := fetch(t, ts.URL+"/v1/results/"+key, enc)
				if enc == "gzip" && blob == "member" {
					zr, err := gzip.NewReader(bytes.NewReader(body))
					if err != nil {
						t.Fatal(err)
					}
					body, _ = io.ReadAll(zr)
				}
				if !served || !bytes.Equal(body, canonical) {
					t.Errorf("GET of the %s blob (%s): served %v, %d B, want the %d canonical bytes", blob, enc, served, len(body), len(canonical))
				}
			})
			if _, resident := srv.cache.peek(key); resident {
				t.Errorf("a GET past the LRU promoted the %s blob into it", blob)
			}
		}
		opened("HasResult", 1, func() {
			if !srv.HasResult(key) {
				t.Error("HasResult = false for a stored blob")
			}
		})
		opened("a 304", 1, func() {
			if resp, _ := rawGet(t, ts.URL+"/v1/results/"+key, map[string]string{"If-None-Match": etagForKey(key)}); resp.StatusCode != http.StatusNotModified {
				t.Errorf("revalidation: %d", resp.StatusCode)
			}
		})
		if _, reads := rec.counts(); reads != 0 {
			t.Errorf("HasResult and a 304 read result bytes %d times", reads)
		}
		opened("a submit-time disk hit on the "+blob+" blob", 1, func() {
			resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", specs[blob])
			if st := decodeStatus(t, data); resp.StatusCode != http.StatusOK || !st.Cached {
				t.Errorf("duplicate POST: %d %s", resp.StatusCode, data)
			}
		})
	}

	// A restart warms both done results and heals one more job that lost its
	// done record: three reads, three opens.
	spec, key := normalizeOrFatal(t, smallSpec())
	if err := fst.Append(store.JobRecord{Op: store.OpSubmitted, ID: "j000099", Key: key, Spec: specJSON(&spec),
		SubmittedAt: time.Now().UnixNano()}); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	srv.Close()
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}
	rec2 := &recordingStore{Store: openFileStore(t, dir)}
	t.Cleanup(func() { rec2.Store.Close() }) // after the server cleanup below
	srv2, _ := newTestServer(t, Config{Workers: 1, Store: rec2})
	if opens, _ := rec2.counts(); srv2.warmed != 2 || opens != 3 {
		t.Fatalf("the restart warmed %d results with %d opens, want 2 warmed and 3 opens (2 warms, 1 heal)", srv2.warmed, opens)
	}
}

// renderResult sweeps spec outside any server and renders its rows with
// appendResult: the canonical bytes every read path must reproduce.
func renderResult(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	comp, err := spec.normalize(defaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]int64, spec.Seeds)
	for i := range seeds {
		seeds[i] = spec.seedFor(i)
	}
	log := newRowLog(comp.proto.States, seeds)
	jobs, err := buildSweep(&spec, comp, log)
	if err != nil {
		t.Fatal(err)
	}
	results, err := harness.SweepContext(context.Background(), jobs, harness.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	killed := make([]int, len(results))
	for i := range results {
		killed[i] = results[i].Killed
	}
	return appendResult(nil, log, killed)
}

// TestOneResidentFormEveryReadPath: a result above one block and one within
// it, read from the LRU, past it and after a restart that warms them (the
// memory backend holds results in the LRU alone, so it has only the first).
// The LRU holds each in its stored form and nothing else, odeproto_cache_bytes
// is the sum of those lengths, and every read path — the result GET as
// identity and as gzip, the status splice, the stream replay, Snapshot and a
// duplicate POST's born-done job — yields appendResult's canonical bytes.
func TestOneResidentFormEveryReadPath(t *testing.T) {
	type result struct {
		spec      JobSpec
		key, id   string
		canonical []byte
	}
	var results []*result
	for _, spec := range []JobSpec{largeSpec(), smallSpec()} {
		spec, key := normalizeOrFatal(t, spec)
		results = append(results, &result{spec: spec, key: key, canonical: renderResult(t, spec)})
	}
	if len(results[0].canonical) <= 4096 || len(results[1].canonical) > 4096 {
		t.Fatalf("results of %d and %d B, want one above one block and one within it",
			len(results[0].canonical), len(results[1].canonical))
	}

	// check reads every path of srv with prep run before each read, in the
	// named phase.
	check := func(t *testing.T, srv *Server, base, phase string, prep func()) {
		t.Helper()
		for _, r := range results {
			fail := func(path string, got []byte) {
				t.Helper()
				t.Fatalf("%s, %d B result, %s: %d B, want the %d canonical bytes", phase, len(r.canonical), path, len(got), len(r.canonical))
			}
			prep()
			if _, body := rawGet(t, base+"/v1/results/"+r.key, nil); !bytes.Equal(body, r.canonical) {
				fail("identity GET", body)
			}
			prep()
			resp, body := rawGet(t, base+"/v1/results/"+r.key, map[string]string{"Accept-Encoding": "gzip"})
			if resp.Header.Get("Content-Encoding") == "gzip" {
				zr, err := gzip.NewReader(bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				if body, err = io.ReadAll(zr); err != nil {
					t.Fatal(err)
				}
			} else if len(r.canonical) > 4096 {
				t.Fatalf("%s: a gzip client of a stored member got identity", phase)
			}
			if !bytes.Equal(body, r.canonical) {
				fail("gzip GET", body)
			}
			prep()
			_, status := rawGet(t, base+"/v1/jobs/"+r.id, nil)
			if want := append(append([]byte(`,"result":`), r.canonical...), "}\n"...); !bytes.HasSuffix(status, want) {
				fail("status splice", status)
			}
			prep()
			var replay, want []byte
			for _, line := range readStream(t, base, r.id) {
				replay = append(replay, line...)
			}
			if err := scanResult(r.canonical, func(run int, seed int64, body []byte) {
				want = append(append(appendLineHead(want, run, seed), body...), lineEnd...)
			}); err != nil {
				t.Fatal(err)
			}
			if want = appendTerminalRow(want, StatusDone); !bytes.Equal(replay, want) {
				fail("stream replay", replay)
			}
			prep()
			job, err := srv.job(r.id)
			if err != nil {
				t.Fatal(err)
			}
			res := job.Snapshot(true).Result
			if got, _ := json.Marshal(res); res == nil || !bytes.Equal(got, r.canonical) {
				fail("Snapshot", got)
			}
			prep()
			resp, data := doJSON(t, http.MethodPost, base+"/v1/jobs", r.spec)
			if st := decodeStatus(t, data); resp.StatusCode != http.StatusOK || !st.Cached {
				t.Fatalf("%s: duplicate POST answered %d %s", phase, resp.StatusCode, data)
			} else if _, status := rawGet(t, base+"/v1/jobs/"+st.ID, nil); !bytes.HasSuffix(status, append(append([]byte(`,"result":`), r.canonical...), "}\n"...)) {
				fail("born-done status", status)
			}
		}

		// The LRU's books: each resident blob is its result's stored form, and
		// the gauge is the sum of their lengths.
		var sum int64
		srv.cache.mu.Lock()
		for el := srv.cache.order.Front(); el != nil; el = el.Next() {
			blob := el.Value.(*resultBlob)
			sum += int64(len(blob.stored))
			for _, r := range results {
				if blob.key == r.key && !bytes.Equal(blob.stored, store.StoredForm(r.canonical)) {
					t.Errorf("%s: the LRU holds %d B for the %d B result, not its stored form", phase, len(blob.stored), len(r.canonical))
				}
			}
		}
		srv.cache.mu.Unlock()
		var buf bytes.Buffer
		if err := srv.Metrics().Render(&buf); err != nil {
			t.Fatal(err)
		}
		fams, err := obs.ParseExposition(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := fams["odeproto_cache_bytes"].Value("odeproto_cache_bytes", nil); !ok || int64(v) != sum {
			t.Fatalf("%s: odeproto_cache_bytes = %v, the resident blobs hold %d B", phase, v, sum)
		}
	}
	run := func(t *testing.T, base string) {
		t.Helper()
		for _, r := range results {
			r.id = runJob(t, base, r.spec).ID
		}
	}
	resident := func() {}

	t.Run("memory", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{Workers: 1, Store: store.NewMemory()})
		run(t, ts.URL)
		check(t, srv, ts.URL, "from the LRU", resident)
	})
	t.Run("file", func(t *testing.T) {
		dir := t.TempDir()
		fst := openFileStore(t, dir)
		srv, ts := newTestServer(t, Config{Workers: 1, Store: fst})
		run(t, ts.URL)
		check(t, srv, ts.URL, "from the LRU", resident)
		check(t, srv, ts.URL, "past the LRU", func() {
			for _, r := range results {
				dropFromCache(srv, r.key)
			}
		})
		ts.Close()
		srv.Close()
		if err := fst.Close(); err != nil {
			t.Fatal(err)
		}

		fst2 := openFileStore(t, dir)
		t.Cleanup(func() { fst2.Close() }) // after the server cleanup below
		srv2, ts2 := newTestServer(t, Config{Workers: 1, Store: fst2})
		if srv2.warmed != len(results) {
			t.Fatalf("the restart warmed %d results, want %d", srv2.warmed, len(results))
		}
		check(t, srv2, ts2.URL, "after a restart", resident)
		if n := srv2.SweepsExecuted(); n != 0 {
			t.Fatalf("%d sweeps ran after the restart", n)
		}
	})
}
