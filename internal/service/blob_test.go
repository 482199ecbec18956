package service

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

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
// without one — opens, warms, heals and serves: identity byte-identical,
// gzip from the sibling, and not one file in it rewritten or removed.
func TestOldDataDirServesUnchanged(t *testing.T) {
	bigSpec, _ := normalizeOrFatal(t, largeSpec())
	tinySpec, _ := normalizeOrFatal(t, smallSpec())
	big, small := twinResult(t, bigSpec), twinResult(t, tinySpec)
	var sibling bytes.Buffer
	zw := gzip.NewWriter(&sibling) // the default level, as those daemons compressed
	_, _ = zw.Write(big.data)
	_ = zw.Close()

	dir := t.TempDir()
	for path, data := range map[string][]byte{
		storedPath(dir, big.key):         big.data,
		storedPath(dir, big.key) + ".gz": sibling.Bytes(),
		storedPath(dir, small.key):       small.data,
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
			if enc, body := get(blob.key, "identity"); enc != "" || !bytes.Equal(body, blob.data) {
				t.Fatalf("%s, identity %s…: encoding %q, %d B, want the blob's %d", path, blob.key[:8], enc, len(body), len(blob.data))
			}
		}
		if enc, body := get(big.key, "gzip"); enc != "gzip" || !bytes.Equal(body, sibling.Bytes()) {
			t.Fatalf("%s, gzip of the large blob: encoding %q, %d B, want its sibling's %d", path, enc, len(body), sibling.Len())
		}
	}
	// The sub-block blob has no gzip form on disk: identity goes out.
	dropFromCache(srv, small.key)
	if enc, body := get(small.key, "gzip"); enc != "" || !bytes.Equal(body, small.data) {
		t.Fatalf("gzip of a sub-block identity blob past the LRU: encoding %q, %d B", enc, len(body))
	}

	if after := resultFiles(t, dir); !reflect.DeepEqual(after, before) || !reflect.DeepEqual(mtimes(), stamped) {
		t.Fatalf("serving an old directory changed its results tree: %d files, were %d", len(after), len(before))
	}
	if n := srv.SweepsExecuted(); n != 0 {
		t.Fatalf("%d sweeps ran", n)
	}
}
