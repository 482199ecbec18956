package service

import (
	"bytes"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"odeproto/internal/store"
)

// TestRecoveryHealsFinishedJobs: the blob is the commit point of a finished
// job. A WAL that holds a job's submitted record (and, from older binaries,
// a running one) but no terminal record, beside the job's result blob, is
// what a crash between PutResult and the done append leaves — and what a
// power loss leaves of any unsynced done record. Recovery concludes such a
// job done, never failed-restartable beside its own result; with the blob
// missing or corrupt the job was interrupted, as it always was.
func TestRecoveryHealsFinishedJobs(t *testing.T) {
	spec, _ := normalizeOrFatal(t, smallSpec()) // the WAL holds specs as normalized
	blob := twinResult(t, spec)
	canonical := canonicalOf(t, blob)
	specData := specJSON(&spec)
	rows := []struct {
		name    string
		running bool   // the log holds a legacy running record
		blob    []byte // stored under the job's key before the "crash"; nil for none
		healed  bool
	}{
		{"submitted + blob", false, canonical, true},
		{"submitted + running + blob", true, canonical, true},
		{"blob missing", true, nil, false},
		{"blob corrupt", false, canonical[:len(canonical)/2], false},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			fst := openFileStore(t, dir)
			recs := []store.JobRecord{{Op: store.OpSubmitted, ID: "j000003", Key: blob.key, Spec: specData,
				Trace: strings.Repeat("ab", 16), SubmittedAt: time.Now().UnixNano()}}
			if row.running {
				recs = append(recs, store.JobRecord{Op: store.OpRunning, ID: "j000003", Key: blob.key, StartedAt: time.Now().UnixNano()})
			}
			for _, rec := range recs {
				if err := fst.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if row.blob != nil {
				if err := fst.PutResult(blob.key, row.blob); err != nil {
					t.Fatal(err)
				}
			}
			if err := fst.Close(); err != nil {
				t.Fatal(err)
			}

			rec := &recordingStore{Store: openFileStore(t, dir)}
			t.Cleanup(func() { rec.Store.Close() }) // after the server cleanup below
			srv, ts := newTestServer(t, Config{Workers: 1, Store: rec, ResumeInterrupted: true})
			resp, data := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/j000003", nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET recovered job: %d %s", resp.StatusCode, data)
			}
			st := decodeStatus(t, data)
			terminal := rec.records("j000003")
			if len(terminal) != 1 {
				t.Fatalf("recovery journaled %d records for the job, want one terminal record: %+v", len(terminal), terminal)
			}
			resumed := srv.resumed

			if !row.healed {
				if st.Status != StatusFailed || st.Error == "" || st.Result != nil || terminal[0].Op != store.OpFailed || !terminal[0].synced || resumed != 1 {
					t.Fatalf("job without a readable blob recovered as %s (error %q, result %v), journaled %+v, resumed %d: want failed-restartable, a synced failed record, one resume",
						st.Status, st.Error, st.Result != nil, terminal[0], resumed)
				}
				return
			}
			if st.Status != StatusDone || st.Error != "" || st.Finished == nil || resumed != 0 {
				t.Fatalf("job whose blob is on disk recovered as %s (error %q, finished %v), resumed %d: want done and nothing resubmitted",
					st.Status, st.Error, st.Finished, resumed)
			}
			if want := append(append([]byte(`,"result":`), canonical...), "}\n"...); !bytes.HasSuffix(data, want) {
				t.Fatalf("status does not splice the canonical bytes: %s", data)
			}
			if r := terminal[0]; r.Op != store.OpDone || r.Key != blob.key || r.FinishedAt != st.Finished.UnixNano() {
				t.Fatalf("healed job journaled %+v, want a done record naming the key and the served instant", r)
			}
			// The result is addressable, and a duplicate POST is a plain hit.
			if resp, body := rawGet(t, ts.URL+"/v1/results/"+blob.key, nil); resp.StatusCode != http.StatusOK || !bytes.Equal(body, canonical) {
				t.Fatalf("GET result: %d, %d bytes, want the blob's %d", resp.StatusCode, len(body), len(canonical))
			}
			if resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", spec); resp.StatusCode != http.StatusOK {
				t.Fatalf("duplicate POST: %d %s", resp.StatusCode, data)
			}
			if n := srv.SweepsExecuted(); n != 0 {
				t.Fatalf("%d sweeps ran", n)
			}

			// The next recovery replays a plain done job.
			ts.Close()
			srv.Close()
			if err := rec.Store.Close(); err != nil {
				t.Fatal(err)
			}
			fst3 := openFileStore(t, dir)
			defer fst3.Close()
			if got := fst3.Recovered(); len(got) != 2 || got[0].ID != "j000003" || got[0].Status != store.OpDone || got[0].Interrupted {
				t.Fatalf("next generation recovered %+v, want j000003 done and the duplicate", got)
			}
		})
	}
}

// copyDataDir copies a live store's data dir as the disk would hold it after
// a power loss — the open WAL segment cut to its length at the last fsync;
// every other file is fsync'd before anything names it — or, with cut false,
// after a process kill, which loses nothing the OS was handed.
func copyDataDir(t *testing.T, fst *store.FileStore, from string, cut bool) string {
	t.Helper()
	to := t.TempDir()
	segment, synced := fst.SyncedTail()
	err := filepath.WalkDir(from, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(from, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(to, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if cut && rel == filepath.Join("wal", segment) {
			data = data[:synced]
		}
		return os.WriteFile(filepath.Join(to, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return to
}

// TestPowerLossKeepsEveryPromise drives a real service over the file store
// down every terminal path, leaves one job running and one queued, and takes
// the data dir as a power loss would leave it: killing the process keeps the
// OS cache, so the test itself discards what no fsync covered. Reopened,
// every ID a client was given exists; every job a client saw done is done,
// with the same bytes under the same ETag; cancelled and failed jobs keep
// their status and their own error text; the unfinished ones are
// failed-restartable. A copy that loses nothing reads the same.
func TestPowerLossKeepsEveryPromise(t *testing.T) {
	dir := t.TempDir()
	fst := openFileStore(t, dir)
	t.Cleanup(func() { fst.Close() }) // after the server cleanup below
	rec := &recordingStore{Store: fst}
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, Store: rec})

	seeded := func(seed int64) JobSpec {
		spec := smallSpec()
		spec.Seed = seed
		return spec
	}
	submit := func(spec JobSpec, want int) string {
		t.Helper()
		resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", spec)
		if resp.StatusCode != want {
			t.Fatalf("submit: %d %s", resp.StatusCode, data)
		}
		return decodeStatus(t, data).ID
	}
	cancel := func(id string) {
		t.Helper()
		if resp, data := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel %s: %d %s", id, resp.StatusCode, data)
		}
	}

	// What each client was told, by job ID.
	type promise struct {
		status Status
		errHas string
	}
	promised := make(map[string]promise)

	fresh := submit(seeded(1), http.StatusAccepted)
	waitStatus(t, ts.URL, fresh, StatusDone, 30*time.Second)
	promised[fresh] = promise{status: StatusDone}
	promised[submit(seeded(1), http.StatusOK)] = promise{status: StatusDone} // submit-time hit

	rec.failPut = true
	unstored := submit(seeded(2), http.StatusAccepted)
	waitStatus(t, ts.URL, unstored, StatusFailed, 30*time.Second)
	rec.failPut = false
	promised[unstored] = promise{StatusFailed, "persisting result"}

	// One worker, held by a slow job while the rest queue up behind it.
	blocker := submit(slowSpec(), http.StatusAccepted)
	waitStatus(t, ts.URL, blocker, StatusRunning, 30*time.Second)
	dropped := submit(seeded(3), http.StatusAccepted)
	broken := submit(seeded(4), http.StatusAccepted)
	swept := submit(seeded(5), http.StatusAccepted)
	pickup := submit(seeded(6), http.StatusAccepted)
	running := slowSpec()
	running.Seed = 2
	interrupted := submit(running, http.StatusAccepted)
	queued := submit(seeded(7), http.StatusAccepted)

	cancel(dropped)
	promised[dropped] = promise{StatusCancelled, "before it started"}
	job, _ := srv.job(broken)
	job.mu.Lock()
	job.spec.Engine = "bogus" // no validated spec fails its sweep
	job.mu.Unlock()
	// A twin on a node sharing the store finishes the pickup job's spec first.
	twin := twinResult(t, seeded(6))
	if err := fst.PutResult(twin.key, twin.stored); err != nil {
		t.Fatal(err)
	}
	srv.cache.put(twin)

	// Releasing the worker runs the queue down to the second slow job: the
	// last records written are the two done records nothing has synced.
	cancel(blocker)
	promised[blocker] = promise{StatusCancelled, "job cancelled"}
	waitStatus(t, ts.URL, broken, StatusFailed, 30*time.Second)
	promised[broken] = promise{StatusFailed, "unknown engine"}
	waitStatus(t, ts.URL, swept, StatusDone, 30*time.Second)
	promised[swept] = promise{status: StatusDone}
	if st := waitStatus(t, ts.URL, pickup, StatusDone, 30*time.Second); !st.Cached {
		t.Fatalf("pickup-time hit finished uncached: %+v", st)
	}
	promised[pickup] = promise{status: StatusDone}
	waitStatus(t, ts.URL, interrupted, StatusRunning, 30*time.Second)
	promised[interrupted] = promise{StatusFailed, restartableErr}
	promised[queued] = promise{StatusFailed, restartableErr}

	// What the clients of the done jobs read, by result key.
	type served struct {
		etag string
		body []byte
	}
	results := make(map[string]served)
	for id, p := range promised {
		if p.status != StatusDone {
			continue
		}
		st := waitStatus(t, ts.URL, id, StatusDone, time.Second)
		resp, body := rawGet(t, ts.URL+"/v1/results/"+st.CacheKey, nil)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == "" {
			t.Fatalf("GET result of %s: %d, ETag %q", id, resp.StatusCode, resp.Header.Get("ETag"))
		}
		results[st.CacheKey] = served{resp.Header.Get("ETag"), body}
	}

	// The store and /metrics say what the power loss is about to cost.
	gauge := sampleValue(t, scrapeMetrics(t, ts.URL), "odeproto_wal_unsynced_records", nil)
	if n := fst.Stats().UnsyncedRecords; n != 2 || gauge != 2 {
		t.Fatalf("the store counts %d unsynced records and /metrics %v, want the swept and the pickup job's done records", n, gauge)
	}
	for _, cut := range []bool{true, false} {
		t.Run(fmt.Sprintf("cut=%v", cut), func(t *testing.T) {
			fst2 := openFileStore(t, copyDataDir(t, fst, dir, cut))
			t.Cleanup(func() { fst2.Close() })
			if got, want := fst2.Stats().RecoveredJobs, len(promised); got != want {
				t.Fatalf("recovered %d jobs, want the %d a client was given an ID for", got, want)
			}
			srv2, ts2 := newTestServer(t, Config{Workers: 1, QueueDepth: 8, Store: fst2})
			for id, p := range promised {
				resp, data := doJSON(t, http.MethodGet, ts2.URL+"/v1/jobs/"+id, nil)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("job %s, promised %s: GET %d %s", id, p.status, resp.StatusCode, data)
					continue
				}
				st := decodeStatus(t, data)
				if st.Status != p.status || !strings.Contains(st.Error, p.errHas) || (p.status == StatusDone) != (st.Error == "") {
					t.Errorf("job %s recovered %s (error %q), promised %s (error containing %q)", id, st.Status, st.Error, p.status, p.errHas)
				}
				if p.status != StatusDone {
					continue
				}
				want := results[st.CacheKey]
				resp, body := rawGet(t, ts2.URL+"/v1/results/"+st.CacheKey, nil)
				if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != want.etag || !bytes.Equal(body, want.body) {
					t.Errorf("job %s: result GET %d, ETag %q, %d bytes; served %q, %d bytes before the power loss",
						id, resp.StatusCode, resp.Header.Get("ETag"), len(body), want.etag, len(want.body))
				}
				if suffix := append(append([]byte(`,"result":`), want.body...), "}\n"...); !bytes.HasSuffix(data, suffix) {
					t.Errorf("job %s: status does not splice the bytes served before the power loss", id)
				}
			}
			if n := srv2.SweepsExecuted(); n != 0 {
				t.Errorf("recovery ran %d sweeps", n)
			}
		})
	}
}

// TestFsyncsPerJobPinned is the benchmark's gated count, in tier-1: over 20
// fresh jobs and 5 duplicate POSTs on the file backend the registry's
// odeproto_wal_syncs_total moves by 25 — one submitted record per fresh job,
// one born-done record per duplicate — and
// odeproto_store_results_written_total by 20, exactly. fsyncs_per_op is
// their sum over the ops.
func TestFsyncsPerJobPinned(t *testing.T) {
	_, base := newFileBackedServer(t, Config{Workers: 2})
	counts := func() (syncs, blobs float64) {
		fams := scrapeMetrics(t, base)
		return sampleValue(t, fams, "odeproto_wal_syncs_total", nil), sampleValue(t, fams, "odeproto_store_results_written_total", nil)
	}
	post := func(seed int64, want int) string {
		t.Helper()
		spec := smallSpec()
		spec.Periods, spec.Seed = 5, seed
		resp, data := doJSON(t, http.MethodPost, base+"/v1/jobs", spec)
		if resp.StatusCode != want {
			t.Fatalf("submit: %d %s", resp.StatusCode, data)
		}
		return decodeStatus(t, data).ID
	}
	syncs0, blobs0 := counts()
	var ids []string
	for seed := int64(1); seed <= 20; seed++ {
		ids = append(ids, post(seed, http.StatusAccepted))
	}
	for _, id := range ids {
		waitStatus(t, base, id, StatusDone, 30*time.Second)
	}
	for seed := int64(1); seed <= 5; seed++ {
		post(seed, http.StatusOK)
	}
	syncs, blobs := counts()
	if syncs-syncs0 != 25 || blobs-blobs0 != 20 {
		t.Fatalf("20 fresh jobs and 5 duplicate POSTs moved odeproto_wal_syncs_total by %v and odeproto_store_results_written_total by %v, want 25 and 20",
			syncs-syncs0, blobs-blobs0)
	}
}
