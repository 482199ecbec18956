package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"odeproto/internal/store"
)

func openFileStore(t *testing.T, dir string) *store.FileStore {
	t.Helper()
	fst, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return fst
}

// TestSingleFlightCoalescesQueuedTwin pins the deterministic core of the
// single-flight contract: while a job is still in flight (here: parked in
// the queue behind a busy worker), an identical spec returns the same Job
// instead of registering a second one.
func TestSingleFlightCoalescesQueuedTwin(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 8})
	defer srv.Close()

	hog, err := srv.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	twinSpec := slowSpec()
	twinSpec.Seed = 2
	first, err := srv.Submit(twinSpec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		dup, err := srv.Submit(twinSpec)
		if err != nil {
			t.Fatal(err)
		}
		if dup != first {
			t.Fatalf("duplicate submit %d returned job %s, want the in-flight twin %s", i, dup.ID, first.ID)
		}
	}
	if n := srv.met.coalesced.Value(); n != 5 {
		t.Fatalf("coalesced_jobs = %d, want 5", n)
	}
	// Exactly one registered job per distinct spec.
	if got := len(residentJobs(srv)); got == 0 {
		t.Fatal("odeproto_jobs_resident counts no job")
	}
	srv.mu.Lock()
	registered := len(srv.jobs)
	srv.mu.Unlock()
	if registered != 2 {
		t.Fatalf("%d jobs registered, want 2 (hog + one twin)", registered)
	}
	if _, err := srv.Cancel(hog.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
	<-first.wait()
	// The key is released once the twin is terminal: a fresh submit
	// registers a new job rather than coalescing onto a cancelled one.
	fresh, err := srv.Submit(twinSpec)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == first {
		t.Fatal("submit after cancellation coalesced onto the dead twin")
	}
}

// TestSingleFlightConcurrentDuplicatePosts is the regression test the
// single-flight work item calls for: N concurrent identical POSTs while
// the first is still running execute exactly one sweep.
func TestSingleFlightConcurrentDuplicatePosts(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})

	const posts = 8
	var wg sync.WaitGroup
	ids := make([]string, posts)
	for i := 0; i < posts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallSpec())
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("post %d: %d %s", i, resp.StatusCode, data)
				return
			}
			ids[i] = decodeStatus(t, data).ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, id := range ids {
		waitStatus(t, ts.URL, id, StatusDone, 30*time.Second)
	}
	if n := srv.SweepsExecuted(); n != 1 {
		t.Fatalf("%d concurrent duplicate POSTs executed %d sweeps, want 1", posts, n)
	}
}

func TestResultsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	st := decodeStatus(t, data)
	done := waitStatus(t, ts.URL, st.ID, StatusDone, 30*time.Second)

	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/results/"+st.CacheKey, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("result content type %q", ct)
	}
	want, err := json.Marshal(done.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("result body differs from the job result:\n%.120s\n%.120s", body, want)
	}

	// Unknown and malformed keys 404.
	for _, bad := range []string{strings.Repeat("ab", 32), "not-a-key", ".."} {
		resp, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/results/"+bad, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET bogus result %q: %d, want 404", bad, resp.StatusCode)
		}
	}
}

// TestFileBackendPersistsAcrossRestart is the in-package half of the
// crash-recovery acceptance: a second server on the same data dir
// recovers the job list, answers the identical spec from disk without a
// sweep, byte-identical, and replays the recovered job's stream.
func TestFileBackendPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	fst := openFileStore(t, dir)
	srv1 := New(Config{Workers: 1, Store: fst})
	job, err := srv1.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-job.wait()
	first := job.Snapshot(true)
	if first.Status != StatusDone || first.Cached {
		t.Fatalf("first run %+v", first)
	}
	firstJSON, err := json.Marshal(first.Result)
	if err != nil {
		t.Fatal(err)
	}
	srv1.Close()
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}

	fst2 := openFileStore(t, dir)
	t.Cleanup(func() { fst2.Close() }) // after the server cleanup below
	srv2, ts := newTestServer(t, Config{Workers: 1, Store: fst2})
	if n := srv2.SweepsExecuted(); n != 0 {
		t.Fatalf("fresh process claims %d sweeps", n)
	}

	// The job list survived, with the result reloadable over HTTP.
	resp, data := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET recovered job: %d %s", resp.StatusCode, data)
	}
	rec := decodeStatus(t, data)
	if rec.Status != StatusDone || rec.Result == nil {
		t.Fatalf("recovered job %+v", rec)
	}
	recJSON, err := json.Marshal(rec.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recJSON, firstJSON) {
		t.Fatal("recovered result differs from the original")
	}
	if rec.Engine != "agent" || rec.N != 400 || rec.Periods != 25 {
		t.Fatalf("recovered job lost its spec fields: %+v", rec)
	}

	// The identical spec is served without simulating: the warmed LRU (or
	// the disk fall-through) answers it done-on-arrival.
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallSpec())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit after restart: %d %s", resp.StatusCode, data)
	}
	st := decodeStatus(t, data)
	if st.Status != StatusDone || !st.Cached || st.CacheKey != job.Key {
		t.Fatalf("resubmit after restart %+v", st)
	}
	if n := srv2.SweepsExecuted(); n != 0 {
		t.Fatalf("resubmit after restart ran %d sweeps", n)
	}

	// The recovered job's stream replays its rows (it was warmed).
	streamResp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	body, err := io.ReadAll(streamResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(body), "\n"); got != 26 { // 25 rows + terminal
		t.Fatalf("recovered stream has %d rows, want 26", got)
	}

	if st := fst2.Stats(); st.RecoveredJobs != 1 {
		t.Fatalf("store stats %+v", st)
	}
	if srv2.warmed != 1 {
		t.Fatalf("warmed_results = %d, want 1", srv2.warmed)
	}
}

// TestRecoveredColdJobsStreamTheirRows: a recovered done job replays its
// full stream whether or not its blob was among those the restart warmed.
// The blob is resolved by key when the stream is asked for (LRU, then the
// store) — not captured at boot, which left every job beyond the cache's
// capacity replaying the terminal row alone for the life of the process.
func TestRecoveredColdJobsStreamTheirRows(t *testing.T) {
	dir := t.TempDir()
	fst := openFileStore(t, dir)
	srv1 := New(Config{Workers: 1, Store: fst})
	var ids []string
	for seed := int64(1); seed <= 4; seed++ {
		spec := smallSpec()
		spec.Seed = seed
		job, err := srv1.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-job.wait()
		ids = append(ids, job.ID)
	}
	srv1.Close()
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}

	fst2 := openFileStore(t, dir)
	t.Cleanup(func() { fst2.Close() }) // after the server cleanup below
	srv2, ts := newTestServer(t, Config{Workers: 1, CacheSize: 1, Store: fst2})
	if w := srv2.warmed; w != 1 {
		t.Fatalf("warmed_results = %d with -cache 1, want 1", w)
	}
	for round := 0; round < 2; round++ { // each replay evicts the previous job's blob
		for _, id := range ids {
			checkStream(t, readStream(t, ts.URL, id), 1, smallSpec().Periods, StatusDone)
		}
	}
	if n := srv2.SweepsExecuted(); n != 0 {
		t.Fatalf("replaying recovered jobs ran %d sweeps", n)
	}
}

// TestWarmStopsAtTheByteBudget: startup warming loads the newest finishers
// and stops at the LRU's byte budget, not only at its entry bound — with
// four entries and 1 MiB, three results stored in ≈ 310 KB each (gzip
// members of ≈ 3 MB of JSON: the budget counts stored bytes) are warmed,
// newest most recently used, and a result that arrives next evicts the
// oldest of them.
func TestWarmStopsAtTheByteBudget(t *testing.T) {
	big := func(seed int64) JobSpec {
		spec := rowsJob(50_000, seed)
		spec.Seeds = 2
		return spec
	}
	dir := t.TempDir()
	fst := openFileStore(t, dir)
	srv1 := New(Config{Workers: 1, Store: fst})
	var keys []string
	for seed := int64(1); seed <= 5; seed++ {
		job, err := srv1.Submit(big(seed))
		if err != nil {
			t.Fatal(err)
		}
		<-job.wait()
		keys = append(keys, job.Key)
	}
	srv1.Close()
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}

	fst2 := openFileStore(t, dir)
	defer fst2.Close()
	srv2 := New(Config{Workers: 1, CacheSize: 4, Store: fst2})
	defer srv2.Close()
	if n, b := srv2.cache.usage(); srv2.warmed != 3 || n != 3 || b > srv2.cache.maxBytes || b < 3*cacheBytesPerEntry {
		t.Fatalf("warmed %d results into %d entries, %d of %d B, want the 3 that fit 1 MiB", srv2.warmed, n, b, srv2.cache.maxBytes)
	}
	for i, key := range keys {
		if got, want := srv2.cache.contains(key), i >= 2; got != want {
			t.Fatalf("result %d of 5 warm = %v, want the newest three", i+1, got)
		}
	}
	if hits, errs := srv2.met.diskHits.Value(), srv2.met.storeErrs.Value(); hits != 0 || errs != 0 {
		t.Fatalf("warming counted %d disk hits, %d store errors", hits, errs)
	}
	job, err := srv2.Submit(big(6))
	if err != nil {
		t.Fatal(err)
	}
	<-job.wait()
	if srv2.cache.contains(keys[2]) || !srv2.cache.contains(keys[3]) || !srv2.cache.contains(keys[4]) {
		t.Fatal("the next result must evict the oldest warmed one")
	}
}

// TestAsyncnetVirtualResultSurvivesRestart is the durability half of the
// virtual-asyncnet cacheability contract: a virtual-mode asyncnet result
// is persisted like any other deterministic engine's, so a restarted
// daemon re-serves it from disk (via GET /v1/results/{key} and a
// done-on-arrival resubmission) without re-simulating.
func TestAsyncnetVirtualResultSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	fst := openFileStore(t, dir)
	srv1 := New(Config{Workers: 1, Store: fst})
	spec := JobSpec{
		Source: epidemicSource, Engine: "asyncnet",
		N: 80, Initial: map[string]int{"x": 70, "y": 10}, Periods: 6, Seed: 5,
	}
	job, err := srv1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-job.wait()
	first := job.Snapshot(true)
	if first.Status != StatusDone || first.Cached || first.Mode != ModeVirtual {
		t.Fatalf("first virtual asyncnet run %+v", first)
	}
	firstJSON, err := json.Marshal(first.Result)
	if err != nil {
		t.Fatal(err)
	}
	srv1.Close()
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}

	fst2 := openFileStore(t, dir)
	t.Cleanup(func() { fst2.Close() }) // after the server cleanup below
	srv2, ts := newTestServer(t, Config{Workers: 1, Store: fst2})

	// The persisted blob is reachable by its content address.
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/results/"+job.Key, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET asyncnet result after restart: %d %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, firstJSON) {
		t.Fatal("persisted asyncnet result differs from the original")
	}

	// The identical spec is answered from disk without a sweep.
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("asyncnet resubmit after restart: %d %s", resp.StatusCode, data)
	}
	st := decodeStatus(t, data)
	if st.Status != StatusDone || !st.Cached || st.CacheKey != job.Key {
		t.Fatalf("asyncnet resubmit after restart %+v", st)
	}
	if n := srv2.SweepsExecuted(); n != 0 {
		t.Fatalf("restarted daemon ran %d sweeps serving a persisted asyncnet result", n)
	}
}

// TestFinishedInstantSurvivesRestart: the finished instant a job's status
// page serves is the one its terminal record journals, so a restart does
// not move it — for a swept job and for one answered from the cache. The
// started instant holds too: the cached job, born done, started as it was
// created, though its one record journals no start.
func TestFinishedInstantSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	fst := openFileStore(t, dir)
	srv1, ts1 := newTestServer(t, Config{Workers: 1, Store: fst})
	served := make(map[string]JobStatus)
	for _, want := range []int{http.StatusAccepted, http.StatusOK} {
		resp, data := doJSON(t, http.MethodPost, ts1.URL+"/v1/jobs", smallSpec())
		if resp.StatusCode != want {
			t.Fatalf("submit: %d %s", resp.StatusCode, data)
		}
		st := waitStatus(t, ts1.URL, decodeStatus(t, data).ID, StatusDone, 30*time.Second)
		if st.Started == nil || st.Cached && !st.Started.Equal(st.Created) {
			t.Fatalf("job %s (cached %v) created %v, started %v", st.ID, st.Cached, st.Created, st.Started)
		}
		served[st.ID] = st
	}
	srv1.Close() // waits for the worker, and with it the last record
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}

	fst2 := openFileStore(t, dir)
	t.Cleanup(func() { fst2.Close() }) // after the server cleanup below
	_, ts2 := newTestServer(t, Config{Workers: 1, Store: fst2})
	for id, want := range served {
		_, data := doJSON(t, http.MethodGet, ts2.URL+"/v1/jobs/"+id, nil)
		st := decodeStatus(t, data)
		if st.Finished == nil || !st.Finished.Equal(*want.Finished) {
			t.Errorf("job %s finished at %v before the restart and %v after it", id, *want.Finished, st.Finished)
		}
		if st.Started == nil || !st.Started.Equal(*want.Started) || !st.Created.Equal(want.Created) {
			t.Errorf("job %s (cached %v) created %v, started %v before the restart and created %v, started %v after it",
				id, want.Cached, want.Created, *want.Started, st.Created, st.Started)
		}
	}
}

// TestResumeInterruptedRestartsJobs: with Config.ResumeInterrupted, a job
// the crash caught mid-run is resubmitted by the recovering daemon itself
// — the replacement runs to done, the original stays failed with an error
// naming it, and odeproto_resumed_jobs counts the resume.
func TestResumeInterruptedRestartsJobs(t *testing.T) {
	dir := t.TempDir()
	fst := openFileStore(t, dir)
	spec := smallSpec()
	specData, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("feedc0de", 8)
	for _, rec := range []store.JobRecord{
		{Op: store.OpSubmitted, ID: "j000003", Key: key, Spec: specData, SubmittedAt: time.Now().UnixNano()},
		{Op: store.OpRunning, ID: "j000003", StartedAt: time.Now().UnixNano()},
	} {
		if err := fst.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}

	fst2 := openFileStore(t, dir)
	defer fst2.Close()
	srv := New(Config{Workers: 1, Store: fst2, ResumeInterrupted: true})
	defer srv.Close()

	if got := srv.resumed; got != 1 {
		t.Fatalf("resumed_jobs = %d, want 1", got)
	}
	orig, err := srv.job("j000003")
	if err != nil {
		t.Fatal("interrupted job not recovered")
	}
	st := orig.Snapshot(false)
	if st.Status != StatusFailed || !strings.Contains(st.Error, "resubmitted as j000004") {
		t.Fatalf("interrupted original recovered as %+v", st)
	}
	resub, err := srv.job("j000004")
	if err != nil {
		t.Fatal("resubmitted job not registered")
	}
	select {
	case <-resub.wait():
	case <-time.After(30 * time.Second):
		t.Fatal("resubmitted job did not finish")
	}
	rst := resub.Snapshot(true)
	if rst.Status != StatusDone || rst.Result == nil {
		t.Fatalf("resubmitted job finished %+v", rst)
	}
	if n := srv.SweepsExecuted(); n != 1 {
		t.Fatalf("resume ran %d sweeps, want 1", n)
	}
}

// TestResumeInterruptedOffLeavesJobsFailed: without the flag the old
// contract holds — the interrupted job comes back failed-restartable and
// nothing is enqueued.
func TestResumeInterruptedOffLeavesJobsFailed(t *testing.T) {
	dir := t.TempDir()
	fst := openFileStore(t, dir)
	spec := smallSpec()
	specData, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []store.JobRecord{
		{Op: store.OpSubmitted, ID: "j000001", Key: strings.Repeat("ab", 32), Spec: specData, SubmittedAt: time.Now().UnixNano()},
		{Op: store.OpRunning, ID: "j000001", StartedAt: time.Now().UnixNano()},
	} {
		if err := fst.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}
	fst2 := openFileStore(t, dir)
	defer fst2.Close()
	srv := New(Config{Workers: 1, Store: fst2})
	defer srv.Close()
	if got := srv.resumed; got != 0 {
		t.Fatalf("resumed_jobs = %d without the flag", got)
	}
	if jobs := residentJobs(srv); jobs[StatusFailed] != 1 || jobs[StatusQueued] != 0 {
		t.Fatalf("job table after recovery without the flag: %+v", jobs)
	}
}

// TestRecoveryMarksInterruptedJobs replays a WAL that ends mid-run (a
// crash between running and any terminal record): the job must come back
// failed-restartable, the transition must be journaled for the next
// recovery, and new IDs must continue past the recovered ones.
func TestRecoveryMarksInterruptedJobs(t *testing.T) {
	dir := t.TempDir()
	fst := openFileStore(t, dir)
	spec := smallSpec()
	specData, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("0badc0de", 8)
	for _, rec := range []store.JobRecord{
		{Op: store.OpSubmitted, ID: "j000007", Key: key, Spec: specData, SubmittedAt: time.Now().UnixNano()},
		{Op: store.OpRunning, ID: "j000007", StartedAt: time.Now().UnixNano()},
	} {
		if err := fst.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}

	fst2 := openFileStore(t, dir)
	srv := New(Config{Workers: 1, Store: fst2})
	job, err := srv.job("j000007")
	if err != nil {
		t.Fatal("interrupted job not recovered")
	}
	st := job.Snapshot(false)
	if st.Status != StatusFailed || !strings.Contains(st.Error, "restart") {
		t.Fatalf("interrupted job recovered as %+v", st)
	}
	next, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "j000008" {
		t.Fatalf("post-recovery ID %s, want j000008", next.ID)
	}
	<-next.wait()
	srv.Close()
	if err := fst2.Close(); err != nil {
		t.Fatal(err)
	}

	// Third generation: the failed-restartable transition was journaled,
	// so the job replays as a plain failure (not interrupted again), and
	// the resubmitted twin replays as done.
	fst3 := openFileStore(t, dir)
	defer fst3.Close()
	recovered := fst3.Recovered()
	if len(recovered) != 2 {
		t.Fatalf("third generation recovered %d jobs, want 2", len(recovered))
	}
	if recovered[0].Status != store.OpFailed || recovered[0].Interrupted {
		t.Fatalf("interrupted job's journaled failure did not stick: %+v", recovered[0])
	}
	if recovered[1].Status != store.OpDone {
		t.Fatalf("resubmitted twin = %+v", recovered[1])
	}
}

// TestPutResultFailureFailsTheJob: if the durable store cannot hold the
// result, the job must not claim done — the WAL would promise a blob the
// disk does not have.
func TestPutResultFailureFailsTheJob(t *testing.T) {
	srv := New(Config{Workers: 1, Store: &recordingStore{Store: store.NewMemory(), failPut: true}})
	defer srv.Close()
	job, err := srv.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-job.wait()
	st := job.Snapshot(false)
	if st.Status != StatusFailed || !strings.Contains(st.Error, "persisting result") {
		t.Fatalf("job with a failing store finished %+v", st)
	}
}
