package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"odeproto/internal/store"
)

// soakSpec is the i-th distinct tiny job of the soak: a contact rate of its
// own, so each compiles a protocol no other job shares.
func soakSpec(i int) JobSpec {
	return JobSpec{Source: "x' = -b*x*y\ny' = b*x*y", Params: map[string]float64{"b": 0.5 + 0.5*float64(i+1)/8192},
		Engine: EngineAggregate, N: 100, Initial: map[string]int{"x": 90, "y": 10}, Periods: 4, Seed: int64(i + 1)}
}

// TestSoakMemoryIsAFunctionOfTheFlags submits far more jobs than the table
// retains or the LRU holds — 5 000 distinct tiny jobs from four concurrent
// submitters, every tenth followed by a duplicate POST — and checks that
// everything that grew with uptime at the parent commit now plateaus at
// what the flags allow: the job table at RetainJobs (plus what is in
// flight), the LRU inside its entry and byte bounds, the file store's index
// at the table's size, and the post-GC heap flat between the first fifth of
// the run and its end. An aged-out ID answers 410 on every /v1/jobs/{id}
// route while its result is still served by key from disk (with the memory
// backend the key is gone with the LRU entry: 404), and a restart replays
// a WAL whose records RetainJobs bounds, restores at most RetainJobs
// terminal jobs and numbers new ones past every ID ever issued. The backend follows ODEPROTO_TEST_DATA like every server test
// here; "file" runs regardless so tier-1 covers both.
func TestSoakMemoryIsAFunctionOfTheFlags(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		if os.Getenv("ODEPROTO_TEST_DATA") != "" {
			t.Skip("ODEPROTO_TEST_DATA selects the file backend")
		}
		soak(t, "")
	})
	t.Run("file", func(t *testing.T) { soak(t, filepath.Join(t.TempDir(), "data")) })
}

func soak(t *testing.T, dir string) {
	const (
		retain     = 64
		cacheSize  = 4
		jobs       = 5000
		submitters = 4
	)
	cfg := Config{Workers: 2, QueueDepth: 8, RetainJobs: retain, CacheSize: cacheSize}
	var fst *store.FileStore
	if dir != "" {
		fst = openFileStore(t, dir)
		cfg.Store = fst
	}
	srv, ts := newTestServer(t, cfg)

	// No waiting is needed once every submitter has seen its job done:
	// conclude releases the waiters on job.done last, after the terminal
	// record is journaled and the job retired, so the table and the store's
	// index have already caught up.
	bounds := func(when string) {
		t.Helper()
		resident := 0
		for _, n := range residentJobs(srv) {
			resident += n
		}
		if resident > retain {
			t.Fatalf("%s: %d jobs resident, want at most %d", when, resident, retain)
		}
		if n, b := srv.cache.usage(); n > cacheSize || b > srv.cache.maxBytes || srv.cache.maxBytes != cacheSize*cacheBytesPerEntry {
			t.Fatalf("%s: cache outside its bounds: %d entries, %d of %d B", when, n, b, srv.cache.maxBytes)
		}
		if fst != nil && fst.Stats().IndexedJobs > retain {
			t.Fatalf("%s: the file store indexes %d jobs, want at most %d", when, fst.Stats().IndexedJobs, retain)
		}
	}

	// run submits jobs [from, to) from the concurrent submitters, each
	// waiting for its job before taking the next index.
	var firstKey atomic.Value // cache key of job 0
	run := func(from, to int) {
		t.Helper()
		next := atomic.Int64{}
		next.Store(int64(from))
		var wg sync.WaitGroup
		for w := 0; w < submitters; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= to {
						return
					}
					job, err := srv.Submit(soakSpec(i))
					if err != nil {
						t.Errorf("submit %d: %v", i, err)
						return
					}
					<-job.wait()
					if i == 0 {
						firstKey.Store(job.Key)
					}
					if i%10 == 0 {
						dup, err := srv.Submit(soakSpec(i))
						if err != nil {
							t.Errorf("duplicate submit %d: %v", i, err)
							return
						}
						<-dup.wait()
						if dup.Key != job.Key {
							t.Errorf("duplicate of job %d has key %s, want %s", i, dup.Key, job.Key)
						}
					}
					if st := job.snapshot(false); st.Status != StatusDone {
						t.Errorf("job %d: %s %s", i, st.Status, st.Error)
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}

	// Job 0's canonical bytes, read while the LRU still has them.
	run(0, 1)
	key := firstKey.Load().(string)
	resp, original := rawGet(t, ts.URL+"/v1/results/"+key, nil)
	if resp.StatusCode != http.StatusOK || len(original) == 0 {
		t.Fatalf("result of the first job: %d, %d bytes", resp.StatusCode, len(original))
	}

	run(1, jobs/5)
	bounds("after a fifth of the run")
	early := heapSansMemo()
	run(jobs/5, jobs)
	bounds("at the end")
	late := heapSansMemo()
	// 4 000 more jobs and 400 more duplicates went by, each with a compiled
	// protocol of its own. Before the table was bounded each left its Job, its
	// spec, its protocol and its blob behind; what may still grow now is
	// bounded bookkeeping (the compile memo is emptied at both readings).
	grown := int64(late) - int64(early)
	t.Logf("post-GC heap %d B after %d jobs, %d B after %d (%+d B)", early, jobs/5, late, jobs, grown)
	if grown > 512<<10 {
		t.Fatalf("post-GC heap grew %d B over the last four fifths of the run (%d → %d): something still scales with uptime", grown, early, late)
	}
	if table := residentJobs(srv); table[StatusDone] != retain || len(table) != 1 {
		t.Fatalf("a quiescent table holds %v, want exactly RetainJobs = %d done jobs", table, retain)
	}
	issued := jobs + jobs/10
	fams := scrapeMetrics(t, ts.URL)
	_, cacheBytes := srv.cache.usage()
	for name, want := range map[string]float64{
		"odeproto_jobs_aged_out_total": float64(issued - retain),
		"odeproto_cache_bytes":         float64(cacheBytes),
	} {
		if got := sampleValue(t, fams, name, nil); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	for _, status := range []Status{StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCancelled} {
		want := 0.0
		if status == StatusDone {
			want = retain
		}
		if got := sampleValue(t, fams, "odeproto_jobs_resident", map[string]string{"status": string(status)}); got != want {
			t.Errorf("odeproto_jobs_resident{status=%q} = %v, want %v", status, got, want)
		}
	}
	if got := sampleValue(t, fams, "odeproto_cache_evictions_total", nil); got < float64(jobs-cacheSize) {
		t.Errorf("odeproto_cache_evictions_total = %v after %d distinct results through a %d-entry LRU", got, jobs, cacheSize)
	}

	// The first job is long gone from the table: 410 on every route under
	// its ID, 404 for an ID never issued.
	for _, route := range []string{"", "/stream", "/figure.svg", "/trace", "/trace.svg"} {
		if resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/j000001"+route, nil); resp.StatusCode != http.StatusGone {
			t.Errorf("GET /v1/jobs/j000001%s of an aged-out job: %d %s, want 410", route, resp.StatusCode, body)
		}
	}
	if resp, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/j000001", nil); resp.StatusCode != http.StatusGone {
		t.Errorf("DELETE of an aged-out job: %d, want 410", resp.StatusCode)
	}
	for _, id := range []string{fmt.Sprintf("j%06d", issued+1), "j000001x", "n9-j000001", "j1"} {
		if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /v1/jobs/%s, an ID never issued: %d, want 404", id, resp.StatusCode)
		}
	}
	resp, served := rawGet(t, ts.URL+"/v1/results/"+key, nil)
	if fst == nil {
		// Memory backend: a result lives exactly as long as the LRU holds it.
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("memory backend: result of the first job past the LRU: %d, want 404", resp.StatusCode)
		}
		return
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(served, original) {
		t.Fatalf("result of the aged-out first job by key: %d, %d bytes, want the original %d bytes from disk",
			resp.StatusCode, len(served), len(original))
	}

	// Restart on the same directory: the WAL compacted itself as jobs aged
	// out, so it replays a number of records bounded by RetainJobs, not by
	// the jobs ever issued; the table takes the newest RetainJobs and the
	// store's index follows.
	ts.Close()
	srv.Close()
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}
	fst2 := openFileStore(t, dir)
	defer fst2.Close()
	srv2 := New(Config{Workers: 2, RetainJobs: retain, CacheSize: cacheSize, Store: fst2})
	defer srv2.Close()
	st2 := fst2.Stats()
	const bound = store.CompactRatio*retain + store.CompactFloor
	t.Logf("the restart replays %d WAL records (bound %d) for %d of the %d jobs issued", st2.LogRecords, bound, st2.RecoveredJobs, issued)
	if st2.LogRecords > bound || st2.RecoveredJobs < retain {
		t.Fatalf("want at most %d records and at least %d jobs", bound, retain)
	}
	if got := residentJobs(srv2)[StatusDone]; got != retain || st2.IndexedJobs != retain {
		t.Fatalf("after the restart: %d done jobs in the table, %d in the store's index, want %d and %d", got, st2.IndexedJobs, retain, retain)
	}
	if n, b := srv2.cache.usage(); n > cacheSize || b > srv2.cache.maxBytes || srv2.warmed != n {
		t.Fatalf("after the restart: warmed %d results into %d entries, %d of %d B", srv2.warmed, n, b, srv2.cache.maxBytes)
	}
	newest := fmt.Sprintf("j%06d", issued)
	if _, err := srv2.job(newest); err != nil {
		t.Fatalf("the last job issued, %s, must survive the restart: %v", newest, err)
	}
	if _, err := srv2.job("j000001"); err != errGone {
		t.Fatalf("an ID that aged out before the restart: %v, want errGone", err)
	}
	job, err := srv2.Submit(soakSpec(jobs))
	if err != nil {
		t.Fatal(err)
	}
	<-job.wait()
	if want := fmt.Sprintf("j%06d", issued+1); job.ID != want {
		t.Fatalf("the first job after the restart is %s, want %s", job.ID, want)
	}
}

// TestListPages: GET /v1/jobs serves the table a page at a time in numeric
// ID order — j1000000 after j999999, where the string sort put it first —
// with a Link rel="next" while more remain, and only what is resident.
func TestListPages(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, RetainJobs: 25})
	srv.mu.Lock()
	srv.nextID = 999_989 // the run crosses from six digits to seven
	srv.mu.Unlock()
	for i := 0; i < 30; i++ {
		job, err := srv.Submit(soakSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		<-job.wait()
	}
	// j999990 … j999994 have aged out; 25 remain, j999995 … j1000019.
	var got []string
	url := ts.URL + "/v1/jobs?limit=10"
	for pages := 0; url != ""; pages++ {
		resp, data := doJSON(t, http.MethodGet, url, nil)
		var page []JobStatus
		if err := json.Unmarshal(data, &page); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s (%v)", url, resp.StatusCode, data, err)
		}
		for _, st := range page {
			got = append(got, st.ID)
		}
		url = ""
		if link := resp.Header.Get("Link"); link != "" {
			path, ok := strings.CutSuffix(strings.TrimPrefix(link, "<"), `>; rel="next"`)
			if !ok || len(page) != 10 {
				t.Fatalf("page of %d with Link %q", len(page), link)
			}
			url = ts.URL + path
		}
		if pages > 3 {
			t.Fatal("the listing does not end")
		}
	}
	var want []string
	for n := 999_995; n <= 1_000_019; n++ {
		want = append(want, fmt.Sprintf("j%06d", n))
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("listing in pages of 10:\n got %v\nwant %v", got, want)
	}
	// The default page takes the whole table; a cursor past the end is empty.
	resp, data := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil)
	var all []JobStatus
	if err := json.Unmarshal(data, &all); err != nil || len(all) != 25 || resp.Header.Get("Link") != "" {
		t.Fatalf("unpaged listing: %d jobs, Link %q (%v)", len(all), resp.Header.Get("Link"), err)
	}
	if _, data := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs?after=j1000019", nil); strings.TrimSpace(string(data)) != "[]" {
		t.Fatalf("listing after the last ID: %s", data)
	}
	for _, bad := range []string{"0", "-3", "ten"} {
		if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs?limit="+bad, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("limit=%s: %d, want 400", bad, resp.StatusCode)
		}
	}
}
