package service

import (
	"encoding/json"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"odeproto/internal/store"
)

// queueBehindBlocker occupies the server's single worker with a slow job,
// queues spec behind it, and returns the queued job's ID plus a release
// that cancels the blocker: everything the caller does in between happens
// while the job under test is still queued.
func queueBehindBlocker(t *testing.T, base string, spec JobSpec) (id string, release func()) {
	t.Helper()
	resp, data := doJSON(t, http.MethodPost, base+"/v1/jobs", slowSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit blocker: %d %s", resp.StatusCode, data)
	}
	blocker := decodeStatus(t, data).ID
	waitStatus(t, base, blocker, StatusRunning, 30*time.Second)
	resp, data = doJSON(t, http.MethodPost, base+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	return decodeStatus(t, data).ID, func() {
		if resp, data := doJSON(t, http.MethodDelete, base+"/v1/jobs/"+blocker, nil); resp.StatusCode != http.StatusOK {
			t.Errorf("cancel blocker: %d %s", resp.StatusCode, data)
		}
	}
}

// parkedReaders polls until n stream readers are blocked on the job's log.
func parkedReaders(t *testing.T, job *Job, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		job.mu.Lock()
		log := job.log
		job.mu.Unlock()
		if log == nil {
			t.Fatal("job finished before its readers attached")
		}
		log.mu.Lock()
		parked := log.parked
		log.mu.Unlock()
		if parked == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d readers parked, want %d", parked, n)
		}
	}
}

// checkStream asserts the shape every stream of a finished job has: rows
// recorded rows, each run's in period order, then the terminal row.
func checkStream(t *testing.T, lines [][]byte, seeds, rows int, terminal Status) {
	t.Helper()
	if len(lines) != rows+1 {
		t.Errorf("stream has %d lines, want %d rows and the terminal row", len(lines), rows)
		return
	}
	last := make(map[int]int)
	for i, line := range lines {
		var row StreamRow
		if err := json.Unmarshal(line, &row); err != nil {
			t.Errorf("bad NDJSON line %q: %v", line, err)
			return
		}
		if i == rows {
			if row.Event != string(terminal) || row.Period != -1 {
				t.Errorf("terminal row %q, want event %s", line, terminal)
			}
			return
		}
		if prev, seen := last[row.Run]; row.Event != "" || row.Run >= seeds || (seen && row.Period <= prev) {
			t.Errorf("line %d %q: out of order within run %d, or not a recorded row", i, line, row.Run)
			return
		}
		last[row.Run] = row.Period
	}
}

// TestConcurrentLiveStreams: three readers attach to a four-seed job before
// it starts and follow it live while the four runs record concurrently.
// Each sees every run's rows in period order, the exact total, and the
// terminal row last; a reader arriving after completion gets the same
// multiset of lines from the canonical bytes. Run under -race this is the
// check that readers only ever touch a slab's published prefix.
func TestConcurrentLiveStreams(t *testing.T) {
	// The sweep sizes its pool from GOMAXPROCS: four lets the four runs
	// record at once on any machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	srv, ts := newTestServer(t, Config{Workers: 1})
	spec := JobSpec{Source: epidemicSource, N: 3000, Initial: map[string]int{"x": 2990, "y": 10},
		Periods: 301, RecordEvery: 2, Seeds: 4}
	const rows = 4 * 151
	id, release := queueBehindBlocker(t, ts.URL, spec)

	var wg sync.WaitGroup
	streams := make([][][]byte, 3)
	for i := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			streams[i] = readStream(t, ts.URL, id)
		}()
	}
	job, _ := srv.job(id)
	parkedReaders(t, job, len(streams))
	release()
	wg.Wait()

	late := readStream(t, ts.URL, id)
	checkStream(t, late, 4, rows, StatusDone)
	for i, lines := range streams {
		checkStream(t, lines, 4, rows, StatusDone)
		if sortedLines(lines) != sortedLines(late) {
			t.Errorf("live reader %d saw different lines than the replay", i)
		}
	}
	if st := job.Snapshot(false); st.Rows != rows {
		t.Errorf("status rows = %d, want %d", st.Rows, rows)
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.log != nil {
		t.Error("finished job still holds its row log")
	}
}

// TestUnfinishedJobsStreamPartialRows: a job that ends cancelled or failed
// still hands attached readers the rows it recorded, then the terminal
// row, and releases its row log like any other.
func TestUnfinishedJobsStreamPartialRows(t *testing.T) {
	t.Run("cancelled", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{Workers: 1})
		resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", slowSpec())
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %s", resp.StatusCode, data)
		}
		id := decodeStatus(t, data).ID
		streamed := make(chan [][]byte)
		go func() { streamed <- readStream(t, ts.URL, id) }()
		// The reader must be attached before the cancel: one arriving after
		// it replays only the terminal row.
		job, _ := srv.job(id)
		parkedReaders(t, job, 1)
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
			if _, data := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil); decodeStatus(t, data).Rows >= 5 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("job recorded no rows")
			}
		}
		if resp, data := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel: %d %s", resp.StatusCode, data)
		}
		lines := <-streamed
		st := waitStatus(t, ts.URL, id, StatusCancelled, 30*time.Second)
		if st.Rows < 5 || st.Rows >= slowSpec().Periods {
			t.Fatalf("cancelled job reports %d rows", st.Rows)
		}
		checkStream(t, lines, 1, st.Rows, StatusCancelled)
		job.mu.Lock()
		held := job.log
		job.mu.Unlock()
		if held != nil {
			t.Fatal("cancelled job still holds its row log")
		}
		// The rows went with the log: a later reader gets the terminal row.
		checkStream(t, readStream(t, ts.URL, id), 1, 0, StatusCancelled)
	})
	t.Run("failed", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{Workers: 1, Store: &recordingStore{Store: store.NewMemory(), failPut: true}})
		id, release := queueBehindBlocker(t, ts.URL, smallSpec())
		streamed := make(chan [][]byte)
		go func() { streamed <- readStream(t, ts.URL, id) }()
		job, _ := srv.job(id)
		parkedReaders(t, job, 1)
		release()
		checkStream(t, <-streamed, 1, smallSpec().Periods, StatusFailed)
		st := waitStatus(t, ts.URL, id, StatusFailed, 30*time.Second)
		if st.Rows != smallSpec().Periods {
			t.Fatalf("failed job reports %d rows, recorded %d", st.Rows, smallSpec().Periods)
		}
		job.mu.Lock()
		defer job.mu.Unlock()
		if job.log != nil {
			t.Fatal("failed job still holds its row log")
		}
	})
}

// TestStatusRowsOnEveryPath: JobStatus.Rows is the recorded row count of
// the result however the job came to be done — swept here, answered from
// the cache at submit, answered from the cache at worker pickup, or
// recovered from the WAL with its blob warmed or still cold — on the
// listing as on the job's own page, before and after anyone streams it.
func TestStatusRowsOnEveryPath(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec()
	spec.Periods, spec.RecordEvery = 30, 4 // periods 0,4,…,28 and the final 29
	const rows = 9
	other := spec
	other.Seed = 99

	check := func(t *testing.T, base, id string, streamFirst bool) {
		t.Helper()
		if streamFirst {
			checkStream(t, readStream(t, base, id), 1, rows, StatusDone)
		}
		st := waitStatus(t, base, id, StatusDone, 30*time.Second)
		if st.Rows != rows || len(st.Result.Runs[0].Rows) != rows {
			t.Errorf("job page: rows = %d with %d rows in the result, want %d", st.Rows, len(st.Result.Runs[0].Rows), rows)
		}
		_, data := doJSON(t, http.MethodGet, base+"/v1/jobs", nil)
		var list []JobStatus
		if err := json.Unmarshal(data, &list); err != nil {
			t.Fatal(err)
		}
		for _, l := range list {
			if l.ID == id && l.Rows != rows {
				t.Errorf("listing: rows = %d, want %d", l.Rows, rows)
			}
		}
		if !streamFirst {
			checkStream(t, readStream(t, base, id), 1, rows, StatusDone)
		}
	}

	fst := openFileStore(t, dir)
	srv, ts := newTestServer(t, Config{Workers: 1, Store: fst})
	submit := func(s JobSpec) string {
		t.Helper()
		resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", s)
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit: %d %s", resp.StatusCode, data)
		}
		return decodeStatus(t, data).ID
	}
	fresh := submit(spec)
	t.Run("fresh", func(t *testing.T) { check(t, ts.URL, fresh, false) })
	t.Run("submit-time hit", func(t *testing.T) { check(t, ts.URL, submit(spec), false) })
	t.Run("pickup-time hit", func(t *testing.T) {
		id := pickupHit(t, srv, ts.URL, other)
		st := waitStatus(t, ts.URL, id, StatusDone, 30*time.Second)
		if !st.Cached || srv.SweepsExecuted() != 2 { // fresh and the blocker
			t.Fatalf("cached = %v after %d sweeps: not a pickup-time hit", st.Cached, srv.SweepsExecuted())
		}
		check(t, ts.URL, id, false)
	})
	ts.Close()
	srv.Close()
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}

	for name, streamFirst := range map[string]bool{"recovered warm": false, "recovered cold": true} {
		t.Run(name, func(t *testing.T) {
			fst := openFileStore(t, dir)
			defer fst.Close()
			srv, ts := newTestServer(t, Config{Workers: 1, Store: fst})
			if name == "recovered cold" {
				dropFromCache(srv, srv.jobs[fresh].Key)
			}
			check(t, ts.URL, fresh, streamFirst)
			if n := srv.SweepsExecuted(); n != 0 {
				t.Fatalf("recovery ran %d sweeps", n)
			}
		})
	}
}
