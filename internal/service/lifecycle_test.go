package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"odeproto/internal/obs"
	"odeproto/internal/store"
)

// recordingStore wraps a Store, keeping every journaled record — with
// whether it was appended synced — and, in the same sequence, every result
// blob stored (an opPut entry naming its key, once PutResult returned nil);
// and counting each OpenResult and each read of result bytes: Read and ReadAt
// calls on an opened blob (the open itself reads nothing). With failPut set
// it refuses result blobs.
type recordingStore struct {
	store.Store
	failPut bool

	mu    sync.Mutex
	recs  []journaled
	opens int
	reads int
}

type journaled struct {
	store.JobRecord
	synced bool
}

// opPut marks a stored blob among the journaled records.
const opPut store.Op = "put"

func (r *recordingStore) record(rec store.JobRecord, synced bool) {
	r.mu.Lock()
	r.recs = append(r.recs, journaled{rec, synced})
	r.mu.Unlock()
}

func (r *recordingStore) Append(rec store.JobRecord) error {
	r.record(rec, true)
	return r.Store.Append(rec)
}

func (r *recordingStore) AppendUnsynced(rec store.JobRecord) error {
	r.record(rec, false)
	return r.Store.AppendUnsynced(rec)
}

func (r *recordingStore) PutResult(key string, data []byte) error {
	if r.failPut {
		return errors.New("disk full")
	}
	err := r.Store.PutResult(key, data)
	if err == nil {
		r.record(store.JobRecord{Op: opPut, Key: key}, true)
	}
	return err
}

// putBefore reports whether a PutResult of key returned before id's first
// done record was journaled.
func (r *recordingStore) putBefore(id, key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	put := false
	for _, rec := range r.recs {
		if rec.Op == opPut && rec.Key == key {
			put = true
		} else if rec.ID == id && rec.Op == store.OpDone {
			return put
		}
	}
	return false
}

func (r *recordingStore) count(n *int) {
	r.mu.Lock()
	*n++
	r.mu.Unlock()
}

func (r *recordingStore) OpenResult(key string) (store.Blob, int64, error) {
	r.count(&r.opens)
	b, size, err := r.Store.OpenResult(key)
	if err != nil {
		return nil, 0, err
	}
	return countedBlob{b, r}, size, nil
}

// counts returns the opens and reads since the last call, and zeroes them.
func (r *recordingStore) counts() (opens, reads int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	opens, reads = r.opens, r.reads
	r.opens, r.reads = 0, 0
	return opens, reads
}

type countedBlob struct {
	store.Blob
	r *recordingStore
}

func (c countedBlob) Read(p []byte) (int, error) {
	c.r.count(&c.r.reads)
	return c.Blob.Read(p)
}

func (c countedBlob) ReadAt(p []byte, off int64) (int, error) {
	c.r.count(&c.r.reads)
	return c.Blob.ReadAt(p, off)
}

// records returns the records journaled for one job, in lifecycle order
// (a submitter's and a worker's appends may land in either order).
func (r *recordingStore) records(id string) []journaled {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []journaled
	for _, rec := range r.recs {
		if rec.ID == id {
			out = append(out, rec)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Op == store.OpSubmitted && out[j].Op != store.OpSubmitted
	})
	return out
}

// awaitTerminal blocks until id's terminal record is journaled — a moment
// after its terminal status shows — and returns the job's records.
func (r *recordingStore) awaitTerminal(t *testing.T, id string) []journaled {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		recs := r.records(id)
		if n := len(recs); n > 0 && recs[n-1].Op != store.OpSubmitted {
			return recs
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s journaled no terminal record: %+v", id, recs)
		}
	}
}

// lockedBuffer is a log sink the test can read while the server writes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// contains reports whether some logged line holds every one of parts.
func (b *lockedBuffer) contains(parts ...string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
lines:
	for _, line := range strings.Split(b.buf.String(), "\n") {
		for _, part := range parts {
			if !strings.Contains(line, part) {
				continue lines
			}
		}
		return true
	}
	return false
}

// twinResult computes spec's result on a server and a store of its own — as
// a twin on another node would — and returns the blob.
func twinResult(t *testing.T, spec JobSpec) *resultBlob {
	t.Helper()
	twin, tts := newTestServer(t, Config{Workers: 1, Store: store.NewMemory()})
	resp, data := doJSON(t, http.MethodPost, tts.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("twin submit: %d %s", resp.StatusCode, data)
	}
	done := waitStatus(t, tts.URL, decodeStatus(t, data).ID, StatusDone, 30*time.Second)
	blob, _ := twin.cache.peek(done.CacheKey)
	return blob
}

// pickupHit queues spec behind a blocker on srv, lets a twin compute the
// result, plants the blob in srv's cache — as a twin sharing the store would
// — and releases the blocker: the worker answers the job from the cache at
// pickup.
func pickupHit(t *testing.T, srv *Server, base string, spec JobSpec) string {
	t.Helper()
	id, release := queueBehindBlocker(t, base, spec)
	srv.cache.put(twinResult(t, spec))
	release()
	return id
}

// TestWALRecordsPinned: the records each path journals, field for field, and
// which of them are fsync'd. A fresh sweep journals its two commit-point
// witnesses — submitted, synced, and done, unsynced, carrying the pickup
// instant no running record holds any more — and a pickup-time hit the same
// pair. read-mix writes 50 B an op, all of it submit-hit records, so one
// added field there is a disk_bytes_per_op regression: that record is
// byte-identical to the one the single terminal transition first wrote, and
// synced, being all the journal holds of its job. Timestamps are zeroed and
// the random trace ID replaced (set to 1 and "T": omitempty would hide a
// zeroed field, and which fields a record carries is the point); everything
// else is compared as journaled.
func TestWALRecordsPinned(t *testing.T) {
	rec := &recordingStore{Store: store.NewMemory()}
	srv, ts := newTestServer(t, Config{Workers: 1, Store: rec})
	spec := smallSpec()
	spec.Periods = 3
	other := spec
	other.Seed = 8

	submit := func(s JobSpec, want int) string {
		t.Helper()
		resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", s)
		if resp.StatusCode != want {
			t.Fatalf("submit: %d %s", resp.StatusCode, data)
		}
		st := decodeStatus(t, data)
		waitStatus(t, ts.URL, st.ID, StatusDone, 30*time.Second)
		return st.ID
	}
	fresh := submit(spec, http.StatusAccepted)
	hit := submit(spec, http.StatusOK)
	pickup := pickupHit(t, srv, ts.URL, other)
	waitStatus(t, ts.URL, pickup, StatusDone, 30*time.Second)

	golden := map[string][]string{
		fresh:  goldenFresh,
		hit:    goldenHit,
		pickup: goldenPickup,
	}
	for id, want := range golden {
		var got []string
		for _, r := range rec.awaitTerminal(t, id) {
			if obs.ValidTraceID(r.Trace) {
				r.Trace = "T"
			}
			for _, ts := range []*int64{&r.SubmittedAt, &r.StartedAt, &r.FinishedAt} {
				if *ts != 0 {
					*ts = 1
				}
			}
			data, err := json.Marshal(r.JobRecord)
			if err != nil {
				t.Fatal(err)
			}
			class := "unsynced "
			if r.synced {
				class = "synced "
			}
			got = append(got, class+string(data))
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("job %s journaled\n%s\nwant\n%s", id, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// goldenHit's record was printed by this test at the commit that introduced
// the single terminal transition, and has not changed since.
var (
	goldenFresh = []string{
		`synced {"op":"submitted","id":"j000001","key":"13f66eb1a366e5cb82e708558f42b3b86ef88007b5ea08ae19071e085abb4e26","spec":{"source":"x' = -x*y\ny' = x*y\n","slack":"z","engine":"agent","n":400,"initial":{"x":380,"y":20},"periods":3,"seed":7,"seeds":1,"shards":1,"record_every":1},"submitted_at":1,"trace":"T"}`,
		`unsynced {"op":"done","id":"j000001","key":"13f66eb1a366e5cb82e708558f42b3b86ef88007b5ea08ae19071e085abb4e26","started_at":1,"finished_at":1,"trace":"T"}`,
	}
	goldenHit = []string{
		`synced {"op":"done","id":"j000002","key":"13f66eb1a366e5cb82e708558f42b3b86ef88007b5ea08ae19071e085abb4e26","spec":{"source":"x' = -x*y\ny' = x*y\n","slack":"z","engine":"agent","n":400,"initial":{"x":380,"y":20},"periods":3,"seed":7,"seeds":1,"shards":1,"record_every":1},"cached":true,"submitted_at":1,"finished_at":1,"trace":"T"}`,
	}
	goldenPickup = []string{
		`synced {"op":"submitted","id":"j000004","key":"f28713ffe168326cef122098fd39ca06c6d72449c434f670b4e41ae29b4b8b26","spec":{"source":"x' = -x*y\ny' = x*y\n","slack":"z","engine":"agent","n":400,"initial":{"x":380,"y":20},"periods":3,"seed":8,"seeds":1,"shards":1,"record_every":1},"submitted_at":1,"trace":"T"}`,
		`unsynced {"op":"done","id":"j000004","key":"f28713ffe168326cef122098fd39ca06c6d72449c434f670b4e41ae29b4b8b26","cached":true,"started_at":1,"finished_at":1,"trace":"T"}`,
	}
)

// TestEveryTerminalPath: however a job comes to its end — nine paths, one
// function — it ends in the same state, a computed result's blob stored
// before its done record. Each row drives one job down one
// path on a server of its own and the same invariant set is asserted on
// every one.
func TestEveryTerminalPath(t *testing.T) {
	type ended struct {
		srv  *Server
		base string
		rec  *recordingStore
		id   string
		// logged is the server's log: the "job finished" line is the last
		// thing a terminal transition does.
		logged *lockedBuffer
	}
	boot := func(t *testing.T, inner store.Store) ended {
		rec := &recordingStore{Store: inner}
		logged := new(lockedBuffer)
		srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, Store: rec,
			Logger: slog.New(slog.NewJSONHandler(logged, nil))})
		return ended{srv: srv, base: ts.URL, rec: rec, logged: logged}
	}
	submit := func(t *testing.T, e ended, spec JobSpec, want int) string {
		t.Helper()
		resp, data := doJSON(t, http.MethodPost, e.base+"/v1/jobs", spec)
		if resp.StatusCode != want {
			t.Fatalf("submit: %d %s", resp.StatusCode, data)
		}
		return decodeStatus(t, data).ID
	}
	cancel := func(t *testing.T, e ended, id string) {
		t.Helper()
		if resp, data := doJSON(t, http.MethodDelete, e.base+"/v1/jobs/"+id, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel: %d %s", resp.StatusCode, data)
		}
	}
	queued := slowSpec()
	queued.Seed = 2

	// synced is the durability class of the row's terminal record: only the
	// done record of an accepted job — its blob proves it — goes unsynced.
	rows := []struct {
		name   string
		want   Status
		cached bool
		synced bool
		errHas string
		run    func(t *testing.T) ended
	}{
		{"fresh done", StatusDone, false, false, "", func(t *testing.T) ended {
			e := boot(t, store.NewMemory())
			e.id = submit(t, e, smallSpec(), http.StatusAccepted)
			return e
		}},
		{"persist failure", StatusFailed, false, true, "persisting result", func(t *testing.T) ended {
			e := boot(t, store.NewMemory())
			e.rec.failPut = true
			e.id = submit(t, e, smallSpec(), http.StatusAccepted)
			return e
		}},
		{"sweep error", StatusFailed, false, true, "unknown engine", func(t *testing.T) ended {
			e := boot(t, store.NewMemory())
			id, release := queueBehindBlocker(t, e.base, smallSpec())
			// No validated spec fails its sweep; break this one while it waits.
			job, _ := e.srv.job(id)
			job.mu.Lock()
			job.spec.Engine = "bogus"
			job.mu.Unlock()
			release()
			e.id = id
			return e
		}},
		{"running cancel", StatusCancelled, false, true, "job cancelled", func(t *testing.T) ended {
			e := boot(t, store.NewMemory())
			e.id = submit(t, e, slowSpec(), http.StatusAccepted)
			waitStatus(t, e.base, e.id, StatusRunning, 30*time.Second)
			cancel(t, e, e.id)
			return e
		}},
		{"queued cancel", StatusCancelled, false, true, "before it started", func(t *testing.T) ended {
			e := boot(t, store.NewMemory())
			e.id, _ = queueBehindBlocker(t, e.base, queued)
			cancel(t, e, e.id)
			return e
		}},
		{"shutdown drain", StatusCancelled, false, true, "shut down before the job started", func(t *testing.T) ended {
			e := boot(t, store.NewMemory())
			// A worker that outlives the cancellation may still pick the job
			// up; with the workers gone first, Close finds it in the queue.
			e.srv.baseCancel()
			e.srv.wg.Wait()
			e.id = submit(t, e, queued, http.StatusAccepted)
			e.srv.Close()
			return e
		}},
		{"submit-time hit", StatusDone, true, true, "", func(t *testing.T) ended {
			e := boot(t, store.NewMemory())
			waitStatus(t, e.base, submit(t, e, smallSpec(), http.StatusAccepted), StatusDone, 30*time.Second)
			e.id = submit(t, e, smallSpec(), http.StatusOK)
			return e
		}},
		{"pickup-time hit", StatusDone, true, false, "", func(t *testing.T) ended {
			e := boot(t, store.NewMemory())
			e.id = pickupHit(t, e.srv, e.base, smallSpec())
			return e
		}},
		{"interrupted at recovery", StatusFailed, false, true, "interrupted by daemon restart", func(t *testing.T) ended {
			dir := t.TempDir()
			fst := openFileStore(t, dir)
			specData, err := json.Marshal(smallSpec())
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range []store.JobRecord{
				{Op: store.OpSubmitted, ID: "j000003", Key: strings.Repeat("feedc0de", 8), Spec: specData,
					Trace: strings.Repeat("ab", 16), SubmittedAt: time.Now().UnixNano()},
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
			t.Cleanup(func() { fst2.Close() }) // after the server cleanup in boot
			e := boot(t, fst2)
			e.id = "j000003"
			return e
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e := row.run(t)
			for deadline := time.Now().Add(30 * time.Second); !e.logged.contains(`"job finished"`, `"job":"`+e.id+`"`); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("job %s never finished", e.id)
				}
			}
			st := waitStatus(t, e.base, e.id, row.want, time.Second)
			job, _ := e.srv.job(e.id)

			if st.Cached != row.cached || !strings.Contains(st.Error, row.errHas) || (row.want == StatusDone) != (st.Result != nil) {
				t.Errorf("ended %s cached=%v error=%q result=%v", st.Status, st.Cached, st.Error, st.Result != nil)
			}
			if st.Finished == nil {
				t.Fatal("terminal job has no finished instant")
			}
			select {
			case <-job.wait():
			default:
				t.Error("waiters on done were not released")
			}

			// The stream ends with the terminal row, and the row log is gone.
			lines := readStream(t, e.base, e.id)
			var last StreamRow
			if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || last.Event != string(row.want) {
				t.Errorf("stream ends with %q, want the %s row", lines[len(lines)-1], row.want)
			}
			job.mu.Lock()
			if job.log != nil {
				t.Error("terminal job still holds its row log")
			}
			job.mu.Unlock()

			// responded closes the trace, once.
			spans := job.trace.Spans()
			for i, sp := range spans {
				if (sp.Stage == obs.StageResponded) != (i == len(spans)-1) {
					t.Errorf("trace %v: responded must be the last span and appear once", spans)
					break
				}
			}

			// One terminal record, naming the key, the trace and the instant
			// the status page serves.
			var terminal []journaled
			for _, r := range e.rec.records(e.id) {
				if r.Op == store.OpDone || r.Op == store.OpFailed || r.Op == store.OpAborted {
					terminal = append(terminal, r)
				}
			}
			wantOp := map[Status]store.Op{StatusDone: store.OpDone, StatusFailed: store.OpFailed, StatusCancelled: store.OpAborted}[row.want]
			if len(terminal) != 1 {
				t.Fatalf("%d terminal records journaled, want 1: %+v", len(terminal), terminal)
			}
			if r := terminal[0]; r.Op != wantOp || r.Key != st.CacheKey || r.Key == "" || r.Trace != st.Trace || r.Trace == "" ||
				r.FinishedAt != st.Finished.UnixNano() || r.Cached != row.cached || r.Error != st.Error || r.synced != row.synced {
				t.Errorf("terminal record %+v does not match the served status (finished %d) or its durability class (synced %v)",
					r, st.Finished.UnixNano(), row.synced)
			}
			// A computed result is stored before its done record says so.
			if wantOp == store.OpDone && !row.cached && !e.rec.putBefore(e.id, st.CacheKey) {
				t.Errorf("job %s journaled done before its blob was stored", e.id)
			}

			// The single-flight claim is released.
			e.srv.mu.Lock()
			if e.srv.inflight[job.Key] == job {
				t.Error("terminal job still holds its single-flight claim")
			}
			e.srv.mu.Unlock()

			// The latency histogram sees done and failed jobs, the failure
			// counter failed ones, and a cancellation neither. Every other job
			// on the row's server is done, cancelled or still running.
			jobs := residentJobs(e.srv)
			fams := scrapeMetrics(t, e.base)
			if got, want := sampleValue(t, fams, "odeproto_job_duration_seconds_count", nil), float64(jobs[StatusDone]+jobs[StatusFailed]); got != want {
				t.Errorf("job_duration observed %v jobs, want %v (%v)", got, want, jobs)
			}
			if got, want := sampleValue(t, fams, "odeproto_jobs_failed_total", nil), float64(jobs[StatusFailed]); got != want {
				t.Errorf("jobs_failed_total = %v, want %v (%v)", got, want, jobs)
			}
		})
	}
}

// residentJobs reads odeproto_jobs_resident by status, leaving out the
// statuses no job is in.
func residentJobs(srv *Server) map[Status]int {
	out := make(map[Status]int)
	for st, g := range srv.met.resident {
		if n := int(g.Value()); n != 0 {
			out[st] = n
		}
	}
	return out
}

// TestStatsJobCountsMatchTheTable: odeproto_jobs_resident{status} holds the
// per-status counts the service keeps as jobs move, and they are what
// walking the table gives — after jobs have been enqueued, picked up,
// finished every way there is, and recovered.
func TestStatsJobCountsMatchTheTable(t *testing.T) {
	dir := t.TempDir()
	walk := func(srv *Server) map[Status]int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		counts := make(map[Status]int)
		for _, job := range srv.jobs {
			counts[job.snapshot(false).Status]++
		}
		return counts
	}
	check := func(srv *Server, want map[Status]int) {
		t.Helper()
		got, err := json.Marshal(residentJobs(srv))
		if err != nil {
			t.Fatal(err)
		}
		walked, _ := json.Marshal(walk(srv))
		wanted, _ := json.Marshal(want)
		if string(got) != string(walked) || string(got) != string(wanted) {
			t.Fatalf("odeproto_jobs_resident = %s, walking the table gives %s, want %s", got, walked, wanted)
		}
	}
	run := func(srv *Server, spec JobSpec) *Job {
		t.Helper()
		job, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-job.wait()
		return job
	}
	seeded := func(seed int64) JobSpec {
		spec := smallSpec()
		spec.Seed = seed
		return spec
	}

	rec := &recordingStore{Store: openFileStore(t, dir)}
	srv1 := New(Config{Workers: 1, QueueDepth: 8, Store: rec})
	run(srv1, seeded(1))
	run(srv1, seeded(1)) // submit-time hit
	rec.failPut = true
	run(srv1, seeded(2))
	rec.failPut = false
	if _, err := srv1.Submit(slowSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := srv1.Submit(seeded(3)); err != nil { // queued behind it: drained at Close
		t.Fatal(err)
	}
	for residentJobs(srv1)[StatusRunning] != 1 {
		time.Sleep(time.Millisecond)
	}
	check(srv1, map[Status]int{StatusDone: 2, StatusFailed: 1, StatusRunning: 1, StatusQueued: 1})
	srv1.Close()
	check(srv1, map[Status]int{StatusDone: 2, StatusFailed: 1, StatusCancelled: 2})
	// One more job, caught mid-run by the "crash".
	if err := rec.Store.Append(store.JobRecord{Op: store.OpRunning, ID: "j000006", StartedAt: 1}); err != nil {
		t.Fatal(err)
	}
	if err := rec.Store.Close(); err != nil {
		t.Fatal(err)
	}

	fst := openFileStore(t, dir)
	defer fst.Close()
	srv2 := New(Config{Workers: 1, QueueDepth: 8, Store: fst})
	defer srv2.Close()
	check(srv2, map[Status]int{StatusDone: 2, StatusFailed: 2, StatusCancelled: 2})
	run(srv2, seeded(1))
	run(srv2, seeded(4))
	check(srv2, map[Status]int{StatusDone: 4, StatusFailed: 2, StatusCancelled: 2})
}
