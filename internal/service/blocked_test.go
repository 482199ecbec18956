package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odeproto/internal/store"
)

// hangDeadline bounds every wait of TestNoLockHeldAcrossABlockedCall. Only a
// hang reaches it: a passing run waits on events, never on a clock.
const hangDeadline = 10 * time.Second

// gateStore wraps a Store. A gate, set on a method and a key, parks every
// call of that method naming the key, or the ID of a job journaled under it —
// Append, AppendUnsynced, PutResult, OpenResult or Forget — until the gate
// opens; each parked call is announced on parked as "method key". Every other
// call passes through.
type gateStore struct {
	store.Store
	parked chan string

	mu    sync.Mutex
	gates map[string]chan struct{} // by "method key"; dropped once open
	keys  map[string]string        // job ID → the key its records name
	first map[string]string        // key → the first job journaled under it
}

func newGateStore() *gateStore {
	return &gateStore{Store: store.NewMemory(), parked: make(chan string, 64),
		gates: map[string]chan struct{}{}, keys: map[string]string{}, first: map[string]string{}}
}

func (g *gateStore) set(method, key string) {
	g.mu.Lock()
	g.gates[method+" "+key] = make(chan struct{})
	g.mu.Unlock()
}

// open lets the calls parked at gate name through, and every later one; ""
// opens every gate.
func (g *gateStore) open(name string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for n, gate := range g.gates {
		if name == "" || n == name {
			close(gate)
			delete(g.gates, n)
		}
	}
}

// jobID is the first job journaled under key.
func (g *gateStore) jobID(key string) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.first[key]
}

func (g *gateStore) gate(method, key, id string) {
	g.mu.Lock()
	if key != "" && id != "" && g.keys[id] == "" {
		g.keys[id] = key
		if g.first[key] == "" {
			g.first[key] = id
		}
	}
	if key == "" {
		key = g.keys[id]
	}
	gate := g.gates[method+" "+key]
	g.mu.Unlock()
	if gate != nil {
		g.parked <- method + " " + key
		<-gate
	}
}

func (g *gateStore) Append(rec store.JobRecord) error {
	g.gate("Append", rec.Key, rec.ID)
	return g.Store.Append(rec)
}

func (g *gateStore) AppendUnsynced(rec store.JobRecord) error {
	g.gate("AppendUnsynced", rec.Key, rec.ID)
	return g.Store.AppendUnsynced(rec)
}

func (g *gateStore) PutResult(key string, data []byte) error {
	g.gate("PutResult", key, "")
	return g.Store.PutResult(key, data)
}

func (g *gateStore) OpenResult(key string) (store.Blob, int64, error) {
	g.gate("OpenResult", key, "")
	return g.Store.OpenResult(key)
}

func (g *gateStore) Forget(id string) error {
	g.gate("Forget", "", id)
	return g.Store.Forget(id)
}

// awaitParked waits for the next parked call and checks it is the one at
// gate name.
func (g *gateStore) awaitParked(t *testing.T, name string) {
	t.Helper()
	select {
	case got := <-g.parked:
		if got != name {
			t.Fatalf("%.20s… parked, want %.20s…", got, name)
		}
	case <-time.After(hangDeadline):
		t.Fatalf("no call parked at %.20s… within %v", name, hangDeadline)
	}
}

// stalledWriter is the ResponseWriter of a client that has stopped reading:
// its first Write closes blocked, and every Write waits for release.
type stalledWriter struct {
	header  http.Header
	blocked chan struct{}
	release chan struct{}
	once    sync.Once
	out     bytes.Buffer // read only once the handler has returned
}

func newStalledWriter(release chan struct{}) *stalledWriter {
	return &stalledWriter{header: make(http.Header), blocked: make(chan struct{}), release: release}
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Flush()              {}

func (w *stalledWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.blocked) })
	<-w.release
	return w.out.Write(p)
}

// within runs fn and reports whether it returned before the hang deadline;
// if not, or if fn returns an error, the test fails naming what.
func within(t *testing.T, what string, fn func() error) bool {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("%s: %v", what, err)
		}
		return err == nil
	case <-time.After(hangDeadline):
		t.Errorf("%s: still blocked after %v — a lock is held across a parked call", what, hangDeadline)
		return false
	}
}

// request makes one request, bounded by ctx, and returns the status code and
// the body.
func request(ctx context.Context, method, url string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// expect makes one request and fails unless it answers one of codes.
func expect(ctx context.Context, method, url string, body any, codes ...int) ([]byte, error) {
	code, data, err := request(ctx, method, url, body)
	if err == nil && !slices.Contains(codes, code) {
		err = fmt.Errorf("answered %d %s, want %v", code, data, codes)
	}
	return data, err
}

// gated is one server under the gate, with the jobs the probes aim at.
type gated struct {
	srv      *Server
	base     string
	g        *gateStore
	resident JobSpec  // a spec whose result the LRU holds
	running  []string // jobs holding the workers
	seeds    atomic.Int64
}

// bootGated starts a server over g with a queue of three, runs first and a
// resident spec to done, then holds blockers workers: each runs a job whose
// PutResult parks at its gate, running until the gates open. Its shutdown is
// bounded too: a held lock must fail the test, not hang it.
func bootGated(t *testing.T, g *gateStore, retain, workers, blockers int, first ...JobSpec) *gated {
	t.Helper()
	e := &gated{srv: New(Config{Workers: workers, QueueDepth: 3, RetainJobs: retain, Store: g}), g: g, resident: smallSpec()}
	e.resident.Seed = 12
	e.seeds.Store(1000)
	ts := httptest.NewServer(e.srv.Handler())
	e.base = ts.URL
	t.Cleanup(func() {
		within(t, "shutdown", func() error {
			e.srv.Close()
			ts.Close()
			return nil
		})
	})
	t.Cleanup(func() { g.open("") }) // before the shutdown
	for _, spec := range append(first, e.resident) {
		e.settle(t, e.submit(t, spec, http.StatusAccepted))
	}
	for range blockers {
		e.hold(t)
	}
	return e
}

// hold runs a fresh job on a free worker and parks its PutResult, returning
// the gate's name.
func (e *gated) hold(t *testing.T) string {
	t.Helper()
	spec := smallSpec()
	spec.Seed = e.seeds.Add(1)
	_, key := normalizeOrFatal(t, spec)
	e.g.set("PutResult", key)
	e.running = append(e.running, e.submit(t, spec, http.StatusAccepted))
	e.g.awaitParked(t, "PutResult "+key)
	return "PutResult " + key
}

func (e *gated) submit(t *testing.T, spec JobSpec, want int) string {
	t.Helper()
	resp, data := doJSON(t, http.MethodPost, e.base+"/v1/jobs", spec)
	if resp.StatusCode != want {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	return decodeStatus(t, data).ID
}

// settle waits until conclude is through with job id.
func (e *gated) settle(t *testing.T, id string) JobStatus {
	t.Helper()
	job, err := e.srv.job(id)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.wait():
	case <-time.After(hangDeadline):
		t.Fatalf("job %s did not end within %v", id, hangDeadline)
	}
	return job.Snapshot(false)
}

// drive sends one request in the background; the returned wait reports its
// answer once the gate is released.
func (e *gated) drive(t *testing.T, method, path string, body any, codes ...int) (wait func()) {
	done := make(chan error, 1)
	go func() {
		_, err := expect(t.Context(), method, e.base+path, body, codes...)
		done <- err
	}()
	return func() {
		t.Helper()
		within(t, method+" "+path+" after the release", func() error { return <-done })
	}
}

// probe runs the probe set at once, each request under its own hang
// deadline, on keys other than the parked one: the listing; the status of a
// running job and of k (skipped if empty); a running job's stream; a POST
// the LRU answers (200) and a fresh one (202); a DELETE of a queued job; a
// resident result; /metrics, /v1/slo, /v1/healthz and a compile; and, with
// the queue full, a POST answered 429.
func (e *gated) probe(t *testing.T, k string) {
	t.Helper()
	_, key := normalizeOrFatal(t, e.resident)
	fresh := func() JobSpec {
		spec := smallSpec()
		spec.Seed = e.seeds.Add(1)
		return spec
	}
	get := func(path string, codes ...int) func(context.Context) error {
		return func(ctx context.Context) error {
			_, err := expect(ctx, http.MethodGet, e.base+path, nil, codes...)
			return err
		}
	}
	running := e.running[0]
	type probe struct {
		name string
		run  func(context.Context) error
	}
	probes := []probe{
		{"list", get("/v1/jobs", http.StatusOK)},
		{"status of a running job", get("/v1/jobs/"+running, http.StatusOK)},
		{"stream of a running job", func(ctx context.Context) error {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+"/v1/jobs/"+running+"/stream", nil)
			if err != nil {
				return err
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			_, err = bufio.NewReader(resp.Body).ReadBytes('\n')
			return err
		}},
		{"POST of a resident spec", func(ctx context.Context) error {
			_, err := expect(ctx, http.MethodPost, e.base+"/v1/jobs", e.resident, http.StatusOK)
			return err
		}},
		{"resident result", get("/v1/results/"+key, http.StatusOK)},
		{"metrics", get("/metrics", http.StatusOK)},
		{"slo", get("/v1/slo", http.StatusOK)},
		{"healthz", get("/v1/healthz", http.StatusOK)},
		{"compile", func(ctx context.Context) error {
			_, err := expect(ctx, http.MethodPost, e.base+"/v1/compile", CompileRequest{Source: epidemicSource}, http.StatusOK)
			return err
		}},
		{"POST fresh, DELETE it queued, fill the queue to a 429", func(ctx context.Context) error {
			data, err := expect(ctx, http.MethodPost, e.base+"/v1/jobs", fresh(), http.StatusAccepted)
			if err != nil {
				return err
			}
			var st JobStatus
			if err := json.Unmarshal(data, &st); err != nil {
				return err
			}
			if _, err := expect(ctx, http.MethodDelete, e.base+"/v1/jobs/"+st.ID, nil, http.StatusOK); err != nil {
				return err
			}
			for range e.srv.cfg.QueueDepth + 1 {
				code, data, err := request(ctx, http.MethodPost, e.base+"/v1/jobs", fresh())
				switch {
				case err != nil:
					return err
				case code == http.StatusTooManyRequests:
					return nil
				case code != http.StatusAccepted:
					return fmt.Errorf("filling the queue: %d %s", code, data)
				}
			}
			return fmt.Errorf("%d POSTs into a queue of %d, none answered 429", e.srv.cfg.QueueDepth+1, e.srv.cfg.QueueDepth)
		}},
	}
	if k != "" {
		probes = append(probes, probe{"status of the parked key's job", get("/v1/jobs/"+k, http.StatusOK, http.StatusGone)})
	}
	var wg sync.WaitGroup
	for _, p := range probes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), hangDeadline)
			defer cancel()
			if err := p.run(ctx); ctx.Err() != nil {
				t.Errorf("probe %q: still blocked after %v — a lock is held across a parked call", p.name, hangDeadline)
			} else if err != nil {
				t.Errorf("probe %q: %v", p.name, err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow() // a lock may still be held: what follows could hang
	}
}

// finish cancels every job still queued or running and waits until each in
// the table has ended.
func (e *gated) finish(t *testing.T) {
	t.Helper()
	within(t, "finishing every job", func() error {
		e.srv.mu.Lock()
		jobs := make([]*Job, 0, len(e.srv.jobs))
		for _, job := range e.srv.jobs {
			jobs = append(jobs, job)
		}
		e.srv.mu.Unlock()
		for _, job := range jobs {
			_, _ = e.srv.Cancel(job.ID) // an error is a job already terminal
		}
		for _, job := range jobs {
			<-job.wait()
			if st := job.Snapshot(false).Status; st == StatusQueued || st == StatusRunning {
				return fmt.Errorf("job %s is %s after conclude", job.ID, st)
			}
		}
		return nil
	})
}

// TestNoLockHeldAcrossABlockedCall: one slow store call or one slow client
// stalls only its own job. For each store call that can name a key K — the
// POST's submit-time disk check and a done job's status past the LRU
// (OpenResult), the submitted record (Append), the worker's blob (PutResult)
// and done record (AppendUnsynced), a cancelled job's terminal record
// (Append) and a forget as K's job ages out (Forget) — a request or a worker
// reaches it and parks there, and the probe set on other keys still answers.
// Then a stream reader and a result GET whose clients stop reading block in
// Write, while a running job publishes every row and concludes and the probe
// set answers. Every gate is then released: each parked request completes
// and every job ends. No wait here is a timing bound but the hang deadline.
// (The cluster router's half is TestRouterServesWhileAForwardHangs.)
func TestNoLockHeldAcrossABlockedCall(t *testing.T) {
	k := smallSpec()
	k.Seed = 11
	_, kKey := normalizeOrFatal(t, k)
	// A failing case may leave a lock held for good: the cases after it
	// would only hang on it, so they are skipped.
	run := func(name string, f func(t *testing.T)) {
		if !t.Failed() {
			t.Run(name, f)
		}
	}

	run("OpenResult at submit", func(t *testing.T) {
		g := newGateStore()
		e := bootGated(t, g, 0, 2, 2)
		g.set("OpenResult", kKey)
		// Released, it finds no blob and meets the queue the probes filled,
		// which the released workers may have begun to drain.
		post := e.drive(t, http.MethodPost, "/v1/jobs", k, http.StatusAccepted, http.StatusTooManyRequests)
		g.awaitParked(t, "OpenResult "+kKey)
		e.probe(t, "")
		g.open("")
		post()
		e.finish(t)
	})
	run("OpenResult of a done job's status", func(t *testing.T) {
		g := newGateStore()
		e := bootGated(t, g, 0, 2, 2, k)
		dropFromCache(e.srv, kKey)
		g.set("OpenResult", kKey)
		status := e.drive(t, http.MethodGet, "/v1/jobs/"+g.jobID(kKey), nil, http.StatusOK)
		g.awaitParked(t, "OpenResult "+kKey)
		e.probe(t, "") // K's status would park at the gate too
		g.open("")
		status()
		e.finish(t)
	})
	run("Append submitted", func(t *testing.T) {
		g := newGateStore()
		e := bootGated(t, g, 0, 2, 2)
		g.set("Append", kKey)
		post := e.drive(t, http.MethodPost, "/v1/jobs", k, http.StatusAccepted)
		g.awaitParked(t, "Append "+kKey)
		e.probe(t, g.jobID(kKey))
		g.open("")
		post()
		e.finish(t)
	})
	for _, method := range []string{"PutResult", "AppendUnsynced"} {
		run(method, func(t *testing.T) {
			g := newGateStore()
			e := bootGated(t, g, 0, 2, 1)
			g.set(method, kKey)
			id := e.submit(t, k, http.StatusAccepted)
			g.awaitParked(t, method+" "+kKey)
			e.probe(t, id)
			g.open("")
			if st := e.settle(t, id); st.Status != StatusDone {
				t.Errorf("K's job ended %s (%q)", st.Status, st.Error)
			}
			e.finish(t)
		})
	}
	run("Append cancelled", func(t *testing.T) {
		g := newGateStore()
		e := bootGated(t, g, 0, 2, 2)
		id := e.submit(t, k, http.StatusAccepted)
		g.set("Append", kKey)
		cancel := e.drive(t, http.MethodDelete, "/v1/jobs/"+id, nil, http.StatusOK)
		g.awaitParked(t, "Append "+kKey)
		e.probe(t, id)
		g.open("")
		cancel()
		e.finish(t)
	})
	run("Forget", func(t *testing.T) {
		// Two terminal jobs fit, K's and the resident one: the next to end
		// ages K's out, and the store is told to forget it.
		g := newGateStore()
		e := bootGated(t, g, 2, 2, 2, k)
		g.set("Forget", kKey)
		post := e.drive(t, http.MethodPost, "/v1/jobs", e.resident, http.StatusOK)
		g.awaitParked(t, "Forget "+kKey)
		e.probe(t, g.jobID(kKey))
		g.open("")
		post()
		e.finish(t)
	})

	run("stalled clients", func(t *testing.T) {
		// One worker: the job the reader follows, R, waits in the queue
		// behind a held one while the reader attaches. Then R runs, records
		// every row and parks at its PutResult, still running, while the
		// reader is blocked in Write.
		g := newGateStore()
		e := bootGated(t, g, 0, 1, 0)
		held := e.hold(t)
		r := smallSpec()
		r.Seed = 13
		_, rKey := normalizeOrFatal(t, r)
		g.set("PutResult", rKey)
		rID := e.submit(t, r, http.StatusAccepted)
		rJob, err := e.srv.job(rID)
		if err != nil {
			t.Fatal(err)
		}
		release := make(chan struct{})
		unstall := sync.OnceFunc(func() { close(release) })
		defer unstall()
		serve := func(w *stalledWriter, path string) chan struct{} {
			done := make(chan struct{})
			go func() {
				defer close(done)
				e.srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
			}()
			return done
		}
		stream, result := newStalledWriter(release), newStalledWriter(release)
		streamDone := serve(stream, "/v1/jobs/"+rID+"/stream")
		parkedReaders(t, rJob, 1)
		_, key := normalizeOrFatal(t, e.resident)
		resultDone := serve(result, "/v1/results/"+key)
		within(t, "the result GET reaching Write", func() error { <-result.blocked; return nil })

		g.open(held)
		g.awaitParked(t, "PutResult "+rKey)
		within(t, "the stream reaching Write", func() error { <-stream.blocked; return nil })
		e.running = []string{rID}
		e.probe(t, rID)
		g.open("")
		if !within(t, "the followed job concluding", func() error { <-rJob.wait(); return nil }) {
			return
		}

		unstall()
		within(t, "the stalled stream finishing", func() error { <-streamDone; return nil })
		within(t, "the stalled result GET finishing", func() error { <-resultDone; return nil })
		lines := bytes.SplitAfter(stream.out.Bytes(), []byte("\n"))
		checkStream(t, lines[:len(lines)-1], 1, e.settle(t, rID).Rows, StatusDone)
		if _, want := doJSON(t, http.MethodGet, e.base+"/v1/results/"+key, nil); !bytes.Equal(result.out.Bytes(), want) {
			t.Errorf("the stalled result GET wrote %d bytes, want the %d of the result", result.out.Len(), len(want))
		}
		e.finish(t)
	})
}
