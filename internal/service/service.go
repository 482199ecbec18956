// Package service exposes the full paper pipeline — parse ODEs, rewrite to
// mappable form (§7), translate to a distributed protocol (§3/§6), and
// simulate at scale (§5) — as a long-running HTTP/JSON service.
//
// Architecture: POST /v1/jobs validates and compiles the request up front,
// then either answers it from a content-addressed result cache or enqueues
// it on a bounded queue feeding a worker pool; workers route execution
// through harness.SweepContext so DELETE /v1/jobs/{id} can abort in-flight
// sweeps at a period boundary. The cache is sound because every engine the
// service offers makes sweep output a pure function of the normalized spec:
// seed derivation, the agent engine's shard count K and the asyncnet mode
// are all part of the cache key, and asyncnet runs on its deterministic
// virtual-time scheduler. The wallclock substrate — real goroutines against
// wall-clock timers, kept in internal/asyncnet as that scheduler's oracle —
// is not offered here (odeproto -async-mode wallclock runs it), so every
// done job has a content address.
//
// Durability is pluggable (internal/store, whose package comment states the
// contract): job lifecycle transitions are journaled to the configured
// Store and completed results are written as content-addressed blobs before
// their job is marked done, so with the file backend a restarted daemon
// recovers its job list, warms the LRU from disk, serves previously
// computed results without re-simulating, and marks jobs the crash caught
// before their result was stored as failed-restartable. An
// identical spec POSTed while its twin is still in flight coalesces onto
// the in-flight job (single-flight deduplication) instead of running a
// second sweep. A job reaches a terminal status in exactly one function,
// conclude (job.go), whichever path ends it.
//
// A recorded row has one in-memory form while its job runs and none after
// it finishes. The sweep's record hook appends the period and the counts
// to a flat, exactly pre-sized slab per run (stream.go) — no per-row
// allocation, no JSON — and live /stream readers render NDJSON from the
// slabs' published prefix on their own goroutines, one write per wake-up.
// At completion the canonical result bytes are produced once, straight
// from the slabs (encode.go), in the form the blob store persists them (a
// gzip member above 4 KiB), and the slabs are dropped. Those bytes, and
// nothing decoded or inflated, back every later response (result.go): gzip
// clients get a member as it is, everything else inflates it per request.
// The content address doubles as a strong ETag, so If-None-Match
// revalidations answer 304 before any result-sized buffer is touched;
// results evicted from the LRU stream from disk through the store's reader
// without whole-blob buffering.
//
// Memory is a function of the flags, not of uptime. The LRU (cache.go) is
// the only owner of result bytes and is bounded by entries and by bytes; a
// terminal job is a row (key, stamps, the spec scalars a status shows; spec
// and compiled protocol go with the sweep, Job.settle) that resolves its
// bytes by key whenever a status, a replay or a figure asks: with the memory
// backend a result lives as long as the LRU holds it, no longer. Terminal
// jobs age out of the table oldest-finished-first beyond Config.RetainJobs
// (retire, job.go): the ID answers 410 Gone, the result stays addressable by
// its key, and the store forgets the job too.
//
// Endpoints:
//
//	POST   /v1/compile             ODE source → taxonomy, actions, expected flow
//	POST   /v1/jobs                enqueue a sweep (or answer it from cache/disk)
//	GET    /v1/jobs                list job statuses by ID, a page at a time (?limit=, ?after=)
//	GET    /v1/jobs/{id}           status + result
//	DELETE /v1/jobs/{id}           cancel a queued or running job
//	GET    /v1/jobs/{id}/stream    NDJSON per-period counts as the run progresses
//	GET    /v1/jobs/{id}/figure.svg  rendered trajectory (internal/plot)
//	GET    /v1/jobs/{id}/trace.svg   lifecycle waterfall (internal/plot)
//	GET    /v1/slo                 burn-rate SLO states + windowed latency quantiles
//	GET    /v1/results/{key}       fetch a persisted result by cache key
//	GET    /v1/healthz             liveness
package service

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"odeproto/internal/obs"
	"odeproto/internal/store"
)

// Config sizes the service.
type Config struct {
	// Workers is the number of jobs simulated concurrently (default 2).
	Workers int
	// QueueDepth bounds the jobs waiting to run (default 64); submissions
	// beyond it are rejected with 429 and a Retry-After derived from the
	// windowed p95 queue wait (admission control).
	QueueDepth int
	// CacheSize bounds the content-addressed result cache, the only holder
	// of result bytes: at most CacheSize results and CacheSize × 256 KiB of
	// them (default 256 results, 64 MiB), least recently used evicted first.
	CacheSize int
	// RetainJobs bounds the terminal jobs the table keeps (default 65 536):
	// beyond it the oldest-finished job ages out — its ID answers 410 Gone,
	// its result stays addressable by cache key, the store forgets it — and
	// recovery restores only the newest RetainJobs. Queued and running jobs
	// are never aged out. Keep it above QueueDepth + Workers: then the
	// highest ID issued is always resident, and the file store's log, which
	// compacts itself as jobs age out, can never lead a restart to issue an
	// ID twice.
	RetainJobs int
	// Limits bound a job's group size and periods; zero fields take the
	// defaults. Its seeds, shards and recorded rows have fixed bounds.
	Limits Limits
	// Store persists job lifecycle records and completed results; nil
	// selects the in-memory (non-durable) backend. The caller owns the
	// store's lifetime and must Close it only after Server.Close returns
	// (shutdown journals the cancellation of still-queued jobs).
	Store store.Store
	// ResumeInterrupted resubmits jobs that recovery found queued or
	// mid-run at crash time (their specs are preserved in the WAL)
	// instead of leaving the retry to the client. The interrupted job
	// still reports failed, with its error naming the resubmission.
	ResumeInterrupted bool
	// JobIDPrefix is prepended to every generated job ID ("n1-" turns
	// j000042 into n1-j000042). A cluster front-end (internal/cluster)
	// gives each node a distinct prefix so any node can route a job ID
	// back to the node that owns the job; standalone daemons leave it
	// empty and keep the historical format. Recovery strips the same
	// prefix when continuing the ID sequence past recovered jobs.
	JobIDPrefix string
	// Metrics is the obs registry every service counter lives in, rendered
	// at GET /metrics. nil gets a private registry (the metrics still
	// exist, just unscraped).
	Metrics *obs.Registry
	// Logger receives the structured serving-path log (submissions,
	// completions with their trace, store faults). nil discards.
	Logger *slog.Logger
	// Node names this daemon in traces and log records (a cluster
	// front-end passes the node's self address; standalone daemons may
	// leave it empty).
	Node string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 65536
	}
	c.Limits.MaxN = cmp.Or(c.Limits.MaxN, defaultLimits.MaxN)
	c.Limits.MaxPeriods = cmp.Or(c.Limits.MaxPeriods, defaultLimits.MaxPeriods)
	if c.Store == nil {
		c.Store = store.NewMemory()
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

// Server is the compile-and-simulate service: job store, bounded queue,
// worker pool, content-addressed result cache, and the durable store
// behind it.
type Server struct {
	cfg   Config
	cache *resultCache
	store store.Store

	mu       sync.Mutex
	jobs     map[string]*Job
	terminal []*Job // terminal jobs, oldest finished first: the ageing queue (retire)
	nextID   int
	inflight map[string]*Job // cache key → non-terminal job, for single-flight dedup

	queue      chan *Job
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	closeOnce  sync.Once
	closed     atomic.Bool

	met     *serviceMetrics
	reg     *obs.Registry
	log     *slog.Logger
	slo     *sloEvaluator
	warmed  int // results loaded from disk into the LRU at startup
	resumed int // interrupted jobs auto-resubmitted at startup
}

var (
	errNotFound = errors.New("job not found")
	// errGone answers an ID this server issued whose job has aged out.
	errGone = errors.New("job aged out of the job table (-retain-jobs); its result is still served by cache key")
)

// New builds a Server, recovers any state the configured store journaled
// before a restart, and starts the worker pool. Call Close to stop it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	met := newServiceMetrics(cfg.Metrics)
	s := &Server{
		cfg:        cfg,
		cache:      newResultCache(cfg.CacheSize, met.cacheHits, met.cacheMisses, met.cacheEvictions),
		store:      cfg.Store,
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),
		queue:      make(chan *Job, cfg.QueueDepth),
		baseCtx:    ctx,
		baseCancel: cancel,
		met:        met,
		reg:        cfg.Metrics,
		log:        cfg.Logger,
	}
	s.slo = newSLOEvaluator(defaultSLOs, met, cfg.Metrics)
	s.registerGauges(cfg.Metrics)
	store.RegisterMetrics(cfg.Metrics, s.store)
	restartable := s.recoverJobs()
	if cfg.ResumeInterrupted {
		s.resumeInterrupted(restartable)
	}
	s.wg.Add(cfg.Workers + 1)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	go s.sloLoop()
	return s
}

// Close cancels every in-flight job, stops the workers, and finishes any
// still-queued jobs as cancelled — leaving a queued job in limbo would
// hold its /stream responses open forever and stall the HTTP server's
// graceful shutdown behind them. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.closed.Store(true) // reject new submissions first
		s.baseCancel()
		s.wg.Wait()
		for {
			select {
			case job := <-s.queue:
				s.conclude(job, StatusQueued, outcome{status: StatusCancelled,
					errMsg: "service shut down before the job started"})
			default:
				return
			}
		}
	})
}

// SweepsExecuted reports how many sweeps actually simulated (cache hits
// do not count) — the run counter the cache tests and the determinism
// acceptance test key on.
func (s *Server) SweepsExecuted() int64 { return s.met.sweeps.Value() }

// Metrics returns the registry the service records into (the one Config
// supplied, or the private default).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// job looks up a job by ID: errGone for an ID this server issued and has
// since aged out, errNotFound for any other stranger.
func (s *Server) job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j, nil
	}
	if n := s.idNumber(id); n > 0 && n <= s.nextID && s.jobID(n) == id {
		return nil, errGone
	}
	return nil, errNotFound
}

// pathJob resolves the {id} of a /v1/jobs/{id}... request, answering 404 or
// 410 itself when there is no such job.
func (s *Server) pathJob(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	job, err := s.job(r.PathValue("id"))
	if err != nil {
		writeError(w, jobErrorStatus(err), err)
		return nil, false
	}
	return job, true
}

// jobErrorStatus maps a job lookup's or a Cancel's error to its HTTP status.
func jobErrorStatus(err error) int {
	switch {
	case errors.Is(err, errNotFound):
		return http.StatusNotFound
	case errors.Is(err, errGone):
		return http.StatusGone
	default:
		return http.StatusConflict // Cancel on a job already terminal
	}
}

// jobID formats the n-th job ID this server issues.
func (s *Server) jobID(n int) string { return fmt.Sprintf("%sj%06d", s.cfg.JobIDPrefix, n) }

// assignID gives job the next ID. Callers hold s.mu.
func (s *Server) assignID(job *Job) {
	s.nextID++
	job.num, job.ID = s.nextID, s.jobID(s.nextID)
}

// Submit validates, compiles, and registers a job. Hits in the LRU or the
// durable result store return an already-done job; an identical spec
// still in flight returns the in-flight twin (single-flight
// deduplication); everything else is enqueued. A full queue returns an
// error that the HTTP layer maps to 429, a submitted record the store refuses
// one it maps to 500.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	return s.submitTraced(spec, "")
}

// submitTraced is Submit with an inherited trace ID (empty or malformed
// IDs mint a fresh one) — the HTTP layer passes the X-Odeproto-Trace
// header through here so a forwarded job keeps the ID the first node
// minted.
func (s *Server) submitTraced(spec JobSpec, traceID string) (*Job, error) {
	if s.closed.Load() {
		return nil, errShuttingDown
	}
	tr := obs.NewTrace(traceID, s.cfg.Node, 5) // queued, compiled, swept, persisted, responded
	created := time.Now()
	tr.Add(obs.StageQueued, created)
	comp, err := spec.normalize(s.cfg.Limits)
	if err != nil {
		return nil, &inputError{err}
	}
	tr.Add(obs.StageCompiled, time.Now())
	key := spec.cacheKey(comp)

	job := &Job{
		Key:     key,
		srv:     s,
		liveJob: &liveJob{spec: spec, comp: comp},
		shown:   spec.shown(),
		status:  StatusQueued,
		created: created,
		trace:   tr,
	}

	if blob, ok := s.resolveResult(key, true); ok {
		job.Key = blob.key // the resolved blob's string, not a copy of the job's own
		job.started = created
		s.met.submitted.Inc()
		s.conclude(job, StatusQueued, outcome{status: StatusDone, cached: true})
		return job, nil
	}

	seeds := make([]int64, spec.Seeds)
	for i := range seeds {
		seeds[i] = spec.seedFor(i)
	}
	job.log = newRowLog(comp.proto.States, seeds)

	// Twin check, registration, and enqueue form one critical section: a
	// coalescing submitter must never be handed a job that a concurrent
	// queue-full withdrawal is about to discard.
	s.mu.Lock()
	if twin, ok := s.inflight[key]; ok {
		// The twin may be a hair past its terminal transition with its
		// inflight entry not yet dropped; coalescing onto a terminal job
		// would hand this submitter a cancelled/failed result it never asked
		// to share. Only live twins coalesce — a dead one is overwritten
		// below (conclude compares pointers, so it cannot remove our claim
		// later).
		twin.mu.Lock()
		live := twin.status == StatusQueued || twin.status == StatusRunning
		twin.mu.Unlock()
		if live {
			s.mu.Unlock()
			s.met.coalesced.Inc()
			s.log.Info("job coalesced onto in-flight twin",
				"trace", tr.ID, "twin", twin.ID, "twin_trace", twin.traceID(), "key", key)
			return twin, nil
		}
	}
	s.assignID(job)
	select {
	case s.queue <- job:
	default:
		// Bounded queue full: the job was never visible, reuse its ID.
		s.nextID--
		s.mu.Unlock()
		return nil, errQueueFull
	}
	s.jobs[job.ID] = job
	s.met.resident[StatusQueued].Add(1)
	s.inflight[key] = job
	s.mu.Unlock()

	// Journal after the enqueue so a full queue leaves no ghost record.
	// The worker's terminal record may land before this one; WAL replay
	// merges by rank, and that record stamps the key too, so even a crash
	// that loses this append leaves the result reachable.
	s.met.submitted.Inc()
	if err := s.journal(store.JobRecord{Op: store.OpSubmitted, ID: job.ID, Key: key,
		Spec: specJSON(&spec), Trace: tr.ID, SubmittedAt: job.created.UnixNano()}, true); err != nil {
		// Not accepted: conclude the job failed, or cancel it if a worker
		// already holds it.
		err = fmt.Errorf("journaling the submission: %w", err)
		if !s.conclude(job, StatusQueued, outcome{status: StatusFailed, errMsg: err.Error()}) {
			job.mu.Lock()
			cancel := job.cancel // nil once the job is terminal
			job.mu.Unlock()
			if cancel != nil {
				cancel()
			}
		}
		return nil, err
	}
	s.log.Info("job queued", "trace", tr.ID, "job", job.ID, "key", key,
		"engine", spec.Engine, "mode", spec.Mode, "n", spec.N, "periods", spec.Periods, "seeds", spec.Seeds)
	// That record was appended in no order with the worker's: if the job has
	// already finished and aged out, the store forgot it before learning of
	// it again here.
	if _, err := s.job(job.ID); err != nil {
		s.forget(job.ID)
	}
	return job, nil
}

var (
	// errQueueFull is admission control: the bounded queue is at
	// capacity, mapped to 429 + Retry-After (retrying can succeed).
	errQueueFull = errors.New("job queue is full")
	// errShuttingDown is terminal for this process, mapped to 503
	// (retrying against this node cannot succeed).
	errShuttingDown = errors.New("service is shutting down")
)

// RouteKey computes the content address Submit would file spec under —
// the same normalize-and-hash pipeline, without enqueueing anything. A
// cluster front-end shards on this key: the routing decision and the
// cache key must be the same hash, or two nodes could each run the same
// sweep. Validation failures come back as the 400-mapped error Submit
// would return.
func (s *Server) RouteKey(spec JobSpec) (string, error) {
	comp, err := spec.normalize(s.cfg.Limits)
	if err != nil {
		return "", &inputError{err}
	}
	return spec.cacheKey(comp), nil
}

// inputError marks validation/compile failures (HTTP 400).
type inputError struct{ err error }

func (e *inputError) Error() string { return e.err.Error() }
func (e *inputError) Unwrap() error { return e.err }

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", s.handleCompile)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/jobs/{id}/figure.svg", s.handleFigure)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/trace.svg", s.handleTraceSVG)
	mux.HandleFunc("GET /v1/slo", s.handleSLO)
	mux.HandleFunc("GET /v1/results/{key}", s.handleResult)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// marshalNoEscape is json.Marshal without HTML escaping (ODE sources
// contain '<' and '>'), the encoding every JSON response body uses. The
// Encoder's trailing newline is stripped; writeJSON re-appends it.
func marshalNoEscape(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	return b[:len(b)-1], nil
}

// writeJSON buffers the encoded body so every JSON response carries an
// exact Content-Length instead of falling into chunked transfer encoding
// (the newline terminator matches the historical Encoder framing).
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := marshalNoEscape(v)
	writeBody(w, status, data, err)
}

// writeBody sends an encoded JSON body (or a bare 500 if encoding failed).
func writeBody(w http.ResponseWriter, status int, data []byte, err error) {
	w.Header().Set("Content-Type", "application/json")
	if err != nil {
		// Nothing body-safe to send: the value failed to encode.
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	data = append(data, '\n')
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(status)
	_, _ = w.Write(data)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req CompileRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	comp, err := compilePipeline(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, compileResponse(req, comp))
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := decodeBody(r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.submitTraced(spec, r.Header.Get(obs.TraceHeader))
	switch {
	case err == nil:
	case errors.Is(err, errShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, errQueueFull):
		// Admission control: tell the client when a retry has a chance —
		// the windowed p95 queue wait is how long jobs currently take to
		// reach a worker, so retrying sooner meets the same full queue.
		s.met.rejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.slo.retryAfterSeconds(time.Now())))
		writeError(w, http.StatusTooManyRequests, err)
		return
	default:
		var ie *inputError
		if errors.As(err, &ie) {
			writeError(w, http.StatusBadRequest, err)
		} else {
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	st := job.Snapshot(false)
	if st.Trace != "" {
		w.Header().Set(obs.TraceHeader, st.Trace)
	}
	// 200 only for an answer from the cache. A job whose sweep this request
	// enqueued is 202 even if a worker has finished it before the snapshot
	// above — how fast the sweep ran must not change the code a submit gets.
	status := http.StatusAccepted
	if st.Status == StatusDone && st.Cached {
		status = http.StatusOK
	}
	writeJSON(w, status, st)
}

// listLimit is the default and the largest page of GET /v1/jobs.
const listLimit = 1000

// before orders jobs for the listing: by the number in the ID, so j1000000
// follows j999999, then by the ID itself (IDs recovered under another
// node's prefix all carry number 0).
func before(aNum int, aID string, bNum int, bID string) bool {
	if aNum != bNum {
		return aNum < bNum
	}
	return aID < bID
}

// handleList serves one page of the job table in ID order: up to ?limit=
// jobs (default and at most 1000) after the ID in ?after=, with a Link
// rel="next" header when more remain. The page is selected in one walk of
// the table that keeps the limit+1 smallest IDs seen — nothing the size of
// the table is copied or sorted — and snapshotted outside the table's lock.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := listLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q: want an integer from 1 to %d", v, listLimit))
			return
		}
		limit = min(n, listLimit)
	}
	after := q.Get("after")
	afterNum := s.idNumber(after)

	page := make([]*Job, 0, limit+2)
	s.mu.Lock()
	for _, j := range s.jobs {
		if after != "" && !before(afterNum, after, j.num, j.ID) {
			continue
		}
		if len(page) > limit && !before(j.num, j.ID, page[limit].num, page[limit].ID) {
			continue
		}
		at := sort.Search(len(page), func(i int) bool { return before(j.num, j.ID, page[i].num, page[i].ID) })
		page = append(page, nil)
		copy(page[at+1:], page[at:])
		page[at] = j
		page = page[:min(len(page), limit+1)]
	}
	s.mu.Unlock()

	if len(page) > limit {
		page = page[:limit]
		q.Set("limit", strconv.Itoa(limit))
		q.Set("after", page[limit-1].ID)
		w.Header().Set("Link", fmt.Sprintf(`<%s?%s>; rel="next"`, r.URL.Path, q.Encode()))
	}
	out := make([]JobStatus, len(page))
	for i, j := range page {
		out[i] = j.snapshot(false)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.pathJob(w, r)
	if !ok {
		return
	}
	st := job.snapshot(true)
	data, err := marshalNoEscape(st)
	if err == nil && st.result != nil {
		// The envelope is reopened and the canonical bytes copied in as its
		// last field: no decode, marshal or json.RawMessage re-validation.
		err = st.result.canonical(func(raw []byte) error {
			s.met.encodesSaved.Inc()
			s.met.bytesServed.Add(int64(len(raw)))
			data = append(append(append(data[:len(data)-1], `,"result":`...), raw...), '}')
			return nil
		})
	}
	writeBody(w, http.StatusOK, data, err)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, jobErrorStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}
