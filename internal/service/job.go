package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"odeproto/internal/asyncnet"
	"odeproto/internal/harness"
	"odeproto/internal/obs"
	"odeproto/internal/ode"
	"odeproto/internal/sim"
	"odeproto/internal/store"
)

// Status enumerates a job's lifecycle states.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// PeriodRow is one recorded observation: the per-state counts (aligned
// with JobResult.States) at the end of period Period.
type PeriodRow struct {
	Period int   `json:"period"`
	Counts []int `json:"counts"`
}

// RunResult is the full trajectory of one seed's run.
type RunResult struct {
	Seed int64 `json:"seed"`
	// Killed is the total process count crash-stopped by the job's
	// kill/kill-fraction events.
	Killed int `json:"killed"`
	// Rows are the recorded per-period counts, every RecordEvery periods
	// plus the final period.
	Rows []PeriodRow `json:"rows"`
}

// JobResult is the deterministic output of a job: one RunResult per seed,
// in seed order. Identical specs produce byte-identical JobResults (for
// the deterministic engines), which is what makes the result cache sound.
type JobResult struct {
	States []string    `json:"states"`
	Runs   []RunResult `json:"runs"`
}

// Job is one submitted sweep, in two lifetimes: the fields declared here are
// the row a status renders while the job is in the table; what only a queued
// or running job needs is the embedded liveJob, which settle drops whole. It
// owns no result bytes: each read resolves Key, in the LRU and then the store.
type Job struct {
	ID  string
	Key string

	// srv resolves Key; num is the number in ID (0 under a foreign prefix),
	// the listing order. Both are fixed before the job is visible.
	srv *Server
	num int

	mu sync.Mutex
	*liveJob
	shown    specShown
	status   Status
	errMsg   string
	cached   bool
	created  time.Time
	started  time.Time
	finished time.Time

	// trace is the job's lifecycle trail (internally synchronized; nil
	// only for jobs recovered from WAL records that predate tracing).
	trace *obs.Trace

	rows int // recorded rows of a terminal job (settle)
	// done exists once something waits on the job (the tests do); conclude
	// closes it, or shares released when nobody waits.
	done chan struct{}
}

// released is the done channel of every job concluded before anyone waited.
var released = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// liveJob is what a job holds only until it is terminal: the full spec, the
// compiled protocol (otherwise the compile memo's alone), the rows recorded
// so far — jobs born terminal never have a log — and the sweep's cancel.
type liveJob struct {
	spec   JobSpec
	comp   *compiled
	log    *rowLog
	cancel context.CancelFunc
}

// concluded is the live part of every terminal job: nothing, shared and never
// written. A late reader of job.log or job.cancel finds nil, not a panic.
var concluded = new(liveJob)

// specShown is what a status renders of a job's spec, all a terminal job keeps
// of it. Mode is the asyncnet mode ("virtual"), empty for the other engines.
type specShown struct {
	Engine  string `json:"engine"`
	Mode    string `json:"mode,omitempty"`
	N       int    `json:"n"`
	Periods int    `json:"periods"`
	Seeds   int    `json:"seeds"`
	Shards  int    `json:"shards,omitempty"`
}

func (s *JobSpec) shown() specShown {
	return specShown{Engine: s.Engine, Mode: s.Mode, N: s.N, Periods: s.Periods, Seeds: s.Seeds, Shards: s.Shards}
}

// settle fixes a terminal job's row count — the recording rule's for a done
// job (whichever sweep produced the result), what the sweep had recorded for
// a cancelled or failed one — and drops the live part in one assignment, so
// no field added to it later can outlive the sweep. Callers hold j.mu.
func (j *Job) settle() {
	switch {
	case j.status == StatusDone:
		j.rows = j.spec.recordedRows()
	case j.log != nil:
		j.rows = j.log.rows()
	}
	j.liveJob = concluded
}

// traceID returns the job's trace ID, or "" for pre-trace recovered jobs.
func (j *Job) traceID() string {
	if j.trace == nil {
		return ""
	}
	return j.trace.ID
}

// traceAdd records a lifecycle stage, if the job carries a trace.
func (j *Job) traceAdd(stage string) {
	if j.trace != nil {
		j.trace.Add(stage, time.Now())
	}
}

// JobStatus is the wire form of GET /v1/jobs/{id} (and each element of
// GET /v1/jobs).
type JobStatus struct {
	ID       string `json:"id"`
	Status   Status `json:"status"`
	Error    string `json:"error,omitempty"`
	CacheKey string `json:"cache_key"`
	// Cached reports that the result was served from the content-addressed
	// cache without running a sweep.
	Cached bool `json:"cached"`
	specShown
	Rows     int        `json:"rows"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Result   *JobResult `json:"result,omitempty"`
	// Trace is the job's trace ID (X-Odeproto-Trace); empty only for
	// jobs recovered from WAL records written before tracing existed.
	Trace string `json:"trace,omitempty"`

	// result is a done job's blob, which GET /v1/jobs/{id} splices in verbatim
	// (handleGet); no HTTP path sets Result, decoded only by Job.Snapshot.
	result *resultBlob
}

// statusLocked assembles the wire status; callers hold j.mu. Rows is the
// recorded row count: the log's while one exists, the settled one after.
func (j *Job) statusLocked() JobStatus {
	rows := j.rows
	if j.log != nil {
		rows = j.log.rows()
	}
	st := JobStatus{
		ID:        j.ID,
		Status:    j.status,
		Error:     j.errMsg,
		CacheKey:  j.Key,
		Cached:    j.cached,
		specShown: j.shown,
		Rows:      rows,
		Created:   j.created,
		Trace:     j.traceID(),
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// snapshot returns the job's current wire status. With includeResult a done
// job's blob rides along, resolved by key outside the job's lock
// (the fall-through may read the disk). A done job whose bytes nothing
// holds any more — the memory backend past the LRU, a blob deleted from the
// data dir — reports its status without them.
func (j *Job) snapshot(includeResult bool) JobStatus {
	j.mu.Lock()
	st := j.statusLocked()
	j.mu.Unlock()
	if includeResult && st.Status == StatusDone {
		st.result, _ = j.srv.resolveResult(j.Key, false)
	}
	return st
}

// Snapshot returns the job's current wire status for in-process callers:
// with includeResult, Result is decoded from the canonical bytes on each
// call (nothing decoded is kept; the HTTP handlers never come here).
func (j *Job) Snapshot(includeResult bool) JobStatus {
	st := j.snapshot(includeResult)
	if st.result != nil {
		st.Result, _ = st.result.decode() // nil on bytes that are not a result
	}
	return st
}

// decode rebuilds the struct form of the result, for the callers that want
// to index it: Snapshot and the figure.
func (b *resultBlob) decode() (*JobResult, error) {
	res := new(JobResult)
	if err := b.canonical(func(data []byte) error { return json.Unmarshal(data, res) }); err != nil {
		return nil, err
	}
	return res, nil
}

// outcome is how a job ends: its terminal status, with the fresh result of
// a done job or the error of a failed or cancelled one. cached marks a done
// job answered by a result already in the cache or the store — durable
// before this job asked, so there is no blob to persist.
type outcome struct {
	status Status
	blob   *resultBlob
	errMsg string
	cached bool
}

// conclude is the only place a job becomes terminal. It moves job from the
// non-terminal status from to out, and reports false, having changed
// nothing, when the job had already left from: a queued job is contended by
// Cancel, a worker's pickup and Close's drain, and exactly one of them wins.
//
// The order is the durability contract: two commit points per job, stated in
// internal/store's package comment. A fresh result is persisted (fsync'd and
// renamed, for the file backend) before anything calls the job done, so the
// WAL never claims a result the disk does not hold; a result that cannot be
// stored fails the job rather than silently losing the crash-recovery
// guarantee. The blob goes to the LRU, its only owner; the job keeps the
// key. Then the state is set with one reading of the clock and the job's
// live part is dropped (settle), the job table's count moves and the
// single-flight claim goes, the row log is closed — attached readers drain it
// and emit the terminal row — the one terminal record is journaled with the
// pickup instant and the finished instant just served — synced, unless it is
// the done record of an accepted job, which the blob already proves — the job
// joins the ageing queue (retire), waiters on done are released to a journal
// and a table that have caught up, and the trace, the metrics and the log
// line follow.
func (s *Server) conclude(job *Job, from Status, out outcome) bool {
	if out.status == StatusDone && !out.cached {
		if err := s.store.PutResult(job.Key, out.blob.stored); err != nil {
			out = outcome{status: StatusFailed, errMsg: fmt.Sprintf("persisting result: %v", err)}
		} else {
			s.cache.put(out.blob)
			job.traceAdd(obs.StagePersisted)
		}
	}

	job.mu.Lock()
	if job.status != from {
		job.mu.Unlock()
		return false
	}
	started, finished := job.started, time.Now()
	job.status, job.errMsg, job.cached = out.status, out.errMsg, out.cached
	job.finished = finished
	live := job.liveJob
	job.settle()
	job.mu.Unlock()

	// A submit-time hit arrives unregistered and enters the table already
	// done; every other job moves its count.
	born := job.ID == ""
	s.mu.Lock()
	if born {
		s.assignID(job)
		s.jobs[job.ID] = job
	} else {
		s.met.resident[from].Add(-1)
	}
	s.met.resident[out.status].Add(1)
	if s.inflight[job.Key] == job {
		delete(s.inflight, job.Key)
	}
	s.mu.Unlock()
	if live.log != nil {
		live.log.wake(true)
	}

	rec := store.JobRecord{ID: job.ID, Key: job.Key, Trace: job.traceID(), Error: out.errMsg, Cached: out.cached,
		FinishedAt: finished.UnixNano()}
	switch out.status {
	case StatusDone:
		rec.Op = store.OpDone
	case StatusFailed:
		rec.Op = store.OpFailed
	case StatusCancelled:
		rec.Op = store.OpAborted
	}
	if born {
		// One snapshot-style record, not a submitted/done pair: it is all
		// the journal holds of this job.
		rec.Spec, rec.SubmittedAt = specJSON(&live.spec), job.created.UnixNano()
	} else if !started.IsZero() {
		rec.StartedAt = started.UnixNano()
	}
	_ = s.journal(rec, born || out.status != StatusDone) // counted and logged; the job stays concluded
	s.retire(job)
	job.mu.Lock()
	if job.done != nil {
		close(job.done)
	}
	job.done = released
	job.mu.Unlock()
	job.traceAdd(obs.StageResponded)
	s.logCompletion(job)
	return true
}

// retire queues a terminal job for ageing out and ages out the
// oldest-finished jobs beyond Config.RetainJobs, telling the store to forget
// each. A job is queued only after its terminal record is journaled, so the
// store forgets it after the worker's last record of it; Submit covers its
// own, unordered, record.
func (s *Server) retire(job *Job) {
	s.mu.Lock()
	s.terminal = append(s.terminal, job)
	s.mu.Unlock()
	for old := s.ageOut(); old != nil; old = s.ageOut() {
		s.forget(old.ID)
		s.met.agedOut.Inc()
	}
}

// ageOut takes the oldest-finished job out of the table if it holds more
// than Config.RetainJobs terminal ones: from then on the ID answers 410,
// and the result stays addressable by its key.
func (s *Server) ageOut() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.terminal) <= s.cfg.RetainJobs {
		return nil
	}
	old := s.terminal[0]
	s.terminal[0] = nil
	s.terminal = s.terminal[1:]
	delete(s.jobs, old.ID)
	s.met.resident[old.status].Add(-1) // a terminal status never changes
	return old
}

// initialCounts resolves the spec's initial populations against the
// protocol states: explicit counts, or a uniform split with the remainder
// on the first state.
func initialCounts(spec *JobSpec, states []ode.Var) map[ode.Var]int {
	counts := make(map[ode.Var]int, len(states))
	if len(spec.Initial) == 0 {
		per := spec.N / len(states)
		rem := spec.N - per*len(states)
		for i, s := range states {
			counts[s] = per
			if i == 0 {
				counts[s] += rem
			}
		}
		return counts
	}
	for k, v := range spec.Initial {
		counts[ode.Var(k)] = v
	}
	return counts
}

// buildSweep compiles the job's spec into harness jobs whose hooks record
// into log. The recording rule — counts after the Step of every period t
// with t % RecordEvery == 0, plus the final period — is part of the
// service's public contract (the end-to-end tests reproduce it against a
// direct harness.Sweep run); JobSpec.rowsPerRun counts what it yields.
func buildSweep(spec *JobSpec, comp *compiled, log *rowLog) ([]harness.Job, error) {
	states := comp.proto.States
	counts := initialCounts(spec, states)

	events := make([]harness.Event, len(spec.Events))
	for i, e := range spec.Events {
		p, err := e.perturbation()
		if err != nil {
			return nil, err
		}
		events[i] = harness.Event{At: e.At, P: p}
	}

	log.reserve(spec.rowsPerRun())
	jobs := make([]harness.Job, spec.Seeds)
	for i := range jobs {
		seed := log.seeds[i]

		var newRunner func(seed int64) (harness.Runner, error)
		switch spec.Engine {
		case EngineAgent:
			cfg := sim.Config{
				N: spec.N, Protocol: comp.proto, Initial: counts,
				Shards: spec.Shards,
			}
			newRunner = func(seed int64) (harness.Runner, error) {
				cfg.Seed = seed
				return harness.NewAgent(cfg)
			}
		case EngineAggregate:
			newRunner = func(seed int64) (harness.Runner, error) {
				return harness.NewAggregate(comp.proto, counts, seed, 0)
			}
		case EngineAsyncnet:
			cfg := asyncnet.Config{
				N: spec.N, Protocol: comp.proto, Initial: counts,
				Mode: asyncnet.Mode(spec.Mode),
			}
			newRunner = func(seed int64) (harness.Runner, error) {
				cfg.Seed = seed
				return asyncnet.NewRunner(cfg)
			}
		default:
			return nil, fmt.Errorf("unknown engine %q", spec.Engine)
		}

		// The run's slab: this hook is its only writer, so the row is
		// appended outside the log's lock and published whole.
		slab := log.slabs[i]
		jobs[i] = harness.Job{
			Name:    fmt.Sprintf("service-run-%d", i),
			Seed:    seed,
			New:     newRunner,
			Periods: spec.Periods,
			Events:  events,
			AfterStep: func(r harness.Runner, t int) {
				if t%spec.RecordEvery != 0 && t != spec.Periods-1 {
					return
				}
				slab = append(slab, t)
				for _, s := range states {
					slab = append(slab, r.Count(s))
				}
				log.publish(i, slab)
			},
		}
	}
	return jobs, nil
}

// execute runs the sweep for a job that missed the cache, recording into
// its log. It returns each run's crash-stop total, or ctx's error if the job
// was cancelled mid-flight.
func (s *Server) execute(ctx context.Context, job *Job, live *liveJob) ([]int, error) {
	jobs, err := buildSweep(&live.spec, live.comp, live.log)
	if err != nil {
		return nil, err
	}
	s.met.sweeps.Inc()
	opts := harness.Options{
		// The harness never reads the wall clock itself (determinism
		// contract); the service supplies it for latency observation.
		Now: time.Now,
		OnJobDone: func(i int, res harness.Result, start, end time.Time) {
			s.observeSweepLatency(job.shown.Engine, job.shown.Mode, job.traceID(), end.Sub(start))
		},
	}
	results, err := harness.SweepContext(ctx, jobs, opts)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	killed := make([]int, len(results))
	for i := range results {
		killed[i] = results[i].Killed
	}
	return killed, nil
}

// worker consumes the job queue until the server closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case job, ok := <-s.queue:
			if !ok {
				return
			}
			s.runJob(job)
		}
	}
}

// runJob takes one queued job through pickup, the sweep and conclude. The
// pickup is not journaled: the terminal record carries its instant.
func (s *Server) runJob(job *Job) {
	job.mu.Lock()
	if job.status != StatusQueued {
		job.mu.Unlock() // cancelled while queued
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	job.status = StatusRunning
	job.started = time.Now()
	job.cancel = cancel
	live := job.liveJob
	job.mu.Unlock()
	s.mu.Lock()
	s.met.resident[StatusQueued].Add(-1)
	s.met.resident[StatusRunning].Add(1)
	s.mu.Unlock()
	s.met.queueWait.ObserveTraced(job.started.Sub(job.created).Seconds(), job.traceID())

	// A twin job submitted earlier may have populated the cache — or a
	// previous process the result store — between submission and pickup;
	// re-check before simulating (peek: Submit already counted this job's
	// miss). Stream readers already parked on this job's (empty) log wake at
	// its close and, seeing a cached result, replay the blob.
	var out outcome
	if _, ok := s.resolveResult(job.Key, false); ok {
		out = outcome{status: StatusDone, cached: true}
	} else {
		killed, err := s.execute(ctx, job, live)
		switch {
		case err == nil:
			job.traceAdd(obs.StageSwept)
			out = outcome{status: StatusDone, blob: &resultBlob{key: job.Key, stored: encodeResult(live.log, killed)}}
		case ctx.Err() != nil:
			out = outcome{status: StatusCancelled, errMsg: "job cancelled"}
		default:
			out = outcome{status: StatusFailed, errMsg: err.Error()}
		}
	}
	s.conclude(job, StatusRunning, out)
}

// Cancel aborts a job. Queued jobs terminate immediately; running jobs
// stop at their next period boundary (harness.SweepContext semantics).
// Terminal jobs return an error.
func (s *Server) Cancel(id string) (JobStatus, error) {
	job, err := s.job(id)
	if err != nil {
		return JobStatus{}, err
	}
	// If a worker picks the job up first the claim fails, and the job is
	// cancelled as the running one it has become.
	if s.conclude(job, StatusQueued, outcome{status: StatusCancelled, errMsg: "job cancelled before it started"}) {
		return job.snapshot(false), nil
	}
	job.mu.Lock()
	st, cancel := job.statusLocked(), job.cancel
	job.mu.Unlock()
	if st.Status != StatusRunning {
		return st, fmt.Errorf("job %s is already %s", id, st.Status)
	}
	cancel()
	return st, nil
}
