package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"odeproto/internal/obs"
	"odeproto/internal/store"
)

// journal appends one lifecycle record to the durable store: durable on
// return if synced, with the log's next flush if not. A failed append is
// counted in odeproto_store_errors_total, logged and returned. Only the
// submitted record is a commit point: Submit withdraws a job whose record
// failed and answers an error, never 202. A terminal record that fails leaves
// its job as concluded, as does a result that cannot be stored (conclude
// fails that job rather than claim done).
func (s *Server) journal(rec store.JobRecord, synced bool) error {
	appendRec := s.store.Append
	if !synced {
		appendRec = s.store.AppendUnsynced
	}
	err := appendRec(rec)
	if err != nil {
		s.met.storeErrs.Inc()
		s.log.Warn("wal append failed", "job", rec.ID, "op", string(rec.Op), "trace", rec.Trace, "err", err)
	}
	return err
}

// forget tells the store a job aged out of the table. The store may compact
// its log there, and a failure is that compaction's.
func (s *Server) forget(id string) {
	if err := s.store.Forget(id); err != nil {
		s.met.storeErrs.Inc()
		s.log.Warn("wal compaction failed", "job", id, "err", err)
	}
}

// specJSON renders the normalized spec for the submitted WAL record.
func specJSON(spec *JobSpec) json.RawMessage {
	data, err := json.Marshal(spec)
	if err != nil {
		// JobSpec contains only marshalable types; unreachable.
		panic(fmt.Sprintf("service: spec marshal: %v", err))
	}
	return data
}

// resolveResult resolves a cache key via the LRU and then the durable result
// store, promoting a disk hit into the LRU. Only a submitted spec meeting the
// cache is counted as an LRU hit or miss (a disk hit is a miss too), not the
// worker's at-pickup re-check of a counted miss, nor a done job's reads.
func (s *Server) resolveResult(key string, counted bool) (*resultBlob, bool) {
	get := s.cache.peek
	if counted {
		get = s.cache.get
	}
	if blob, ok := get(key); ok {
		return blob, true
	}
	blob, ok := s.loadResult(key)
	if ok {
		s.met.diskHits.Inc()
		s.cache.put(blob)
	}
	return blob, ok
}

// loadResult opens key's blob once and admits what it holds: every read but a
// result GET past the LRU — submit, re-check, status, replay, warm, heal.
func (s *Server) loadResult(key string) (*resultBlob, bool) {
	src, size, err := s.store.OpenResult(key)
	if errors.Is(err, store.ErrNotFound) {
		return nil, false // a plain miss
	}
	var stored []byte
	if err == nil {
		stored, err = admit(src, size)
		_ = src.Close()
	}
	if err != nil { // unreadable or refused: a store fault
		s.met.storeErrs.Inc()
		s.log.Warn("result blob unreadable", "key", key, "err", err)
		return nil, false
	}
	return &resultBlob{key: key, stored: stored}, true
}

// restartableErr marks jobs the WAL caught mid-run: the sweep died with
// the previous process, but the spec is in the log and a resubmission
// reruns it.
const restartableErr = "interrupted by daemon restart; resubmit to retry"

// restartableJob pairs an interrupted job with its WAL-preserved spec,
// for the -resume-interrupted path.
type restartableJob struct {
	job  *Job
	spec JobSpec
}

// recoverJobs rebuilds the job table from the store's replayed WAL. The
// terminal jobs are trimmed to the newest Config.RetainJobs (the store is
// told to forget the rest) and return to /v1/jobs as journaled, nothing
// written for them; the most recently finished results warm the LRU from
// disk, up to its bounds; and jobs whose log ends before a terminal record
// are concluded — a journaled transition like any other, so the next
// recovery replays them as plain terminal jobs. One whose result blob is on
// disk lost only its done record: the blob is the commit point
// (internal/store's package comment), so it is done, cached — answered by a
// result already stored. The rest were queued or mid-run and are
// failed-restartable; it returns those whose specs survived in the WAL, so
// New can resubmit them under Config.ResumeInterrupted. Runs once, from New,
// before the workers start.
func (s *Server) recoverJobs() []restartableJob {
	recovered := s.store.Recovered()
	if len(recovered) == 0 {
		return nil
	}
	// New IDs continue past every journaled one, retained or not, and the
	// table takes terminal jobs oldest finished first: the order they age
	// out in.
	sort.SliceStable(recovered, func(i, j int) bool { return recovered[i].FinishedAt < recovered[j].FinishedAt })
	var terminal, interrupted []store.RecoveredJob
	for _, rj := range recovered {
		s.nextID = max(s.nextID, s.idNumber(rj.ID))
		if rj.Interrupted {
			interrupted = append(interrupted, rj)
		} else {
			terminal = append(terminal, rj)
		}
	}
	if extra := len(terminal) - s.cfg.RetainJobs; extra > 0 {
		for _, rj := range terminal[:extra] {
			s.forget(rj.ID)
		}
		terminal = terminal[extra:]
	}

	// Warm newest finishers first, one load per distinct key, each placed
	// behind the last so the newest ends most recently used; stop at the
	// first result the LRU's bounds have no room for. Warming loads stored
	// bytes only — admitted by loadResult's one rule, no decode — so startup
	// cost is I/O, and since jobs resolve their bytes by key, warm and cold
	// differ only in latency.
	seen := make(map[string]bool)
	for i := len(terminal) - 1; i >= 0; i-- {
		rj := terminal[i]
		if rj.Status != store.OpDone || rj.Key == "" || seen[rj.Key] {
			continue
		}
		seen[rj.Key] = true
		blob, ok := s.loadResult(rj.Key)
		if !ok {
			continue
		}
		if !s.cache.putOldest(blob) {
			break
		}
		s.warmed++
	}

	for _, rj := range terminal {
		job, _ := s.restore(rj)
		job.settle()
		s.terminal = append(s.terminal, job)
		job.done = released
	}
	var restartable []restartableJob
	for _, rj := range interrupted {
		job, specOK := s.restore(rj)
		spec := job.spec // conclude drops it
		if _, ok := s.loadResult(rj.Key); ok {
			s.conclude(job, job.status, outcome{status: StatusDone, cached: true})
			continue
		}
		s.conclude(job, job.status, outcome{status: StatusFailed, errMsg: restartableErr})
		if specOK {
			restartable = append(restartable, restartableJob{job: job, spec: spec})
		}
	}
	s.log.Info("recovered jobs from store", "jobs", len(terminal)+len(interrupted),
		"warmed_results", s.warmed, "restartable", len(restartable))
	return restartable
}

// restore enters one replayed job in the table in its journaled state, live
// part included, and reports whether its spec survived in the WAL.
func (s *Server) restore(rj store.RecoveredJob) (*Job, bool) {
	job := &Job{ID: rj.ID, Key: rj.Key, srv: s, num: s.idNumber(rj.ID), liveJob: new(liveJob), status: StatusQueued}
	if obs.ValidTraceID(rj.Trace) {
		// Rebuild an approximate trail from the journaled timestamps:
		// the per-stage spans died with the previous process, but the
		// ID (and thus cross-node correlation) survives.
		job.trace = obs.NewTrace(rj.Trace, s.cfg.Node, 2)
		if rj.SubmittedAt != 0 {
			job.trace.Add(obs.StageQueued, time.Unix(0, rj.SubmittedAt))
		}
		if rj.FinishedAt != 0 {
			job.trace.Add(obs.StageResponded, time.Unix(0, rj.FinishedAt))
		}
	}
	specOK := len(rj.Spec) > 0 && json.Unmarshal(rj.Spec, &job.spec) == nil
	job.shown = job.spec.shown()
	if rj.SubmittedAt != 0 {
		job.created = time.Unix(0, rj.SubmittedAt)
	}
	if rj.StartedAt != 0 {
		job.started = time.Unix(0, rj.StartedAt)
	} else if rj.Cached && rj.Status == store.OpDone {
		// Born done (a cache hit at submission): it started as it was
		// created, and its one record journals no StartedAt.
		job.started = job.created
	}
	if rj.FinishedAt != 0 {
		job.finished = time.Unix(0, rj.FinishedAt)
	}
	switch rj.Status {
	case store.OpRunning:
		job.status = StatusRunning
	case store.OpDone:
		job.status = StatusDone
		job.cached = rj.Cached
	case store.OpFailed:
		job.status = StatusFailed
		job.errMsg = rj.Error
	case store.OpAborted:
		job.status = StatusCancelled
		job.errMsg = rj.Error
	}
	s.jobs[job.ID] = job
	s.met.resident[job.status].Add(1)
	return job, specOK
}

// resumeInterrupted resubmits the jobs a crash caught queued or mid-run,
// instead of asking the client to retry them. It runs from New after
// recovery, before the workers start, so resubmissions queue exactly like
// client POSTs (including cache and single-flight semantics: a twin whose
// result did land on disk is answered without a sweep). The interrupted
// original keeps its failed status, with the error amended to name the
// replacement job.
func (s *Server) resumeInterrupted(restartable []restartableJob) {
	for _, r := range restartable {
		next, err := s.Submit(r.spec)
		if err != nil {
			// A full queue (or a spec that no longer validates against the
			// current limits) leaves the job failed-restartable, exactly as
			// without the flag.
			continue
		}
		s.resumed++
		s.log.Info("resubmitted interrupted job", "job", r.job.ID,
			"resubmitted_as", next.ID, "trace", next.traceID())
		r.job.mu.Lock()
		r.job.errMsg = fmt.Sprintf("interrupted by daemon restart; resubmitted as %s", next.ID)
		r.job.mu.Unlock()
	}
}

// idNumber extracts the numeric suffix of a job ID ("j000042" → 42, or
// "n1-j000042" → 42 under Config.JobIDPrefix "n1-") so post-recovery IDs
// continue past the recovered ones and the listing orders by it. IDs
// journaled under a different prefix (the node's cluster position changed
// across the restart) return 0: they stay listed but cannot collide with
// newly issued IDs, which carry the current prefix.
func (s *Server) idNumber(id string) int {
	rest, ok := strings.CutPrefix(id, s.cfg.JobIDPrefix+"j")
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0
	}
	return n
}
