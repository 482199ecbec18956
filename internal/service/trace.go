package service

import (
	"fmt"
	"net/http"
	"time"
)

// TraceSpan is one lifecycle stage of GET /v1/jobs/{id}/trace, with its
// offset from the first span.
type TraceSpan struct {
	Stage     string    `json:"stage"`
	At        time.Time `json:"at"`
	ElapsedMS float64   `json:"elapsed_ms"`
}

// TraceStatus is the body of GET /v1/jobs/{id}/trace.
type TraceStatus struct {
	Job    string      `json:"job"`
	Trace  string      `json:"trace"`
	Node   string      `json:"node,omitempty"`
	Status Status      `json:"status"`
	Spans  []TraceSpan `json:"spans"`
}

// handleTrace serves a job's lifecycle spans. Jobs recovered from WAL
// records written before tracing existed have no trace and 404.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.pathJob(w, r)
	if !ok {
		return
	}
	if job.trace == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no trace recorded for job %s", job.ID))
		return
	}
	spans := job.trace.Spans()
	out := TraceStatus{
		Job:    job.ID,
		Trace:  job.trace.ID,
		Node:   job.trace.Node,
		Status: job.Snapshot(false).Status,
		Spans:  make([]TraceSpan, len(spans)),
	}
	for i, sp := range spans {
		out.Spans[i] = TraceSpan{
			Stage:     sp.Stage,
			At:        sp.At,
			ElapsedMS: float64(sp.At.Sub(spans[0].At)) / float64(time.Millisecond),
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// logCompletion emits the one structured line each job gets when it
// reaches a terminal state: the trace ID ties it to the submitting
// node's log when the job was forwarded, and the stage offsets make the
// line a self-contained latency breakdown.
func (s *Server) logCompletion(job *Job) {
	st := job.Snapshot(false)
	// Done and failed jobs feed the latency-SLO histogram (with the trace
	// as the bucket exemplar); failures additionally feed the error-rate
	// SLO. Cancellations are neither success nor failure and observe
	// nothing.
	if st.Finished != nil {
		switch st.Status {
		case StatusFailed:
			s.met.failed.Inc()
			fallthrough
		case StatusDone:
			s.met.jobDuration.ObserveTraced(st.Finished.Sub(st.Created).Seconds(), st.Trace)
		}
	}
	attrs := []any{
		"trace", st.Trace,
		"job", st.ID,
		"status", string(st.Status),
		"engine", st.Engine,
		"cached", st.Cached,
		"key", job.Key,
	}
	if st.Mode != "" {
		attrs = append(attrs, "mode", st.Mode)
	}
	if st.Error != "" {
		attrs = append(attrs, "error", st.Error)
	}
	if st.Finished != nil {
		attrs = append(attrs, "duration_ms",
			float64(st.Finished.Sub(st.Created))/float64(time.Millisecond))
	}
	if job.trace != nil {
		spans := job.trace.Spans()
		stages := make([]string, len(spans))
		for i, sp := range spans {
			stages[i] = fmt.Sprintf("%s+%.1fms", sp.Stage,
				float64(sp.At.Sub(spans[0].At))/float64(time.Millisecond))
		}
		attrs = append(attrs, "stages", stages)
	}
	s.log.Info("job finished", attrs...)
}
