package service

import (
	"fmt"
	"io"
	"net/http"
	"strconv"

	"odeproto/internal/plot"
)

// handleTraceSVG renders a job's lifecycle trace as a waterfall SVG: one
// bar per stage-to-stage span (queued→compiled→swept→persisted→
// responded), to a shared time scale, with the owning node in the
// subtitle. The data is the same span list GET /v1/jobs/{id}/trace
// serves as JSON.
func (s *Server) handleTraceSVG(w http.ResponseWriter, r *http.Request) {
	job, ok := s.pathJob(w, r)
	if !ok {
		return
	}
	if job.trace == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no trace recorded for job %s", job.ID))
		return
	}
	spans := job.trace.Spans()
	if len(spans) == 0 {
		writeError(w, http.StatusNotFound, fmt.Errorf("trace for job %s has no spans yet", job.ID))
		return
	}
	// A terminal job's trace is frozen, so its span count pins the
	// rendering: a strong validator. Live jobs get no ETag — their trace
	// is still growing.
	switch job.Snapshot(false).Status {
	case StatusDone, StatusFailed, StatusCancelled:
		if notModified(w, r, fmt.Sprintf("%q", fmt.Sprintf("t:%s:%s:%d", job.ID, job.trace.ID, len(spans)))) {
			return
		}
	}
	subtitle := "trace " + job.trace.ID
	if job.trace.Node != "" {
		subtitle = "node " + job.trace.Node + " · " + subtitle
	}
	wf := plot.NewWaterfall("trace waterfall · "+job.ID, subtitle)
	t0 := spans[0].At
	// The first span is the trace's origin instant; each later stage
	// closes the span that began at the previous one.
	wf.AddSpan(spans[0].Stage, 0, 0)
	for i := 1; i < len(spans); i++ {
		wf.AddSpan(spans[i].Stage,
			spans[i-1].At.Sub(t0).Seconds(),
			spans[i].At.Sub(t0).Seconds())
	}
	svg := wf.SVG()
	w.Header().Set("Content-Type", "image/svg+xml")
	w.Header().Set("Content-Length", strconv.Itoa(len(svg)))
	_, _ = io.WriteString(w, svg)
}
