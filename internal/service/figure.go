package service

import (
	"fmt"
	"io"
	"net/http"
	"strconv"

	"odeproto/internal/plot"
)

// handleFigure renders a finished job's trajectories as a self-contained
// SVG line chart: one line per protocol state, per-period counts on the
// y-axis. Multi-seed jobs render run 0 (the full data is in the JSON
// result).
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	job, ok := s.pathJob(w, r)
	if !ok {
		return
	}
	st := job.snapshot(true)
	if st.Status != StatusDone {
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %s is %s; figures render once it is done", st.ID, st.Status))
		return
	}
	if st.resultRaw == nil {
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %s is done but its result is no longer held; resubmit the spec to recompute it", st.ID))
		return
	}
	// A done job's figure is a pure function of the job ID (the title) and
	// its immutable result, so the composite is a strong ETag — checked
	// before the decode and the render, the expensive parts of this
	// endpoint.
	if notModified(w, r, `"f:`+st.ID+`:`+st.CacheKey+`"`) {
		return
	}
	res, err := decodeResult(st.resultRaw)
	if err != nil || len(res.Runs) == 0 || len(res.Runs[0].Rows) == 0 {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s recorded no rows", st.ID))
		return
	}
	run := res.Runs[0]
	chart := plot.NewChart(
		fmt.Sprintf("%s · %s engine · N=%d · seed %d", st.ID, st.Engine, st.N, run.Seed),
		"period", "processes")
	xs := make([]float64, len(run.Rows))
	for i, row := range run.Rows {
		xs[i] = float64(row.Period)
	}
	for si, state := range res.States {
		ys := make([]float64, len(run.Rows))
		for i, row := range run.Rows {
			ys[i] = float64(row.Counts[si])
		}
		chart.AddLine(state, xs, ys)
	}
	svg := chart.SVG()
	w.Header().Set("Content-Type", "image/svg+xml")
	w.Header().Set("Content-Length", strconv.Itoa(len(svg)))
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, svg)
}
