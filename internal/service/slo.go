package service

import (
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"odeproto/internal/obs"
)

// This file is the SLO engine: a compiled-in policy (objective + windows +
// burn-rate thresholds per SLO), evaluated over windowed histogram deltas
// into ok/warning/page states — served at GET /v1/slo, mirrored as
// odeproto_slo_* gauges, and logged as one structured line per state
// transition. The burn-rate idiom is multi-window multi-burn-rate
// alerting: burn = bad_fraction / (1 - objective), page when both the
// short and mid windows burn fast, warn when both the mid and long
// windows burn steadily.

// SLOState is one SLO's alert state, ordered by severity.
type SLOState string

const (
	SLOOk      SLOState = "ok"
	SLOWarning SLOState = "warning"
	SLOPage    SLOState = "page"
)

// sloStateValue maps states onto the odeproto_slo_state gauge (0/1/2).
func sloStateValue(s SLOState) float64 {
	switch s {
	case SLOWarning:
		return 1
	case SLOPage:
		return 2
	}
	return 0
}

// worseState returns the more severe of two states.
func worseState(a, b SLOState) SLOState {
	if sloStateValue(b) > sloStateValue(a) {
		return b
	}
	return a
}

// Indicator names what an SLO measures.
const (
	// IndicatorLatency counts a completed job as bad when its duration
	// exceeds the SLO's threshold (estimated from histogram buckets).
	IndicatorLatency = "latency"
	// IndicatorErrors counts a completed job as bad when it failed.
	IndicatorErrors = "errors"
)

// sloDef is one burn-rate SLO. Paging keys on the short and mid windows,
// warning on the mid and long ones.
type sloDef struct {
	name      string
	indicator string  // IndicatorLatency or IndicatorErrors
	objective float64 // the target good fraction, e.g. 0.99
	// threshold is the latency in seconds a job must finish within to count
	// as good (latency indicator only).
	threshold float64
	windows   [3]time.Duration // short, mid, long
	// pageBurn pages when the short and mid windows both burn at least this
	// multiple of the error budget; warnBurn warns when the mid and long do.
	pageBurn, warnBurn float64
}

// The daemon's SLO policy, compiled in: job latency (99% within 30s) and
// job error rate (99.9% success), each over 5m/30m/6h with the standard
// 14.4×/3× burn-rate thresholds, evaluated every sloEvalInterval. The
// snapshot rings keep the long window.
var (
	sloWindows  = [3]time.Duration{5 * time.Minute, 30 * time.Minute, 6 * time.Hour}
	defaultSLOs = []sloDef{
		{name: "job_latency", indicator: IndicatorLatency, objective: 0.99, threshold: 30,
			windows: sloWindows, pageBurn: 14.4, warnBurn: 3},
		{name: "job_errors", indicator: IndicatorErrors, objective: 0.999,
			windows: sloWindows, pageBurn: 14.4, warnBurn: 3},
	}
)

const sloEvalInterval = 10 * time.Second

// SLOWindowStatus is one window's evaluation inside an SLOStatus.
type SLOWindowStatus struct {
	Window string `json:"window"`
	// CoveredSeconds is the span the window actually covers — shorter
	// than the nominal window while the process is young.
	CoveredSeconds float64 `json:"covered_seconds"`
	Total          int64   `json:"total"`
	Bad            float64 `json:"bad"`
	BadFraction    float64 `json:"bad_fraction"`
	BurnRate       float64 `json:"burn_rate"`
	// P50/P95/P99 are interpolated latency quantiles (latency indicator
	// only; zero when the window holds no observations — JSON has no NaN).
	P50 float64 `json:"p50,omitempty"`
	P95 float64 `json:"p95,omitempty"`
	P99 float64 `json:"p99,omitempty"`
}

// SLOStatus is one SLO's current evaluation in GET /v1/slo.
type SLOStatus struct {
	Name             string            `json:"name"`
	Indicator        string            `json:"indicator"`
	Objective        float64           `json:"objective"`
	ThresholdSeconds float64           `json:"threshold_seconds,omitempty"`
	State            SLOState          `json:"state"`
	Windows          []SLOWindowStatus `json:"windows"`
}

// SLOReport is the body of GET /v1/slo.
type SLOReport struct {
	GeneratedAt time.Time `json:"generated_at"`
	// State is the worst state across all SLOs.
	State SLOState    `json:"state"`
	SLOs  []SLOStatus `json:"slos"`
}

// sloTransition is one SLO's state change, logged by whoever evaluated.
type sloTransition struct {
	name     string
	from, to SLOState
	burn     float64 // the short-window burn rate at transition time
}

// sloEvaluator windows the job-duration histogram, queue-wait histogram,
// and failure counter, and evaluates its SLOs against them.
// All clock inputs are explicit so tests drive it with a fake clock; the
// serving path passes time.Now().
type sloEvaluator struct {
	defs   []sloDef
	dur    *obs.WindowedHistogram
	qwait  *obs.WindowedHistogram
	failed *obs.WindowedCounter

	stateGauge *obs.GaugeVec // odeproto_slo_state{slo}
	burnGauge  *obs.GaugeVec // odeproto_slo_burn_rate{slo,window}
	quantGauge *obs.GaugeVec // odeproto_slo_latency_seconds{slo,window,quantile}

	// mu serializes evaluations: the state transition ok→page must have
	// one owner even when the background loop and /v1/slo race. Logging
	// of transitions happens outside this lock (callers receive them).
	mu   sync.Mutex
	last map[string]SLOState
}

// newSLOEvaluator evaluates defs: the server passes defaultSLOs, the
// fake-clock tests policies with shorter windows.
func newSLOEvaluator(defs []sloDef, met *serviceMetrics, reg *obs.Registry) *sloEvaluator {
	retention := sloWindows[2]
	e := &sloEvaluator{
		defs:   defs,
		dur:    obs.NewWindowedHistogram(met.jobDuration, retention),
		qwait:  obs.NewWindowedHistogram(met.queueWait, retention),
		failed: obs.NewWindowedCounter(met.failed, retention),
		stateGauge: reg.GaugeVec("odeproto_slo_state",
			"Current alert state per SLO (0 ok, 1 warning, 2 page).", "slo"),
		burnGauge: reg.GaugeVec("odeproto_slo_burn_rate",
			"Error-budget burn rate per SLO and window (1.0 = burning exactly the budget).", "slo", "window"),
		quantGauge: reg.GaugeVec("odeproto_slo_latency_seconds",
			"Windowed latency quantiles backing the latency SLOs.", "slo", "window", "quantile"),
		last: make(map[string]SLOState),
	}
	for _, def := range defs {
		e.last[def.name] = SLOOk
		e.stateGauge.With(def.name).Set(0)
	}
	return e
}

// tick records window baselines; the background loop calls it every
// sloEvalInterval (on-demand /v1/slo evaluations never tick — the loop owns
// the ring cadence).
func (e *sloEvaluator) tick(now time.Time) {
	e.dur.Tick(now)
	e.qwait.Tick(now)
	e.failed.Tick(now)
}

// evaluate computes every SLO's current state, updates the mirrored
// gauges, and returns the report plus any state transitions. Callers log
// the transitions — outside any lock this evaluator holds.
func (e *sloEvaluator) evaluate(now time.Time) (SLOReport, []sloTransition) {
	report := SLOReport{GeneratedAt: now, State: SLOOk}
	var transitions []sloTransition
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, def := range e.defs {
		st := e.evalOne(def, now)
		report.SLOs = append(report.SLOs, st)
		report.State = worseState(report.State, st.State)
		if prev := e.last[def.name]; prev != st.State {
			e.last[def.name] = st.State
			transitions = append(transitions, sloTransition{
				name: def.name, from: prev, to: st.State, burn: st.Windows[0].BurnRate})
		}
		e.stateGauge.With(def.name).Set(sloStateValue(st.State))
	}
	return report, transitions
}

// evalOne evaluates one SLO over its three windows.
func (e *sloEvaluator) evalOne(def sloDef, now time.Time) SLOStatus {
	st := SLOStatus{
		Name:             def.name,
		Indicator:        def.indicator,
		Objective:        def.objective,
		ThresholdSeconds: def.threshold,
		State:            SLOOk,
	}
	budget := 1 - def.objective
	var burns [3]float64
	for i, name := range [3]string{"short", "mid", "long"} {
		d := def.windows[i]
		snap, covered := e.dur.Window(now, d)
		ws := SLOWindowStatus{
			Window:         d.String(),
			CoveredSeconds: covered.Seconds(),
			Total:          snap.Count(),
		}
		switch def.indicator {
		case IndicatorLatency:
			ws.BadFraction = snap.FractionOver(def.threshold)
			ws.Bad = ws.BadFraction * float64(ws.Total)
			for _, q := range []struct {
				q     float64
				field *float64
				label string
			}{{0.5, &ws.P50, "0.5"}, {0.95, &ws.P95, "0.95"}, {0.99, &ws.P99, "0.99"}} {
				v := snap.Quantile(q.q)
				if math.IsNaN(v) {
					v = 0
				}
				*q.field = v
				e.quantGauge.With(def.name, name, q.label).Set(v)
			}
		case IndicatorErrors:
			bad, _ := e.failed.Window(now, d)
			ws.Bad = float64(bad)
			if ws.Total > 0 {
				ws.BadFraction = ws.Bad / float64(ws.Total)
			}
		}
		ws.BurnRate = ws.BadFraction / budget
		burns[i] = ws.BurnRate
		e.burnGauge.With(def.name, name).Set(ws.BurnRate)
		st.Windows = append(st.Windows, ws)
	}
	switch {
	case burns[0] >= def.pageBurn && burns[1] >= def.pageBurn:
		st.State = SLOPage
	case burns[1] >= def.warnBurn && burns[2] >= def.warnBurn:
		st.State = SLOWarning
	}
	return st
}

// retryAfterSeconds derives the Retry-After hint for 429 responses from
// the p95 queue wait over the shortest short window: if jobs currently
// wait ~p95 seconds for a worker, a retry sooner than that meets the same
// full queue. Floor (and no-data default) 1s.
func (e *sloEvaluator) retryAfterSeconds(now time.Time) int {
	shortest := e.defs[0].windows[0]
	for _, def := range e.defs[1:] {
		shortest = min(shortest, def.windows[0])
	}
	snap, _ := e.qwait.Window(now, shortest)
	p95 := snap.Quantile(0.95)
	if math.IsNaN(p95) || p95 < 1 {
		return 1
	}
	return int(math.Ceil(p95))
}

// sloLoop is the background evaluation goroutine: tick the snapshot
// rings, evaluate, and log any transitions, every sloEvalInterval until
// the server closes.
func (s *Server) sloLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(sloEvalInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case now := <-ticker.C:
			s.slo.tick(now)
			_, transitions := s.slo.evaluate(now)
			s.logSLOTransitions(transitions)
		}
	}
}

// logSLOTransitions emits one structured line per SLO state change —
// warning-level when entering warning/page, info when recovering.
func (s *Server) logSLOTransitions(transitions []sloTransition) {
	for _, tr := range transitions {
		attrs := []any{"slo", tr.name, "from", string(tr.from), "to", string(tr.to),
			"burn_rate_short", tr.burn}
		if tr.to == SLOOk {
			s.log.Info("slo state change", attrs...)
		} else {
			s.log.Warn("slo state change", attrs...)
		}
	}
}

// handleSLO serves GET /v1/slo: an on-demand evaluation over the rings
// the background loop maintains. Transitions observed here are logged
// too — the state machine has one owner (the evaluator), not two clocks.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	report, transitions := s.slo.evaluate(time.Now())
	s.logSLOTransitions(transitions)
	sort.Slice(report.SLOs, func(i, j int) bool { return report.SLOs[i].Name < report.SLOs[j].Name })
	writeJSON(w, http.StatusOK, report)
}
