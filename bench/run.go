package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"odeproto/internal/service"
)

// config is what the command line fixes for every run of an invocation.
type config struct {
	outDir   string // bench/out: the daemon binary, logs and trace files
	dataRoot string // parent of the per-run data directories
	bin      string // the built odeprotod

	// probed memoises the in-process probes that depend on nothing but the
	// seed, so that an invocation that runs every workload times them once.
	probed     map[string]float64
	probedSeed int64
}

// result is the outcome of one run of one workload.
type result struct {
	metrics   map[string]float64
	attempted int
	failed    int
	firstErr  error
	samples   int     // verified ops behind the latency percentiles
	coverage  float64 // traced runs: share of the op spans their children explain
}

const (
	// Set-up is repeated, and setup_s is the median, so that one slow exec
	// or fsync does not decide it: up to maxSetups times, stopping once
	// set-up has used setupBudget of the run. A bare boot takes
	// milliseconds and is repeated the full count; the read-mix set-up —
	// some six thousand fsyncs, steadied by their number — takes seconds
	// and runs once.
	maxSetups   = 25
	setupBudget = 1500 * time.Millisecond
	// warmup precedes the measured phases and is discarded: connections
	// open, the daemon's heap and the page cache reach a steady state.
	warmup = time.Second
	// maxTracedJobs bounds how many daemon job traces a traced run fetches.
	maxTracedJobs = 256
	// lagLimit: a phase in which the generator itself started 1 % of the
	// ops later than this is invalid — its percentiles would be the
	// generator's — and is measured again, once.
	lagLimit = time.Millisecond
	// settleTimeout bounds the wait for the daemon to finish what trails
	// its last response.
	settleTimeout = 10 * time.Second
)

// setup is one completed set-up: the serving daemon, how long all of it
// took, and the exec-to-healthy time of the first boot (empty directory)
// and of the restart on the populated one (0 without a preload).
type setup struct {
	d                     *daemon
	total, boot, recovery time.Duration
}

// setUp boots a daemon on an empty directory, runs the workload's preload
// and, if it has one, restarts the daemon on the populated directory, as
// an operator's deploy would.
func (cfg *config) setUp(r *run) (su setup, err error) {
	dataDir, err := os.MkdirTemp(cfg.dataRoot, r.w.name+"-data-")
	if err != nil {
		return su, err
	}
	logPath := filepath.Join(cfg.outDir, r.w.name+".daemon.log")
	defer func() {
		if err != nil {
			if su.d != nil {
				su.d.kill()
			}
			_ = os.RemoveAll(dataDir)
		}
	}()
	start := time.Now()
	if su.d, err = startDaemon(cfg.bin, dataDir, logPath); err != nil {
		return su, err
	}
	su.boot = su.d.boot
	if r.w.preload != nil {
		clients := newClients(su.d.addr, r.w.conns, nil, r.seed)
		err = r.w.preload(r, clients)
		closeClients(clients)
		if err != nil {
			return su, err
		}
		if err = su.d.stop(); err != nil {
			return su, err
		}
		if su.d, err = startDaemon(cfg.bin, dataDir, logPath); err != nil {
			return su, err
		}
		su.recovery = su.d.boot
	}
	su.total = time.Since(start)
	return su, nil
}

func newClients(addr string, n int, rec *recorder, seed int64) []*client {
	clients := make([]*client, n)
	for k := range clients {
		clients[k] = newClient(addr)
		clients[k].rec, clients[k].seed = rec, seed
	}
	return clients
}

func closeClients(clients []*client) {
	for _, c := range clients {
		c.close()
	}
}

// settled returns a snapshot taken once the daemon has finished the work
// that trails a job's last response. The daemon ends a job's stream first,
// then journals its done record, then observes
// odeproto_job_duration_seconds, then writes the completion line: once the
// histogram has counted every job submitted since boot, no record is
// outstanding and the last log line is a statement away.
func (d *daemon) settled(ctx context.Context) (*snapshot, error) {
	deadline := time.Now().Add(settleTimeout)
	for {
		s, err := d.snapshot()
		if err != nil {
			return nil, err
		}
		submitted := int64(s.value("odeproto_jobs_submitted_total"))
		finished := s.histogram("odeproto_job_duration_seconds").Count()
		if finished >= submitted {
			time.Sleep(2 * time.Millisecond)
			return d.snapshot()
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("daemon not quiescent after %v: %d jobs submitted, %d finished", settleTimeout, submitted, finished)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// phase is one measured stretch of load with the daemon snapshots around
// it.
type phase struct {
	stats         *phaseStats
	before, after *snapshot
	clients       []*client
	rssPeakMB     float64
}

func (r *run) phase(ctx context.Context, lp loop, rec *recorder) (*phase, error) {
	before, err := r.d.settled(ctx)
	if err != nil {
		return nil, err
	}
	clients := newClients(r.d.addr, r.w.conns, rec, r.seed)
	defer closeClients(clients)
	ph := &phase{before: before, clients: clients}
	// The daemon's job table never evicts, so its memory follows the number
	// of jobs it has served. An open loop serves rate × seconds of them; a
	// closed loop serves more the faster it is, so there the high-water
	// mark is read when op rssAfterOps completes — else a change that
	// speeds the daemon up would read as one that costs memory.
	var done atomic.Int64
	var rssErr error
	ph.stats = runLoop(ctx, clients, lp, func(c *client, i int) error {
		err := r.w.op(r, c, i)
		if done.Add(1) == int64(r.w.rssAfterOps) {
			ph.rssPeakMB, rssErr = r.d.rssPeakMB()
		}
		return err
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if rssErr == nil && ph.rssPeakMB == 0 {
		ph.rssPeakMB, rssErr = r.d.rssPeakMB()
	}
	if rssErr != nil {
		return nil, rssErr
	}
	if ph.after, err = r.d.settled(ctx); err != nil {
		return nil, err
	}
	return ph, nil
}

// opsIn is how many op indices a phase of length d may consume: exact for
// an open loop, a generous bound for a closed one.
func (w *workload) opsIn(d time.Duration) int {
	if w.rate > 0 {
		return int(w.rate * d.Seconds())
	}
	return int(d/time.Millisecond) + 1
}

// runWorkload performs one run: set-up (repeated, the last daemon kept),
// warm-up, the untraced measured phase that every client-observed number
// comes from, the determinism recompute, and for a traced run a second,
// traced phase on the same daemon, the daemon's stage spans, the
// in-process probes and the trace file.
func (cfg *config) runWorkload(ctx context.Context, w *workload, seed int64, seconds int, traced bool) (*result, error) {
	r := &run{w: w, seed: seed}
	dur := time.Duration(seconds) * time.Second
	if w.preload != nil {
		// Enough requests for the warm-up, the measured time, and one
		// repeat of a phase the generator was late in.
		r.plan = readPlan(seed, readKeys, w.opsIn(warmup+2*dur))
	}

	quietDisk()
	// One log per run: set-up repeats and restarts append to it.
	if err := os.Remove(filepath.Join(cfg.outDir, w.name+".daemon.log")); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	var setups []time.Duration
	var last setup
	var spent time.Duration
	for len(setups) < maxSetups && spent < setupBudget {
		if r.d != nil {
			r.d.kill()
			_ = os.RemoveAll(r.d.dataDir)
		}
		var err error
		if last, err = cfg.setUp(r); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.d = last.d
		setups = append(setups, last.total)
		spent += last.total
	}
	defer func() {
		r.d.kill()
		_ = os.RemoveAll(r.d.dataDir)
	}()

	m := map[string]float64{
		"setup_s":              median(setups).Seconds(),
		"odeprotod.boot_ms":    ms(last.boot),
		"odeprotod.recover_ms": ms(last.recovery),
	}
	res := &result{metrics: m}

	next := 0
	runPhase := func(d time.Duration, rec *recorder) (*phase, error) {
		ph, err := r.phase(ctx, loop{rate: w.rate, dur: d, first: next}, rec)
		next += w.opsIn(d)
		if err != nil {
			return nil, err
		}
		res.attempted += ph.stats.attempted
		res.failed += ph.stats.failed
		if res.firstErr == nil {
			res.firstErr = ph.stats.firstErr
		}
		return ph, nil
	}
	if _, err := runPhase(warmup, nil); err != nil {
		return nil, err
	}

	// A traced run splits the time: half untraced, half traced, on one
	// daemon. The ratio of the two medians is the tracing overhead; every
	// other number comes from the untraced half.
	plainDur := dur
	if traced {
		plainDur = dur / 2
	}
	plain, err := runPhase(plainDur, nil)
	if err != nil {
		return nil, err
	}
	if lag := percentile(plain.stats.lags, 99); lag > lagLimit {
		fmt.Fprintf(os.Stderr, "bench: %s: the generator ran %.2f ms late at p99; measuring the phase again\n", w.name, ms(lag))
		if plain, err = runPhase(plainDur, nil); err != nil {
			return nil, err
		}
		if lag = percentile(plain.stats.lags, 99); lag > lagLimit {
			return nil, fmt.Errorf("%s: the generator ran %.2f ms late at p99 in two phases running (limit %v): the run is invalid", w.name, ms(lag), lagLimit)
		}
	}
	res.samples = len(plain.stats.lats)
	if res.samples == 0 {
		return res, fmt.Errorf("no op of %s succeeded: %v", w.name, res.firstErr)
	}
	r.phaseMetrics(m, plain)

	var rec *recorder
	if traced {
		rec = new(recorder)
		ph, err := runPhase(dur-plainDur, rec)
		if err != nil {
			return nil, err
		}
		base := percentile(plain.stats.lats, 50)
		m["odeload.trace_overhead_pct"] = 100 * ratio(float64(percentile(ph.stats.lats, 50)-base), float64(base))
		if err := r.daemonSpans(m, ph.clients, rec); err != nil {
			return nil, err
		}
	}
	if err := r.recompute(); err != nil {
		res.failed++
		if res.firstErr == nil {
			res.firstErr = err
		}
	}

	dataDir := r.d.dataDir
	if err := r.d.stop(); err != nil {
		return nil, fmt.Errorf("stopping the daemon: %w", err)
	}
	if traced {
		// The probes run with the daemon gone, so that they have the
		// machine's two cores to themselves.
		if err := cfg.probes(m, r, dataDir, rec); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		res.coverage = rootCoverage(rec.spans)
		if err := writeTrace(filepath.Join(cfg.outDir, w.name+".trace.json"), w.name, seed, rec); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// phaseMetrics derives the client-observed metrics of a phase and the
// per-layer counts of the snapshots around it.
func (r *run) phaseMetrics(m map[string]float64, ph *phase) {
	st := ph.stats
	within := sort.Search(len(st.lats), func(k int) bool { return st.lats[k] > r.w.limit })
	m["ops_per_s"] = float64(len(st.lats)) / st.elapsed.Seconds()
	m["lat_p50_ms"] = ms(percentile(st.lats, 50))
	m["lat_p90_ms"] = ms(percentile(st.lats, 90))
	m["within_limit_ratio"] = float64(within) / float64(st.attempted)
	m["rss_peak_mb"] = ph.rssPeakMB
	m["odeload.lat_p99_ms"] = ms(percentile(st.lats, 99))
	m["odeload.slo_miss_ratio"] = 1 - float64(within)/float64(st.attempted)
	m["odeload.fail_ratio"] = float64(st.failed) / float64(st.attempted)
	m["odeload.sched_lag_p50_ms"] = ms(percentile(st.lags, 50))
	m["odeload.sched_lag_p99_ms"] = ms(percentile(st.lags, 99))

	reads := 0
	for cls, name := range classNames {
		var all []time.Duration
		for _, c := range ph.clients {
			all = append(all, c.class[cls]...)
		}
		m["odeload.class."+name+"_p50_ms"] = ms(median(all))
		switch cls {
		case clsResult, clsResultGzip, clsResult304, clsStatus:
			reads += len(all)
		}
	}
	layerCounts(m, ph.before, ph.after, len(st.lats), reads)
}

// daemonSpans fetches the daemon's own stage spans of the traced jobs
// (GET /v1/jobs/{id}/trace), checks that each carries the trace ID the
// client minted, hangs them under the op that caused the job, and
// reports the median of each stage.
func (r *run) daemonSpans(m map[string]float64, clients []*client, rec *recorder) error {
	stages := map[string][]time.Duration{}
	fetched := 0
	for _, c := range clients {
		for _, job := range c.jobs {
			if fetched == maxTracedJobs {
				break
			}
			fetched++
			resp, err := http.Get("http://" + r.d.addr + "/v1/jobs/" + job.id + "/trace")
			if err != nil {
				return err
			}
			var ts service.TraceStatus
			err = json.NewDecoder(resp.Body).Decode(&ts)
			_ = resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				return fmt.Errorf("trace of job %s: status %d: %v", job.id, resp.StatusCode, err)
			}
			if ts.Trace != job.trace {
				return fmt.Errorf("job %s is traced as %s, the client sent %s", job.id, ts.Trace, job.trace)
			}
			if len(ts.Spans) < 2 {
				continue
			}
			parent := rec.add(job.trace, job.root, "daemon.job", ts.Spans[0].At, ts.Spans[len(ts.Spans)-1].At)
			for k := 1; k < len(ts.Spans); k++ {
				from, to := ts.Spans[k-1].At, ts.Spans[k].At
				rec.add(job.trace, parent, "daemon."+ts.Spans[k].Stage, from, to)
				stages[ts.Spans[k].Stage] = append(stages[ts.Spans[k].Stage], to.Sub(from))
			}
		}
	}
	for _, stage := range []string{"compiled", "swept", "persisted", "responded"} {
		m["service.stage_"+stage+"_p50_ms"] = ms(median(stages[stage]))
	}
	return nil
}
