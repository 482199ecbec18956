package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"odeproto/internal/asyncnet"
	"odeproto/internal/cluster"
	"odeproto/internal/core"
	"odeproto/internal/harness"
	"odeproto/internal/ode"
	"odeproto/internal/rewrite"
	"odeproto/internal/service"
	"odeproto/internal/sim"
	"odeproto/internal/store"
)

// The probes time each package's exported functions from the benchmark's
// own process, on inputs from the same generators the load uses. They
// touch no daemon or library code: a layer is measured by calling it.
// They run in a traced run only, after the daemon has been stopped.

// timeEach is the median duration of n calls of f, each timed alone.
func timeEach(n int, f func()) time.Duration {
	ds := make([]time.Duration, n)
	for k := range ds {
		t0 := time.Now()
		f()
		ds[k] = time.Since(t0)
	}
	return median(ds)
}

// allocsPer runs f n times and returns heap allocations and bytes per call.
func allocsPer(n int, f func()) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for k := 0; k < n; k++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// serve drives one request through a handler in-process.
func serve(h http.Handler, method, path string, body []byte, hdr ...string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	for k := 0; k+1 < len(hdr); k += 2 {
		req.Header.Set(hdr[k], hdr[k+1])
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// localJob submits spec to an in-process service and follows its stream
// to the terminal row, so the job is done when it returns.
func localJob(h http.Handler, spec []byte) (submitted, error) {
	var st submitted
	rec := serve(h, "POST", "/v1/jobs", spec)
	if rec.Code != http.StatusOK && rec.Code != http.StatusAccepted {
		return st, fmt.Errorf("in-process submit: %d %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return st, err
	}
	if out := serve(h, "GET", "/v1/jobs/"+st.ID+"/stream", nil); !bytes.Contains(out.Body.Bytes(), []byte(`"event":"done"`)) {
		return st, fmt.Errorf("in-process job %s did not finish: %s", st.ID, tail(out.Body.Bytes(), 120))
	}
	return st, nil
}

// finished submits spec through the service API and waits for the job's
// terminal snapshot, whose Created/Started/Finished stamps are the
// service's own.
func finished(srv *service.Server, spec service.JobSpec) (service.JobStatus, error) {
	job, err := srv.Submit(spec)
	if err != nil {
		return service.JobStatus{}, err
	}
	for {
		st := job.Snapshot(false)
		switch st.Status {
		case service.StatusDone:
			return st, nil
		case service.StatusFailed, service.StatusCancelled:
			return st, fmt.Errorf("in-process job %s: %s", st.Status, st.Error)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// layerTimes is how long each layer took for one replayed job.
type layerTimes struct {
	parse, rewrite, translate, sweep time.Duration
	appends                          [3]time.Duration
	rewrote                          bool
}

// replayJob does by hand, layer by layer, what the daemon does for a
// cache-miss job — parse, §7 rewrite when needed, translate, sweep with
// per-period recording, encode, three WAL appends, blob write, gzip
// sibling — with a span around each call. It is the probe.job tree of the
// trace file and the source of the compile-chain and store timings.
func replayJob(spec service.JobSpec, st *store.FileStore, rec *recorder, trace string) (layerTimes, error) {
	var lt layerTimes
	begin := time.Now()
	root := rec.add(trace, 0, "probe.job", begin, begin)
	step := func(name string, into *time.Duration, f func() error) error {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		*into = t1.Sub(t0)
		rec.add(trace, root, name, t0, t1)
		return err
	}

	var sys *ode.System
	if err := step("ode.parse", &lt.parse, func() (err error) {
		sys, err = ode.Parse(spec.Source, spec.Params)
		return err
	}); err != nil {
		return lt, err
	}
	if !sys.Classify().Mappable() {
		lt.rewrote = true
		if err := step("rewrite.make_mappable", &lt.rewrite, func() (err error) {
			sys, err = rewrite.MakeMappable(sys, "z")
			return err
		}); err != nil {
			return lt, err
		}
	}
	var proto *core.Protocol
	if err := step("core.translate", &lt.translate, func() (err error) {
		proto, err = core.Translate(sys, core.Options{})
		return err
	}); err != nil {
		return lt, err
	}

	res := service.JobResult{Runs: make([]service.RunResult, max(spec.Seeds, 1))}
	for _, s := range proto.States {
		res.States = append(res.States, string(s))
	}
	jobs := make([]harness.Job, len(res.Runs))
	for k := range jobs {
		run := &res.Runs[k]
		run.Seed = spec.Seed
		if len(jobs) > 1 {
			run.Seed = harness.DeriveSeed(spec.Seed, k)
		}
		jobs[k] = harness.Job{
			Seed: run.Seed, Periods: spec.Periods,
			New: func(seed int64) (harness.Runner, error) { return newRunner(spec, proto, seed) },
			AfterStep: func(r harness.Runner, t int) {
				row := service.PeriodRow{Period: t, Counts: make([]int, len(proto.States))}
				for si, s := range proto.States {
					row.Counts[si] = r.Count(s)
				}
				run.Rows = append(run.Rows, row)
			},
		}
	}
	if err := step("harness.sweep", &lt.sweep, func() error {
		_, err := harness.Sweep(jobs, harness.Options{})
		return err
	}); err != nil {
		return lt, err
	}
	// Spans only from here on: the encode and the blob calls are timed on
	// results of the sizes that matter (probeRows, probeReadPath).
	var unused time.Duration
	var data []byte
	if err := step("service.record_encode", &unused, func() (err error) {
		data, err = json.Marshal(&res)
		return err
	}); err != nil {
		return lt, err
	}

	specJSON, err := json.Marshal(spec)
	if err != nil {
		return lt, err
	}
	sum := sha256.Sum256(specJSON)
	key := hex.EncodeToString(sum[:])
	now := time.Now().UnixNano()
	for k, r := range []store.JobRecord{
		{Op: store.OpSubmitted, ID: key[:8], Key: key, Spec: specJSON, Trace: trace, SubmittedAt: now},
		{Op: store.OpRunning, ID: key[:8], Key: key, Trace: trace, StartedAt: now},
		{Op: store.OpDone, ID: key[:8], Key: key, Trace: trace, FinishedAt: now},
	} {
		if err := step("store.append", &lt.appends[k], func() error { return st.Append(r) }); err != nil {
			return lt, err
		}
	}
	if err := step("store.put_result", &unused, func() error { return st.PutResult(key, data) }); err != nil {
		return lt, err
	}
	if err := step("store.put_result_gzip", &unused, func() error {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(data); err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
		return st.PutResultGzip(key, buf.Bytes())
	}); err != nil {
		return lt, err
	}
	rec.setEnd(root, time.Now())
	return lt, nil
}

// newRunner builds the engine a spec names, as the service does.
func newRunner(spec service.JobSpec, proto *core.Protocol, seed int64) (harness.Runner, error) {
	counts := make(map[ode.Var]int, len(spec.Initial))
	for k, v := range spec.Initial {
		counts[ode.Var(k)] = v
	}
	switch spec.Engine {
	case service.EngineAggregate:
		return harness.NewAggregate(proto, counts, seed, 0)
	case service.EngineAsyncnet:
		return asyncnet.NewRunner(asyncnet.Config{N: spec.N, Protocol: proto, Initial: counts, Seed: seed})
	default:
		return harness.NewAgent(sim.Config{N: spec.N, Protocol: proto, Initial: counts, Seed: seed, Shards: max(spec.Shards, 1)})
	}
}

const (
	probeTinyJobs = 32  // tiny specs replayed for the compile-chain and store medians
	probeReads    = 300 // calls behind each read-path median
)

// probes fills m with every in-process (P) metric.
func (cfg *config) probes(m map[string]float64, r *run, daemonDir string, rec *recorder) error {
	dir, err := os.MkdirTemp(cfg.dataRoot, "probe-store-")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer func() { _ = st.Close() }()

	if cfg.probed == nil || cfg.probedSeed != r.seed {
		probed := map[string]float64{}
		if err := seedProbes(probed, r.seed, st); err != nil {
			return err
		}
		cfg.probed, cfg.probedSeed = probed, r.seed
	}
	for name, v := range cfg.probed {
		m[name] = v
	}

	// The probe.job trees of the trace file: the workload's own first ops.
	for k, spec := range r.sampleSpecs() {
		if _, err := replayJob(spec, st, rec, traceID(r.seed, -2-k)); err != nil {
			return fmt.Errorf("replaying %s job %d: %w", r.w.name, k, err)
		}
	}
	// store.Open on what the daemon left behind: WAL replay of the whole
	// run, the layer under odeprotod.recover_ms.
	var openErr error
	m["store.open_ms"] = ms(timeEach(3, func() {
		s, err := store.Open(daemonDir, store.Options{})
		if err != nil {
			openErr = err
			return
		}
		_ = s.Close()
	}))
	return openErr
}

// seedProbes runs the probes whose inputs are generated from the seed
// alone: they measure the same thing whichever workload's traced run they
// follow.
func seedProbes(m map[string]float64, seed int64, st *store.FileStore) error {
	srv := service.New(service.Config{})
	defer srv.Close()
	if err := probeMissPath(m, seed, srv, st); err != nil {
		return err
	}
	if err := probeReadPath(m, seed, srv, st); err != nil {
		return err
	}
	if err := probeRows(m, seed, srv); err != nil {
		return err
	}
	if err := probeEngines(m); err != nil {
		return err
	}
	if err := probeCluster(m, seed); err != nil {
		return err
	}
	m["obs.render_us"] = us(timeEach(50, func() { _ = srv.Metrics().Render(io.Discard) }))
	return nil
}

// sampleSpecs is the jobs of the workload's first ops, few enough to
// replay in well under a second.
func (r *run) sampleSpecs() []service.JobSpec {
	switch r.w.name {
	case "sweep-sim":
		jobs := simJobs(r.seed, 0)
		return jobs[:]
	case "sweep-rows":
		return []service.JobSpec{rowsSpec(r.seed, 0)}
	case "read-mix":
		return []service.JobSpec{preloadSpec(r.seed, 0), preloadSpec(r.seed, 1)}
	default:
		specs := make([]service.JobSpec, 8)
		for k := range specs {
			specs[k] = tinySpec(r.seed, k)
		}
		return specs
	}
}

// probeMissPath replays tiny submit-small specs layer by layer, and runs
// the same specs through an in-process service on the memory store: what
// the service adds on top of the bare sweep is its cache-miss overhead.
func probeMissPath(m map[string]float64, seed int64, srv *service.Server, st *store.FileStore) error {
	var parse, rewrites, translate, appends, overhead, route []time.Duration
	for k := 0; k < probeTinyJobs; k++ {
		spec := tinySpec(seed, 1_000_000+k) // beyond any op the load phases issued
		lt, err := replayJob(spec, st, nil, "")
		if err != nil {
			return err
		}
		parse = append(parse, lt.parse)
		translate = append(translate, lt.translate)
		if lt.rewrote {
			rewrites = append(rewrites, lt.rewrite)
		}
		appends = append(appends, lt.appends[:]...)

		t0 := time.Now()
		if _, err := srv.RouteKey(tinySpec(seed, 2_000_000+k)); err != nil { // a compile-memo miss
			return err
		}
		route = append(route, time.Since(t0))
		done, err := finished(srv, spec)
		if err != nil {
			return err
		}
		overhead = append(overhead, done.Finished.Sub(done.Created)-lt.sweep)
	}
	m["ode.parse_us"] = us(median(parse))
	m["rewrite.make_mappable_us"] = us(median(rewrites))
	m["core.translate_us"] = us(median(translate))
	m["store.append_us"] = us(median(appends))
	m["service.route_key_us"] = us(median(route))
	m["service.submit_miss_overhead_us"] = us(median(overhead))
	return nil
}

// probeReadPath times the read side on one read-mix-sized result: the
// service handlers in-process, the same GET over a real socket, and the
// file store's blob calls.
func probeReadPath(m map[string]float64, seed int64, srv *service.Server, st *store.FileStore) error {
	h := srv.Handler()
	spec, err := json.Marshal(preloadSpec(seed, 0))
	if err != nil {
		return err
	}
	job, err := localJob(h, spec)
	if err != nil {
		return err
	}
	resultPath, etag := "/v1/results/"+job.CacheKey, `"`+job.CacheKey+`"`
	blob := serve(h, "GET", resultPath, nil).Body.Bytes()

	hot := timeEach(probeReads, func() { serve(h, "GET", resultPath, nil) })
	m["service.get_hot_us"] = us(hot)
	m["service.get_304_us"] = us(timeEach(probeReads, func() { serve(h, "GET", resultPath, nil, "If-None-Match", etag) }))
	m["service.get_304_allocs"], _ = allocsPer(probeReads, func() { serve(h, "GET", resultPath, nil, "If-None-Match", etag) })
	m["service.status_splice_us"] = us(timeEach(probeReads, func() { serve(h, "GET", "/v1/jobs/"+job.ID, nil) }))
	m["service.stream_replay_us"] = us(timeEach(probeReads, func() { serve(h, "GET", "/v1/jobs/"+job.ID+"/stream", nil) }))
	m["service.submit_hit_us"] = us(timeEach(probeReads, func() { serve(h, "POST", "/v1/jobs", spec) }))
	m["service.submit_hit_allocs"], _ = allocsPer(probeReads, func() { serve(h, "POST", "/v1/jobs", spec) })

	// The same hot GET through a listening socket: the difference is what
	// net/http and the loopback add to every request of read-mix.
	ts := httptest.NewServer(h)
	c := newClient(ts.Listener.Addr().String())
	var getErr error
	socket := timeEach(probeReads, func() {
		if _, err := c.result(clsResult, job.CacheKey, false); err != nil {
			getErr = err
		}
	})
	c.close()
	ts.Close()
	if getErr != nil {
		return getErr
	}
	m["odeprotod.http_overhead_us"] = us(socket - hot)

	var ioErr error
	key := func(k int) string { return fmt.Sprintf("%064x", k+1) }
	k := 0
	m["store.put_result_us"] = us(timeEach(probeTinyJobs, func() {
		if err := st.PutResult(key(k), blob); err != nil {
			ioErr = err
		}
		k++
	}))
	k = 0
	m["store.get_result_us"] = us(timeEach(probeTinyJobs, func() {
		if _, err := st.GetResult(key(k)); err != nil {
			ioErr = err
		}
		k++
	}))
	k = 0
	m["store.reader_us"] = us(timeEach(probeTinyJobs, func() {
		rc, _, err := st.GetResultReader(key(k))
		if err != nil {
			ioErr = err
			return
		}
		if _, err := io.Copy(io.Discard, rc); err != nil {
			ioErr = err
		}
		_ = rc.Close()
		k++
	}))
	return ioErr
}

// probeRows prices what sweep-rows adds to the engine: the service's
// per-row recording (the same 20 000-period job recorded every period and
// recorded once, by the service's own start and finish stamps) and the
// encode of the 20 000-row result.
func probeRows(m map[string]float64, seed int64, srv *service.Server) error {
	every := rowsSpec(seed, 3_000_000)
	once := rowsSpec(seed, 3_000_001)
	once.RecordEvery = once.Periods
	recorded, err := finished(srv, every)
	if err != nil {
		return err
	}
	bare, err := finished(srv, once)
	if err != nil {
		return err
	}
	rows := float64(every.Periods - 1)
	m["service.row_record_ns"] = float64(recorded.Finished.Sub(*recorded.Started)-bare.Finished.Sub(*bare.Started)) / rows

	job, err := srv.Submit(every) // a cache hit: the finished job with its result
	if err != nil {
		return err
	}
	res := job.Snapshot(true).Result
	if res == nil {
		return fmt.Errorf("probe: the 20k-row job has no result")
	}
	var encErr error
	enc := timeEach(3, func() {
		if _, err := json.Marshal(res); err != nil {
			encErr = err
		}
	})
	m["service.encode_ns_per_row"] = float64(enc) / float64(every.Periods)
	return encErr
}

// probeEngines times the simulation engines bare, at the sizes sweep-sim
// submits, and reads the paper's complexity measure — messages per period
// at a fixed seed — which must repeat exactly on every run of any commit
// that does not change what the protocol does.
func probeEngines(m map[string]float64) error {
	spec := endemicSpec(service.EngineAgent, simN, 1, 1)
	sys, err := ode.Parse(spec.Source, spec.Params)
	if err != nil {
		return err
	}
	proto, err := core.Translate(sys, core.Options{})
	if err != nil {
		return err
	}
	counts := func(n int) map[ode.Var]int {
		out := map[ode.Var]int{}
		for k, v := range initial([]string{"x", "y"}, []float64{0.9, 0.1}, n) {
			out[ode.Var(k)] = v
		}
		return out
	}
	agent := func(n, shards int) (*sim.Engine, time.Duration, error) {
		t0 := time.Now()
		e, err := sim.New(sim.Config{N: n, Protocol: proto, Initial: counts(n), Seed: 1, Shards: shards})
		return e, time.Since(t0), err
	}
	// Engines are timed from a fresh start over the periods sweep-sim asks
	// for: occupancy drifts from 90/10/0 % towards the averse state, and a
	// period's cost follows how many processes are still sampling.
	perProc := func(e *sim.Engine, periods int) float64 {
		t0 := time.Now()
		e.Run(periods)
		return float64(time.Since(t0)) / float64(periods) / float64(e.N())
	}

	e, built, err := agent(simN, 1)
	if err != nil {
		return err
	}
	m["sim.new_ms"] = ms(built)
	m["sim.agent_ns_per_proc_period"] = perProc(e, simAgentPeriods-1)
	m["sim.agent_allocs_per_period"], _ = allocsPer(1, e.Step)
	// Period simAgentPeriods at seed 1.
	m["sim.msgs_per_period"] = float64(e.MessagesLastPeriod())

	if e, _, err = agent(1_000_000, 1); err != nil {
		return err
	}
	m["sim.agent_1m_ns_per_proc_period"] = perProc(e, 3)
	if e, _, err = agent(simN, 4); err != nil {
		return err
	}
	m["sim.sharded_ns_per_proc_period"] = perProc(e, simShardPeriods-1)
	_, m["sim.sharded_bytes_per_period"] = allocsPer(1, e.Step)

	agg, err := sim.NewAggregate(proto, counts(rowsN), 1, 0)
	if err != nil {
		return err
	}
	t0 := time.Now()
	agg.Run(rowsPeriods)
	m["sim.aggregate_ns_per_period"] = float64(time.Since(t0)) / rowsPeriods

	var res *asyncnet.Result
	var runErr error
	cfg := asyncnet.Config{N: simAsyncN, Protocol: proto, Initial: counts(simAsyncN), Seed: 1, Periods: simAsyncPeriods}
	t0 = time.Now()
	allocs, _ := allocsPer(1, func() { res, runErr = asyncnet.Run(cfg) })
	took := time.Since(t0)
	if runErr != nil {
		return runErr
	}
	m["asyncnet.virtual_ns_per_msg"] = float64(took) / float64(res.MessagesSent)
	m["asyncnet.allocs_per_msg"] = allocs / float64(res.MessagesSent)
	m["asyncnet.msgs_per_period"] = float64(res.MessagesSent) / simAsyncPeriods

	// The harness around the engines: four seeds of a 20 000-process run,
	// as bare engine loops, as a one-worker sweep, and across the cores.
	const hn, hp = 20_000, 20
	job := func(k int) harness.Job {
		return harness.Job{Seed: int64(k + 1), Periods: hp, New: func(seed int64) (harness.Runner, error) {
			return harness.NewAgent(sim.Config{N: hn, Protocol: proto, Initial: counts(hn), Seed: seed, Shards: 1})
		}}
	}
	jobs := []harness.Job{job(0), job(1), job(2), job(3)}
	var sweepErr error
	sweep := func(workers int) time.Duration {
		return timeEach(3, func() {
			if _, err := harness.Sweep(jobs, harness.Options{Workers: workers}); err != nil {
				sweepErr = err
			}
		})
	}
	bare := timeEach(3, func() {
		for _, j := range jobs {
			r, err := j.New(j.Seed)
			if err != nil {
				sweepErr = err
				return
			}
			for p := 0; p < hp; p++ {
				r.Step()
			}
		}
	})
	serial, parallel := sweep(1), sweep(runtime.NumCPU())
	m["harness.sweep_overhead_pct"] = 100 * ratio(float64(serial-bare), float64(bare))
	m["harness.parallel_speedup"] = ratio(float64(serial), float64(parallel))
	return sweepErr
}

// probeCluster puts two in-process routers on loopback listeners around
// two services and times a result GET through the node that owns the key
// (against the bare service handler: the router's own cost) and through
// the node that must forward it.
func probeCluster(m map[string]float64, seed int64) error {
	var hts [2]*httptest.Server
	var svcs [2]*service.Server
	var routers [2]*cluster.Router
	peers := make([]string, 2)
	for k := range hts {
		hts[k] = httptest.NewUnstartedServer(nil)
		peers[k] = hts[k].Listener.Addr().String()
	}
	defer func() {
		for k := range hts {
			hts[k].Close()
			if routers[k] != nil {
				routers[k].Close()
			}
			if svcs[k] != nil {
				svcs[k].Close()
			}
		}
	}()
	for k := range hts {
		prefix, err := cluster.NodePrefix(peers, peers[k])
		if err != nil {
			return err
		}
		svcs[k] = service.New(service.Config{JobIDPrefix: prefix})
		if routers[k], err = cluster.New(cluster.Config{Peers: peers, Self: peers[k], Service: svcs[k]}); err != nil {
			return err
		}
		hts[k].Config.Handler = routers[k]
		hts[k].Start()
	}
	spec, err := json.Marshal(preloadSpec(seed, 0))
	if err != nil {
		return err
	}
	job, err := localJob(routers[0], spec)
	if err != nil {
		return err
	}
	owner := 0
	if !svcs[0].HasResult(job.CacheKey) {
		owner = 1
	}
	path := "/v1/results/" + job.CacheKey
	get := func(h http.Handler) time.Duration {
		return timeEach(probeReads, func() { serve(h, "GET", path, nil) })
	}
	m["cluster.route_local_us"] = us(get(routers[owner]) - get(svcs[owner].Handler()))
	m["cluster.forward_us"] = us(get(routers[1-owner]))
	return nil
}
