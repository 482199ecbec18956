// Benchmarks regenerating every experiment of the paper's evaluation at
// reduced scale (cmd/figures runs the same experiments at paper scale).
// Each benchmark reports the quantity the paper's figure or in-text result
// is about via b.ReportMetric, so `go test -bench=. -benchmem` doubles as
// a one-page reproduction report.
package odeproto_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"odeproto/internal/asyncnet"
	"odeproto/internal/churn"
	"odeproto/internal/cluster"
	"odeproto/internal/core"
	"odeproto/internal/endemic"
	"odeproto/internal/epidemic"
	"odeproto/internal/harness"
	"odeproto/internal/lv"
	"odeproto/internal/ode"
	"odeproto/internal/replica"
	"odeproto/internal/service"
	"odeproto/internal/sim"
	"odeproto/internal/solver"
	"odeproto/internal/store"
)

// BenchmarkFig2EndemicPhasePortrait simulates the Figure 2 stable-spiral
// phase portrait (N = 1000, β = 4, γ = 1, α = 0.01, seven initial points)
// and reports the simulated endpoint's distance to the analytic
// equilibrium.
func BenchmarkFig2EndemicPhasePortrait(b *testing.B) {
	p := endemic.Params{B: 2, Gamma: 1.0, Alpha: 0.01}
	eq := endemic.StableEquilibrium(p.Beta(), p.Gamma, p.Alpha)
	var dist float64
	for i := 0; i < b.N; i++ {
		trs, err := endemic.PhasePortrait(p, endemic.Figure2InitialPoints(), 600, 5, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		tr := trs[0]
		dx := tr.Xs[len(tr.Xs)-1] - 1000*eq.Receptive
		dy := tr.Ys[len(tr.Ys)-1] - 1000*eq.Stash
		dist = math.Hypot(dx, dy)
	}
	b.ReportMetric(dist, "final_dist_to_equilibrium")
}

// BenchmarkFig4LVPhasePortrait simulates the Figure 4 bistable portrait
// and reports how many of the off-diagonal initial points converged to the
// majority corner predicted by Theorem 4.
func BenchmarkFig4LVPhasePortrait(b *testing.B) {
	correct := 0
	for i := 0; i < b.N; i++ {
		trs, err := lv.PhasePortrait(1000, 0.05, lv.Figure4InitialPoints(), 2500, 25, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		correct = 0
		for _, tr := range trs {
			lastX := tr.Xs[len(tr.Xs)-1]
			lastY := tr.Ys[len(tr.Ys)-1]
			switch {
			case tr.X0 > tr.Y0 && lastX > 950:
				correct++
			case tr.X0 < tr.Y0 && lastY > 950:
				correct++
			case tr.X0 == tr.Y0:
				correct++ // ties may break either way (§4.2.2)
			}
		}
	}
	b.ReportMetric(float64(correct), "theorem4_correct_of_7")
}

// BenchmarkFig5MassiveFailure runs the massive-failure experiment (50% of
// hosts crash) at N = 20000 and reports the stash population before and
// after the failure — the paper's Figure 5 shape: the count halves and
// stabilizes, never reaching zero.
func BenchmarkFig5MassiveFailure(b *testing.B) {
	var pre, post float64
	for i := 0; i < b.N; i++ {
		res, err := endemic.RunMassiveFailure(endemic.MassiveFailureConfig{
			N:      20000,
			Params: endemic.Params{B: 2, Gamma: 1e-2, Alpha: 1e-4},
			FailAt: 500, FailFrac: 0.5,
			Periods: 1000, RecordFrom: 0, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		pre, post = res.Stash[480], res.Stash[len(res.Stash)-1]
		if post == 0 {
			b.Fatal("replicas extinct after massive failure")
		}
	}
	b.ReportMetric(pre, "stash_before")
	b.ReportMetric(post, "stash_after")
}

// BenchmarkFig6FileFlux reports the file-flux rate (receptive→stash
// transfers per period) before and after the massive failure; the paper's
// point is that the failure barely disturbs it.
func BenchmarkFig6FileFlux(b *testing.B) {
	var fluxPre, fluxPost float64
	for i := 0; i < b.N; i++ {
		res, err := endemic.RunMassiveFailure(endemic.MassiveFailureConfig{
			N:      20000,
			Params: endemic.Params{B: 2, Gamma: 1e-2, Alpha: 1e-4},
			FailAt: 500, FailFrac: 0.5,
			Periods: 1000, RecordFrom: 0, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		fluxPre, fluxPost = avg(res.Flux[300:500]), avg(res.Flux[800:])
	}
	b.ReportMetric(fluxPre, "flux_before")
	b.ReportMetric(fluxPost, "flux_after")
}

// BenchmarkFig7AnalysisVsMeasured runs the analysis-vs-measured sweep and
// reports the worst relative error of the measured median stash population
// against the closed-form equilibrium (2) — the paper's Figure 7 shows
// they "tally very closely".
func BenchmarkFig7AnalysisVsMeasured(b *testing.B) {
	p := endemic.Params{B: 2, Gamma: 0.1, Alpha: 0.001}
	var worst float64
	for i := 0; i < b.N; i++ {
		points, err := endemic.RunEquilibriumSweep([]int{12500, 25000}, p, 600, 600, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, pt := range points {
			if e := math.Abs(pt.StashMeasured.Median-pt.StashAnalysis) / pt.StashAnalysis; e > worst {
				worst = e
			}
		}
	}
	b.ReportMetric(worst*100, "worst_error_%")
}

// BenchmarkFig8Untraceability runs the stasher-scatter experiment and
// reports the |time, host-ID| correlation (≈ 0 for untraceable replicas)
// and the load-balancing fairness CV.
func BenchmarkFig8Untraceability(b *testing.B) {
	p := endemic.Params{B: 2, Gamma: 0.1, Alpha: 0.01}
	var corr, fair float64
	for i := 0; i < b.N; i++ {
		res, err := endemic.RunUntraceability(1000, p, 500, 200, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		corr, fair = math.Abs(res.TimeHostCorrelation), res.Fairness
	}
	b.ReportMetric(corr, "abs_time_host_corr")
	b.ReportMetric(fair, "fairness_cv")
}

// BenchmarkFig9ChurnPopulations runs the endemic protocol under
// Overnet-calibrated churn and reports the minimum stash population over
// the recorded window (the paper's point: it stays stable and non-zero).
func BenchmarkFig9ChurnPopulations(b *testing.B) {
	var minStash float64
	for i := 0; i < b.N; i++ {
		trace, err := churn.Synthesize(2000, 40, int64(i), churn.Config{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := endemic.RunChurn(endemic.ChurnConfig{
			N: 2000, Params: endemic.Params{B: 32, Gamma: 0.1, Alpha: 0.005},
			Trace: trace, PeriodsPerHour: 10,
			RecordFromHour: 20, RecordToHour: 40, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		minStash = res.Stash[0]
		for _, s := range res.Stash {
			if s < minStash {
				minStash = s
			}
		}
	}
	b.ReportMetric(minStash, "min_stash")
}

// BenchmarkFig10ChurnTransitions reports the mean per-period transition
// counts under churn (Figure 10's three streams stay low and stable).
func BenchmarkFig10ChurnTransitions(b *testing.B) {
	var transfers, deletions float64
	for i := 0; i < b.N; i++ {
		trace, err := churn.Synthesize(2000, 40, int64(i), churn.Config{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := endemic.RunChurn(endemic.ChurnConfig{
			N: 2000, Params: endemic.Params{B: 32, Gamma: 0.1, Alpha: 0.005},
			Trace: trace, PeriodsPerHour: 10,
			RecordFromHour: 20, RecordToHour: 40, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		transfers, deletions = avg(res.RcptvToStash), avg(res.StashToAverse)
	}
	b.ReportMetric(transfers, "transfers_per_period")
	b.ReportMetric(deletions, "deletions_per_period")
}

// BenchmarkFig11LVConvergence runs the Figure 11 majority run (60/40
// split) and reports the convergence period; the paper observes < 500 at
// N = 100,000, and the O(log N) complexity predicts a similar count at
// this scale.
func BenchmarkFig11LVConvergence(b *testing.B) {
	var converged float64
	for i := 0; i < b.N; i++ {
		run, err := lv.Simulate(lv.Config{
			N: 20000, InitialX: 12000, InitialY: 8000,
			Periods: 1500, FailAt: -1, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if run.Winner != lv.ProposalX {
			b.Fatalf("initial majority lost (winner %q)", run.Winner)
		}
		converged = float64(run.ConvergedAt)
	}
	b.ReportMetric(converged, "convergence_period")
}

// BenchmarkFig12LVMassiveFailure crashes 50% of processes at t = 100 and
// reports the (delayed) convergence period — the paper's run converged at
// t = 862 versus < 500 without failures.
func BenchmarkFig12LVMassiveFailure(b *testing.B) {
	var converged float64
	for i := 0; i < b.N; i++ {
		run, err := lv.Simulate(lv.Config{
			N: 20000, InitialX: 12000, InitialY: 8000,
			Periods: 2500, FailAt: 100, FailFrac: 0.5, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if run.ConvergedAt < 0 {
			b.Fatal("did not converge after massive failure")
		}
		converged = float64(run.ConvergedAt)
	}
	b.ReportMetric(converged, "convergence_period")
}

// BenchmarkR1EpidemicLogN reports epidemic completion rounds at N = 16000
// against the 2·ln N prediction.
func BenchmarkR1EpidemicLogN(b *testing.B) {
	var rounds float64
	for i := 0; i < b.N; i++ {
		res, err := epidemic.Run(16000, int64(i), 1000)
		if err != nil {
			b.Fatal(err)
		}
		rounds = float64(res.Rounds)
	}
	b.ReportMetric(rounds, "rounds")
	b.ReportMetric(epidemic.PredictedRounds(16000), "predicted_2lnN")
}

// BenchmarkR2Longevity evaluates the §4.1.3 longevity closed forms (the
// paper's 1.28e10- and 1.45e25-year headline numbers).
func BenchmarkR2Longevity(b *testing.B) {
	var y50, y100 float64
	for i := 0; i < b.N; i++ {
		y50 = endemic.ExpectedLongevityYears(50, 6)
		y100 = endemic.ExpectedLongevityYears(100, 6)
	}
	b.ReportMetric(y50/1e10, "longevity50_1e10yr")
	b.ReportMetric(y100/1e25, "longevity100_1e25yr")
}

// BenchmarkR3RealityCheck evaluates the §5.1 bandwidth estimate (paper:
// 3.92e-3 bps per file per host).
func BenchmarkR3RealityCheck(b *testing.B) {
	var bw float64
	for i := 0; i < b.N; i++ {
		rc := endemic.ComputeRealityCheck(100000,
			endemic.Params{B: 2, Gamma: 1e-3, Alpha: 1e-6}, 88.2*1024, 6)
		bw = rc.BandwidthBps
	}
	b.ReportMetric(bw*1e3, "bandwidth_mbps_e3")
}

// BenchmarkR4LVConvergenceComplexity compares the §4.2.2 closed-form
// linearized solution against RK4 integration of the full equations and
// reports the worst deviation of y(t).
func BenchmarkR4LVConvergenceComplexity(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		tr, err := solver.RK4(solver.FromSystem(lv.System()),
			[]float64{0.01, 1 - 0.015, 0.005}, 0, 2, 1e-4)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, tm := range []float64{0.25, 0.5, 1, 2} {
			_, yCF := lv.ConvergenceComplexity(0.01, 0.015, tm)
			if d := math.Abs(tr.At(tm)[1] - yCF); d > worst {
				worst = d
			}
		}
	}
	b.ReportMetric(worst, "worst_y_deviation")
}

// --- harness scheduler benchmarks ---

// benchSweep runs the Figure-2 phase portrait (seven jobs) at the given
// GOMAXPROCS, which sizes the harness worker pool (0 keeps the default);
// the serial/parallel pair below measures the sweep scheduler's multi-core
// speedup rather than asserting it.
func benchSweep(b *testing.B, procs int) {
	if procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	}
	p := endemic.Params{B: 2, Gamma: 1.0, Alpha: 0.01}
	for i := 0; i < b.N; i++ {
		if _, err := endemic.PhasePortrait(p, endemic.Figure2InitialPoints(), 600, 5, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// BenchmarkSweepSerial pins the harness to one worker.
func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel lets the harness use every core.
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 0) }

// --- service benchmarks ---

// benchServiceSpec builds the job body the service benchmarks POST: a
// tiny epidemic sweep whose seed the cache-miss benchmark varies.
func benchServiceSpec(seed int64) []byte {
	body, err := json.Marshal(map[string]any{
		"source":  "x' = -x*y\ny' = x*y",
		"n":       300,
		"initial": map[string]int{"x": 290, "y": 10},
		"periods": 20,
		"seed":    seed,
	})
	if err != nil {
		panic(err)
	}
	return body
}

// postServiceJob drives one POST /v1/jobs through the HTTP handler and,
// when the response is not already terminal (a cache miss), polls
// GET /v1/jobs/{id} until the job is done.
func postServiceJob(b *testing.B, handler http.Handler, body []byte) {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK && rec.Code != http.StatusAccepted {
		b.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	var st service.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		b.Fatal(err)
	}
	for st.Status == service.StatusQueued || st.Status == service.StatusRunning {
		time.Sleep(100 * time.Microsecond)
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID, nil)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("poll: %d %s", rec.Code, rec.Body.String())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			b.Fatal(err)
		}
	}
	if st.Status != service.StatusDone {
		b.Fatalf("job finished %s: %s", st.Status, st.Error)
	}
}

// BenchmarkServiceCacheHit measures request throughput through the HTTP
// handler when every POST is answered from the content-addressed result
// cache (the steady state of a service absorbing duplicate requests).
func BenchmarkServiceCacheHit(b *testing.B) {
	srv := service.New(service.Config{Workers: 1})
	defer srv.Close()
	handler := srv.Handler()
	body := benchServiceSpec(1)
	postServiceJob(b, handler, body) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postServiceJob(b, handler, body)
	}
	b.StopTimer()
	if hits := srv.SweepsExecuted(); hits != 1 {
		b.Fatalf("cache-hit benchmark executed %d sweeps, want 1", hits)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServiceCacheMiss measures the full compile-enqueue-simulate
// path: every POST carries a fresh seed, so every request runs a sweep.
func BenchmarkServiceCacheMiss(b *testing.B) {
	srv := service.New(service.Config{Workers: 1})
	defer srv.Close()
	handler := srv.Handler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postServiceJob(b, handler, benchServiceSpec(int64(i+1)))
	}
	b.StopTimer()
	if n := srv.SweepsExecuted(); n != int64(b.N) {
		b.Fatalf("cache-miss benchmark executed %d sweeps for %d requests", n, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// --- cluster benchmarks ---

// startBenchCluster boots n odeprotod-shaped nodes — service, ring
// router, real loopback HTTP server — sharing one peer list, and returns
// their base URLs, services (for the sweep counters), and a cleanup.
func startBenchCluster(b *testing.B, n int) ([]string, []*service.Server, func()) {
	b.Helper()
	hts := make([]*httptest.Server, n)
	peers := make([]string, n)
	for i := range hts {
		hts[i] = httptest.NewUnstartedServer(nil)
		peers[i] = hts[i].Listener.Addr().String()
	}
	svcs := make([]*service.Server, n)
	routers := make([]*cluster.Router, n)
	bases := make([]string, n)
	for i := range hts {
		prefix, err := cluster.NodePrefix(peers, peers[i])
		if err != nil {
			b.Fatal(err)
		}
		svcs[i] = service.New(service.Config{Workers: 1, JobIDPrefix: prefix})
		rt, err := cluster.New(cluster.Config{Peers: peers, Self: peers[i], Service: svcs[i]})
		if err != nil {
			b.Fatal(err)
		}
		routers[i] = rt
		hts[i].Config.Handler = rt
		hts[i].Start()
		bases[i] = hts[i].URL
	}
	cleanup := func() {
		for i := range hts {
			hts[i].Close()
			routers[i].Close()
			svcs[i].Close()
		}
	}
	return bases, svcs, cleanup
}

// postClusterJob drives one POST /v1/jobs over real HTTP against base
// and polls the returned job (through the same node, exercising the
// ID-routed proxy when the job lives elsewhere) until it is done.
// Errors use b.Error, not b.Fatal: this runs inside RunParallel workers.
func postClusterJob(b *testing.B, client *http.Client, base string, body []byte) bool {
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Error(err)
		return false
	}
	var st service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted) {
		b.Errorf("submit: %d %v", resp.StatusCode, err)
		return false
	}
	for st.Status == service.StatusQueued || st.Status == service.StatusRunning {
		time.Sleep(400 * time.Microsecond)
		resp, err := client.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			b.Error(err)
			return false
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Errorf("poll: %d %v", resp.StatusCode, err)
			return false
		}
	}
	if st.Status != service.StatusDone {
		b.Errorf("job finished %s: %s", st.Status, st.Error)
		return false
	}
	return true
}

// BenchmarkClusterCacheMiss measures fresh-spec throughput of a 3-node
// ring absorbing 8 concurrent clients round-robined across the nodes:
// every POST routes to its key's owner, so the three worker pools share
// the load while each key still runs exactly once. The comparison
// baseline is BenchmarkClusterCacheMissSingleNode (same transport, same
// client parallelism, one node).
func BenchmarkClusterCacheMiss(b *testing.B) {
	bases, svcs, cleanup := startBenchCluster(b, 3)
	defer cleanup()
	client := &http.Client{Transport: &http.Transport{MaxIdleConns: 128, MaxIdleConnsPerHost: 64}}
	var seq atomic.Int64
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := seq.Add(1)
			postClusterJob(b, client, bases[int(i)%len(bases)], benchServiceSpec(i))
		}
	})
	b.StopTimer()
	var sweeps int64
	for _, s := range svcs {
		sweeps += s.SweepsExecuted()
	}
	if sweeps != int64(b.N) {
		b.Fatalf("cluster executed %d sweeps for %d distinct specs", sweeps, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(float64(len(bases)), "nodes")
}

// BenchmarkClusterCacheMissSingleNode is the single-node baseline for
// the pair: the identical client load (8 concurrent clients, fresh seeds,
// real loopback HTTP) against one plain odeprotod service.
func BenchmarkClusterCacheMissSingleNode(b *testing.B) {
	srv := service.New(service.Config{Workers: 1})
	defer srv.Close()
	ht := httptest.NewServer(srv.Handler())
	defer ht.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConns: 128, MaxIdleConnsPerHost: 64}}
	var seq atomic.Int64
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			postClusterJob(b, client, ht.URL, benchServiceSpec(seq.Add(1)))
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(1, "nodes")
}

// BenchmarkClusterCacheHit measures duplicate-spec throughput on the
// ring: every node serves the same key, two of the three by proxying to
// the owner over the pooled connections, and the sweep counter stays at
// one across the whole run.
func BenchmarkClusterCacheHit(b *testing.B) {
	bases, svcs, cleanup := startBenchCluster(b, 3)
	defer cleanup()
	client := &http.Client{Transport: &http.Transport{MaxIdleConns: 128, MaxIdleConnsPerHost: 64}}
	body := benchServiceSpec(1)
	if !postClusterJob(b, client, bases[0], body) { // warm the owner's cache
		b.Fatal("warmup failed")
	}
	var seq atomic.Int64
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			postClusterJob(b, client, bases[int(seq.Add(1))%len(bases)], body)
		}
	})
	b.StopTimer()
	var sweeps int64
	for _, s := range svcs {
		sweeps += s.SweepsExecuted()
	}
	if sweeps != 1 {
		b.Fatalf("cache-hit benchmark executed %d sweeps, want 1", sweeps)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(float64(len(bases)), "nodes")
}

// --- persistence benchmarks ---

// BenchmarkStoreAppend measures the durable job journal's synced append
// path — frame, CRC, write, fsync — which an accepted job pays once, for its
// submitted record (a failed or cancelled one again for its terminal record).
func BenchmarkStoreAppend(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	spec := json.RawMessage(`{"source":"x' = -x*y\ny' = x*y\n","n":400,"periods":25,"seed":7}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := store.JobRecord{Op: store.OpSubmitted, ID: "j000001", Key: "abcd1234", Spec: spec, SubmittedAt: int64(i + 1)}
		if err := st.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "appends/s")
}

// BenchmarkStoreAppendParallel measures the journal under concurrent
// appenders — the submit-path load a cluster front-end fans onto one node.
// Every append pays its own fsync; the fsyncs metric shows it.
func BenchmarkStoreAppendParallel(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	spec := json.RawMessage(`{"source":"x' = -x*y\ny' = x*y\n","n":400,"periods":25,"seed":7}`)
	var seq atomic.Int64
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := seq.Add(1)
			rec := store.JobRecord{Op: store.OpSubmitted, ID: fmt.Sprintf("j%06d", i),
				Key: "abcd1234", Spec: spec, SubmittedAt: i}
			if err := st.Append(rec); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "appends/s")
	b.ReportMetric(float64(st.Stats().WALSyncs), "fsyncs")
}

// benchResultBlob renders the canonical bytes of a one-run result of the given
// number of rows.
func benchResultBlob(b *testing.B, seed int64, rows int) []byte {
	b.Helper()
	res := service.JobResult{States: []string{"x", "y"}, Runs: []service.RunResult{{Seed: seed}}}
	for p := 0; p < rows; p++ {
		res.Runs[0].Rows = append(res.Runs[0].Rows, service.PeriodRow{Period: p, Counts: []int{400 - p, p}})
	}
	blob, err := json.Marshal(&res)
	if err != nil {
		b.Fatal(err)
	}
	return blob
}

// benchStoreDir builds a data dir holding jobs completed lifecycles and
// their content-addressed result blobs.
func benchStoreDir(b *testing.B, jobs, rowsPerResult int) string {
	b.Helper()
	dir := b.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < jobs; i++ {
		blob := benchResultBlob(b, int64(i+1), rowsPerResult)
		key := fmt.Sprintf("%064x", i+1)
		id := fmt.Sprintf("j%06d", i+1)
		if err := st.PutResult(key, blob); err != nil {
			b.Fatal(err)
		}
		for _, rec := range []store.JobRecord{
			{Op: store.OpSubmitted, ID: id, Key: key, SubmittedAt: int64(3*i + 1)},
			{Op: store.OpRunning, ID: id, StartedAt: int64(3*i + 2)},
			{Op: store.OpDone, ID: id, FinishedAt: int64(3*i + 3)},
		} {
			if err := st.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
	}
	return dir
}

// BenchmarkStoreRecover measures WAL replay: reopening a data dir with
// 200 completed job lifecycles (600 records) and rebuilding their merged
// state.
func BenchmarkStoreRecover(b *testing.B) {
	const jobs = 200
	dir := benchStoreDir(b, jobs, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if got := len(st.Recovered()); got != jobs {
			b.Fatalf("recovered %d jobs, want %d", got, jobs)
		}
		st.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*jobs/b.Elapsed().Seconds(), "jobs_recovered/s")
}

// BenchmarkCacheWarmFromDisk measures a full service boot against a
// populated data dir: WAL replay plus loading the persisted results into
// the LRU (the restart path a production daemon pays once).
func BenchmarkCacheWarmFromDisk(b *testing.B) {
	const jobs = 64
	dir := benchStoreDir(b, jobs, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		srv := service.New(service.Config{Workers: 1, CacheSize: jobs, Store: st})
		if got := metricValue(b, srv, "odeproto_warmed_results"); got != jobs {
			b.Fatalf("warmed %g results, want %d", got, jobs)
		}
		srv.Close()
		st.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*jobs/b.Elapsed().Seconds(), "results_warmed/s")
}

// BenchmarkStorePutResult measures the second commit point of a job with a
// 20 000-row result: deflate, write, fsync, rename, directory fsync.
// stored-B/op is what reached the disk for the raw-B/op handed in.
func BenchmarkStorePutResult(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	blob := benchResultBlob(b, 1, 20000)
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.PutResult(fmt.Sprintf("%064x", i+1), blob); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stats := st.Stats()
	b.ReportMetric(float64(stats.ResultBytes)/float64(b.N), "stored-B/op")
	b.ReportMetric(float64(stats.ResultRawBytes)/float64(b.N), "raw-B/op")
}

// BenchmarkStoreGetResultReader measures the disk path of an identity GET
// past the LRU: open the stored member and inflate it to EOF, trailer check
// included.
func BenchmarkStoreGetResultReader(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	blob := benchResultBlob(b, 1, 20000)
	key := fmt.Sprintf("%064x", 1)
	if err := st.PutResult(key, blob); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc, size, err := st.GetResultReader(key)
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, rc)
		_ = rc.Close()
		if err != nil || n != size || n != int64(len(blob)) {
			b.Fatalf("streamed %d of %d declared bytes (blob %d): %v", n, size, len(blob), err)
		}
	}
}

// --- ablation and substrate benchmarks ---

// BenchmarkAblationFrameworkVsFigure1 compares the canonical framework
// translation of the endemic equations against the paper's Figure-1
// variant: same equilibrium, different message complexity per period.
func BenchmarkAblationFrameworkVsFigure1(b *testing.B) {
	p := endemic.Params{B: 2, Gamma: 0.1, Alpha: 0.01}
	run := func(proto *core.Protocol, seed int64) (stash, msgs float64) {
		eq := endemic.StableEquilibrium(p.Beta(), p.Gamma, p.Alpha)
		n := 10000
		initY := int(eq.Stash * float64(n))
		initX := int(eq.Receptive * float64(n))
		var stashSum, msgSum float64
		out := harness.Run(harness.Job{
			Name: "ablation-protocol",
			Seed: seed,
			New: func(seed int64) (harness.Runner, error) {
				return harness.NewAgent(sim.Config{
					N: n, Protocol: proto,
					Initial: map[ode.Var]int{
						endemic.Receptive: initX, endemic.Stash: initY,
						endemic.Averse: n - initX - initY,
					},
					Seed: seed,
				})
			},
			Periods: 1000,
			AfterStep: func(r harness.Runner, t int) {
				if t < 500 {
					return
				}
				stashSum += float64(r.Count(endemic.Stash))
				msgSum += float64(r.(*harness.AgentRunner).MessagesLastPeriod())
			},
		})
		if out.Err != nil {
			b.Fatal(out.Err)
		}
		return stashSum / 500, msgSum / 500 / float64(n)
	}
	var fwStash, fwMsgs, v1Stash, v1Msgs float64
	for i := 0; i < b.N; i++ {
		fw, err := endemic.NewFrameworkProtocol(p)
		if err != nil {
			b.Fatal(err)
		}
		v1, err := endemic.NewFigure1Protocol(p)
		if err != nil {
			b.Fatal(err)
		}
		fwStash, fwMsgs = run(fw, int64(i))
		v1Stash, v1Msgs = run(v1, int64(i))
	}
	b.ReportMetric(fwStash, "framework_stash")
	b.ReportMetric(v1Stash, "figure1_stash")
	b.ReportMetric(fwMsgs, "framework_msgs_per_proc")
	b.ReportMetric(v1Msgs, "figure1_msgs_per_proc")
}

// BenchmarkAblationTokenDirectedVsTTL compares §6's two token delivery
// strategies on the x' = −y² system: membership-directed routing versus
// TTL-bounded random walk, reporting delivered-flow ratio.
func BenchmarkAblationTokenDirectedVsTTL(b *testing.B) {
	sys, err := ode.Parse("x' = -y^2\ny' = y^2", nil)
	if err != nil {
		b.Fatal(err)
	}
	proto, err := core.Translate(sys, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	// Scarce-target regime: only 2% of processes are in the token's
	// target state, so a short random walk often expires while directed
	// delivery always lands — the §6 trade-off.
	run := func(ttl int, seed int64) (moved, lost float64) {
		out := harness.Run(harness.Job{
			Name: "token-delivery",
			Seed: seed,
			New: func(seed int64) (harness.Runner, error) {
				return harness.NewAgent(sim.Config{
					N: 20000, Protocol: proto,
					Initial: map[ode.Var]int{"x": 400, "y": 19600},
					Seed:    seed, TokenTTL: ttl,
				})
			},
			Periods: 3,
			AfterStep: func(r harness.Runner, t int) {
				a := r.(*harness.AgentRunner)
				moved += float64(a.TransitionsLastPeriod()[[2]ode.Var{"x", "y"}])
				lost += float64(a.TokensLostLastPeriod())
			},
		})
		if out.Err != nil {
			b.Fatal(out.Err)
		}
		return moved, lost
	}
	var directed, walked, walkLost float64
	for i := 0; i < b.N; i++ {
		directed, _ = run(0, int64(i))
		walked, walkLost = run(4, int64(i))
	}
	b.ReportMetric(directed, "directed_conversions")
	b.ReportMetric(walked, "ttl4_conversions")
	b.ReportMetric(walkLost, "ttl4_expired")
}

// BenchmarkAblationFailureCompensation measures the §3 failure
// compensation: with 30% message loss, the compensated protocol's drift
// per unit of modelled time matches the loss-free equations, while the
// uncompensated one falls short by the (1−f) factor. Conversions are
// normalized by the protocol time scale p (one period = p time units).
func BenchmarkAblationFailureCompensation(b *testing.B) {
	const loss = 0.3
	sys := "x' = -x*y\ny' = x*y"
	run := func(opts core.Options, seed int64) float64 {
		s, err := ode.Parse(sys, nil)
		if err != nil {
			b.Fatal(err)
		}
		proto, err := core.Translate(s, opts)
		if err != nil {
			b.Fatal(err)
		}
		var drift float64
		out := harness.Run(harness.Job{
			Name: "failure-compensation",
			Seed: seed,
			New: func(seed int64) (harness.Runner, error) {
				return harness.NewAgent(sim.Config{
					N: 100000, Protocol: proto,
					Initial:     map[ode.Var]int{"x": 50000, "y": 50000},
					Seed:        seed,
					MessageLoss: loss,
				})
			},
			Periods: 1,
			AfterStep: func(r harness.Runner, t int) {
				trans := r.(harness.TransitionCounter).TransitionsLastPeriod()
				drift = float64(trans[[2]ode.Var{"x", "y"}]) / proto.P
			},
		})
		if out.Err != nil {
			b.Fatal(out.Err)
		}
		return drift
	}
	var plain, comp float64
	for i := 0; i < b.N; i++ {
		plain = run(core.Options{}, int64(i))
		comp = run(core.Options{FailureRate: loss}, int64(i))
	}
	b.ReportMetric(plain, "uncompensated_drift_per_time")
	b.ReportMetric(comp, "compensated_drift_per_time")
	b.ReportMetric(100000*0.25, "ideal_drift_per_time")
}

// BenchmarkSupplementalDirectedAttack quantifies §4.1's untraceability
// argument: survival probability of the endemic object under a directed
// attack with stale replica-location information, versus the static
// baseline (which always dies).
func BenchmarkSupplementalDirectedAttack(b *testing.B) {
	p := endemic.Params{B: 2, Gamma: 0.2, Alpha: 0.1}
	atk := replica.AttackConfig{Staleness: 60, MountDelay: 40, Strikes: 2}
	var surv float64
	for i := 0; i < b.N; i++ {
		pr, err := replica.SurvivalProbability(2000, p, atk, 4, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		surv = pr
	}
	staticOut, err := replica.AttackStatic(10, atk)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(surv, "endemic_survival_prob")
	b.ReportMetric(boolTo01(!staticOut.Died), "static_survival_prob")
}

// BenchmarkAblationViewSize exercises the paper's footnote 1: partial
// membership views of size O(log N) preserve the endemic equilibrium at a
// fraction of the membership state. Reported: equilibrium stash population
// under full membership vs log-sized views (analysis: 193).
func BenchmarkAblationViewSize(b *testing.B) {
	const n = 20000
	p := endemic.Params{B: 2, Gamma: 0.1, Alpha: 0.001}
	proto, err := endemic.NewFigure1Protocol(p)
	if err != nil {
		b.Fatal(err)
	}
	var full, logView float64
	for i := 0; i < b.N; i++ {
		// Full membership and the ~2·log2(20000) partial view run as a
		// two-job parallel sweep.
		sums := [2]float64{}
		views := [2]int{0, 29}
		jobs := make([]harness.Job, len(views))
		for j, k := range views {
			sum := &sums[j]
			cfg := sim.Config{
				N: n, Protocol: proto,
				Initial:  map[ode.Var]int{endemic.Receptive: n - n/10, endemic.Stash: n / 10, endemic.Averse: 0},
				ViewSize: k,
			}
			jobs[j] = harness.Job{
				Name: "view-ablation",
				Seed: int64(i),
				New: func(seed int64) (harness.Runner, error) {
					cfg.Seed = seed
					return harness.NewAgent(cfg)
				},
				Periods: 2000,
				AfterStep: func(r harness.Runner, t int) {
					if t >= 1500 {
						*sum += float64(r.Count(endemic.Stash))
					}
				},
			}
		}
		if _, err := harness.Sweep(jobs, harness.Options{}); err != nil {
			b.Fatal(err)
		}
		full, logView = sums[0]/500, sums[1]/500
	}
	eq := endemic.StableEquilibrium(p.Beta(), p.Gamma, p.Alpha)
	b.ReportMetric(full, "full_membership_stash")
	b.ReportMetric(logView, "logN_view_stash")
	b.ReportMetric(eq.Stash*n, "analysis_stash")
}

// BenchmarkEngineStep measures raw agent-engine throughput at the paper's
// full 100,000-host scale (one period per op).
func BenchmarkEngineStep(b *testing.B) {
	p := endemic.Params{B: 2, Gamma: 1e-3, Alpha: 1e-6}
	proto, err := endemic.NewFigure1Protocol(p)
	if err != nil {
		b.Fatal(err)
	}
	const n = 100000
	e, err := sim.New(sim.Config{
		N: n, Protocol: proto,
		Initial: map[ode.Var]int{endemic.Receptive: n - 200, endemic.Stash: 100, endemic.Averse: 100},
		Seed:    1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.ReportMetric(float64(n), "procs")
}

// benchMillionStep measures agent-engine period throughput at one million
// processes — 10× the paper's largest evaluation — for a given shard
// count (one period per op).
func benchMillionStep(b *testing.B, shards int) {
	p := endemic.Params{B: 2, Gamma: 1e-3, Alpha: 1e-6}
	proto, err := endemic.NewFigure1Protocol(p)
	if err != nil {
		b.Fatal(err)
	}
	const n = 1_000_000
	e, err := sim.New(sim.Config{
		N: n, Protocol: proto,
		Initial: map[ode.Var]int{endemic.Receptive: n - 2000, endemic.Stash: 1000, endemic.Averse: 1000},
		Seed:    1,
		Shards:  shards,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.ReportMetric(float64(n), "procs")
	b.ReportMetric(float64(shards), "shards")
}

// BenchmarkSerialStep1M is the single-stream baseline of the pair.
func BenchmarkSerialStep1M(b *testing.B) { benchMillionStep(b, 1) }

// BenchmarkShardedStep runs the same million-process period with 8 RNG
// shards across the worker pool; on a 4+-core machine it should be ≥ 2×
// the serial baseline.
func BenchmarkShardedStep(b *testing.B) { benchMillionStep(b, 8) }

// --- asyncnet substrate benchmarks ---

// benchAsyncnet runs the canonical pull epidemic on the asynchronous
// runtime: N processes, 100 protocol periods, 2ms nominal period, 10%
// initially infected, 5% message loss. The wallclock/virtual pair
// measures the virtual-time scheduler's speedup over the real-goroutine
// substrate — wallclock pays real elapsed time plus the timer and
// scheduler pressure of one goroutine per process, while virtual mode
// replays the same model as a deterministic event loop at CPU speed.
func benchAsyncnet(b *testing.B, mode asyncnet.Mode, n int) {
	b.Helper()
	sys, err := ode.Parse("x' = -x*y\ny' = x*y", nil)
	if err != nil {
		b.Fatal(err)
	}
	proto, err := core.Translate(sys, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var msgs float64
	for i := 0; i < b.N; i++ {
		res, err := asyncnet.Run(asyncnet.Config{
			N:          n,
			Protocol:   proto,
			Initial:    map[ode.Var]int{"x": n - n/10, "y": n / 10},
			Seed:       int64(i + 1),
			Periods:    100,
			Mode:       mode,
			BasePeriod: 2 * time.Millisecond,
			DropProb:   0.05,
		})
		if err != nil {
			b.Fatal(err)
		}
		msgs = float64(res.MessagesSent)
	}
	b.ReportMetric(float64(n), "procs")
	b.ReportMetric(msgs, "msgs")
}

// BenchmarkAsyncnetWallclock is the real-time baseline at N = 10,000.
func BenchmarkAsyncnetWallclock(b *testing.B) { benchAsyncnet(b, asyncnet.ModeWallclock, 10_000) }

// BenchmarkAsyncnetVirtual runs the identical configuration on the
// virtual-time scheduler; the bar for the discrete-event work is ≥ 50×
// the wallclock pair above. Measured on a single-core dev box: virtual
// ~90ms against wallclock draws of 4–34s (the goroutine substrate's
// timer pressure feeds back into missed timeouts, so its timing is
// load-sensitive) — 45–370× across observed runs, typically well past
// 50×, and growing with N since virtual has no goroutine-per-process
// ceiling.
func BenchmarkAsyncnetVirtual(b *testing.B) { benchAsyncnet(b, asyncnet.ModeVirtual, 10_000) }

// BenchmarkAsyncnetVirtual100k runs the virtual scheduler at the paper's
// full evaluation scale — N = 100,000 × 100 periods, far past the
// goroutine-per-process ceiling — in seconds of wall time.
func BenchmarkAsyncnetVirtual100k(b *testing.B) { benchAsyncnet(b, asyncnet.ModeVirtual, 100_000) }

// BenchmarkAsyncnetRunnerSegments runs the asyncnet job of the sweep-sim
// benchmark workload as the service does: the endemic protocol (β = 4,
// γ = 1, α = 0.01) at N = 5 000 from 4 500 / 500 / 0, one single-period
// segment per Step for 12 periods, all through one Runner.
func BenchmarkAsyncnetRunnerSegments(b *testing.B) {
	sys, err := ode.Parse("x' = -beta*x*y + alpha*z\ny' = beta*x*y - gamma*y\nz' = gamma*y - alpha*z",
		map[string]float64{"beta": 4, "gamma": 1, "alpha": 0.01})
	if err != nil {
		b.Fatal(err)
	}
	proto, err := core.Translate(sys, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var msgs float64
	for i := 0; i < b.N; i++ {
		r, err := asyncnet.NewRunner(asyncnet.Config{
			N:        5000,
			Protocol: proto,
			Initial:  map[ode.Var]int{"x": 4500, "y": 500, "z": 0},
			Seed:     2_000_000_003,
		})
		if err != nil {
			b.Fatal(err)
		}
		for range 12 {
			r.Step()
		}
		if err := r.Err(); err != nil {
			b.Fatal(err)
		}
		msgs = float64(r.MessagesSent())
	}
	b.ReportMetric(msgs, "msgs")
}

// BenchmarkAggregateStep measures the count-based engine at the same
// configuration — O(#actions) per period, independent of N.
func BenchmarkAggregateStep(b *testing.B) {
	p := endemic.Params{B: 2, Gamma: 1e-3, Alpha: 1e-6}
	proto, err := endemic.NewFigure1Protocol(p)
	if err != nil {
		b.Fatal(err)
	}
	const n = 100000
	a, err := sim.NewAggregate(proto, map[ode.Var]int{
		endemic.Receptive: n - 200, endemic.Stash: 100, endemic.Averse: 100,
	}, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Step()
	}
}

// BenchmarkTranslate measures the translation framework itself.
func BenchmarkTranslate(b *testing.B) {
	sys := lv.System()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Translate(sys, core.Options{P: 0.01}); err != nil {
			b.Fatal(err)
		}
	}
}

func avg(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func boolTo01(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
