package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"odeproto/internal/store"
)

// terminalJobBudget is the post-GC heap a terminal job may hold while it is
// in the table — Job, trace, done channel, the table's and the ageing queue's
// entries and the store's index of it: what -retain-jobs multiplies.
const terminalJobBudget = 3 << 10

// footprintSpec is the i-th job of the footprint test: the endemic system
// with beta drawn from a grid, the shape of the benchmark's submit-small.
// Every job misses the compile memo and holds a *compiled nobody shares —
// what a table full of one parameter-free source (rowsJob, and soakSpec
// before it took a parameter) cannot show.
func footprintSpec(i int) JobSpec {
	return JobSpec{
		Source: "x' = -beta*x*y + alpha*z\ny' = beta*x*y - gamma*y\nz' = gamma*y - alpha*z",
		Params: map[string]float64{"beta": 2 + 2*float64(i+1)/4096, "gamma": 1, "alpha": 0.01},
		N:      300, Initial: map[string]int{"x": 270, "y": 30}, Periods: 20, Seed: int64(i + 1),
	}
}

// heapSansMemo is heapAfterGC with the compile memo emptied first: it may
// hold up to compileCacheCap compiled systems (≈ 6 KB each) at one reading
// and one at the next, and a compiled system that survives it is pinned by
// something else.
func heapSansMemo() uint64 {
	compileCache.mu.Lock()
	compileCache.m = nil
	compileCache.mu.Unlock()
	return heapAfterGC()
}

// TestTerminalJobIsARow pins what a job costs once it is terminal, on both
// backends, with every job compiled from a parameter value of its own and
// more of them than the compile memo holds: fresh jobs, jobs born done (a
// duplicate POST answered from disk) and jobs recovered by a restart each
// keep at most terminalJobBudget bytes. At the parent a fresh job kept its
// compiled protocol and its spec, ≈ 8 KB. The restart serves every status and
// listing body byte for byte as before it, so the row holds all they render.
func TestTerminalJobIsARow(t *testing.T) {
	t.Run("memory", func(t *testing.T) { terminalFootprint(t, "") })
	t.Run("file", func(t *testing.T) { terminalFootprint(t, filepath.Join(t.TempDir(), "data")) })
}

func terminalFootprint(t *testing.T, dir string) {
	const jobs = compileCacheCap + compileCacheCap/2
	cfg, backend := Config{Workers: 1, CacheSize: 1}, "memory"
	var fst *store.FileStore
	if dir != "" {
		fst, backend = openFileStore(t, dir), "file"
		cfg.Store = fst
	}
	srv := New(cfg)
	submit := func(spec JobSpec, cached bool) *Job {
		t.Helper()
		job, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-job.done
		if st := job.snapshot(false); st.Status != StatusDone || st.Cached != cached {
			t.Fatalf("job %s: %s %s, cached %v (want %v)", st.ID, st.Status, st.Error, st.Cached, cached)
		}
		return job
	}
	check := func(what string, before, after uint64, n int) {
		t.Helper()
		per := (float64(after) - float64(before)) / float64(n)
		t.Logf("retained %.0f B per %s (%d of them, budget %d B)", per, what, n, terminalJobBudget)
		if per > terminalJobBudget {
			t.Errorf("a %s retains %.0f B, over the %d B a row may cost: something of the live job outlives it", what, per, terminalJobBudget)
		}
	}

	// Before the baseline: one job of every shape a status renders
	// differently (shards, mode, seeds × record_every), which also brings the
	// metric series and pools into being.
	ids := []string{
		submit(JobSpec{Source: epidemicSource, Engine: EngineSharded, Shards: 2, N: 200, Periods: 9, RecordEvery: 4}, false).ID,
		submit(JobSpec{Source: epidemicSource, Engine: EngineAsyncnet, N: 50, Periods: 3}, false).ID,
		submit(JobSpec{Source: epidemicSource, Engine: EngineAggregate, N: 1000, Periods: 30, Seeds: 3, RecordEvery: 7}, false).ID,
	}

	before := heapSansMemo()
	for i := 0; i < jobs; i++ {
		job := submit(footprintSpec(i), false)
		if i%100 == 0 {
			ids = append(ids, job.ID)
		}
	}
	after := heapSansMemo()
	check("terminal job ("+backend+" backend)", before, after, jobs)
	if !reflect.DeepEqual(*concluded, liveJob{}) {
		t.Fatalf("the shared live part of terminal jobs was written: %+v", *concluded)
	}
	if fst == nil {
		srv.Close()
		return
	}

	swept := len(srv.jobs)
	for i := 0; i < jobs; i++ {
		job := submit(footprintSpec(i), true)
		if i%100 == 0 {
			ids = append(ids, job.ID)
		}
	}
	check("job born done", after, heapSansMemo(), jobs)

	// One page of the listing: every job that ran a sweep.
	paths := []string{fmt.Sprintf("/v1/jobs?limit=%d", swept)}
	for _, id := range ids {
		paths = append(paths, "/v1/jobs/"+id)
	}
	bodies := func(h http.Handler) []string {
		out := make([]string, len(paths))
		for i, path := range paths {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
			}
			out[i] = rec.Body.String()
		}
		return out
	}
	want := bodies(srv.Handler())
	total := len(srv.jobs)
	srv.Close()
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}
	srv, fst = nil, nil // the first process is garbage before the baseline

	before = heapSansMemo()
	fst2 := openFileStore(t, dir)
	defer fst2.Close()
	srv2 := New(Config{Workers: 1, CacheSize: 1, Store: fst2})
	defer srv2.Close()
	check("recovered job", before, heapSansMemo(), total)
	if len(srv2.jobs) != total {
		t.Fatalf("the restart recovered %d jobs, want %d", len(srv2.jobs), total)
	}
	for i, got := range bodies(srv2.Handler()) {
		if got != want[i] {
			t.Errorf("GET %s changed across the restart:\n got %s\nwant %s", paths[i], got, want[i])
		}
	}
}

// TestResidentResultIsItsMember pins what the LRU holds per large result: the
// gzip member the store holds, not the canonical JSON it inflates to. After
// 32 finished 20 000-row aggregate jobs — the sweep-rows shape, ≈ 0.8 MB of
// JSON each — the post-GC heap has grown by at most 1.5 × a member plus
// 4 KiB per result (the job's row included). Holding the JSON instead costs
// ≈ 10 × the member. CI prints the "resident" line.
func TestResidentResultIsItsMember(t *testing.T) {
	const jobs = 32
	srv := New(Config{Workers: 1})
	defer srv.Close()
	run := func(seed int64) *resultBlob {
		t.Helper()
		job, err := srv.Submit(rowsJob(20_000, seed))
		if err != nil {
			t.Fatal(err)
		}
		<-job.done
		blob, ok := srv.cache.peek(job.Key)
		if !ok || !store.IsMember(blob.stored) {
			t.Fatalf("job %s: resident %v, member %v", job.ID, ok, ok && store.IsMember(blob.stored))
		}
		return blob
	}
	run(1000) // the compile memo, metric series and pools exist before the baseline
	before := heapAfterGC()
	var member, canonical int
	for seed := int64(1); seed <= jobs; seed++ {
		blob := run(seed)
		member += len(blob.stored)
		canonical += len(canonicalOf(t, blob))
	}
	after := heapAfterGC()
	per := (float64(after) - float64(before)) / jobs
	member, canonical = member/jobs, canonical/jobs
	t.Logf("resident %.0f B per result: member %d B (%.2fx), canonical %d B", per, member, per/float64(member), canonical)
	if budget := 1.5*float64(member) + 4096; per > budget {
		t.Fatalf("a resident %d-row result costs %.0f B of heap, over %.0f B (1.5 × its %d B member + 4 KiB)", 20_000, per, budget, member)
	}
}
