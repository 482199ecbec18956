package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"odeproto/internal/service"
)

// workload is one named traffic mix. Its why line lives in BENCHMARK.json
// and its paragraph in README.md.
type workload struct {
	name string
	// rate is the open-loop arrival rate in ops/s; 0 makes a closed loop.
	rate float64
	// conns is the number of connections (at most nproc = 2 on the
	// reference machine: generator and daemon share its two cores).
	conns int
	// limit is the fixed latency limit behind within_limit_ratio: several
	// times the median, so that it catches ops caught behind a stall and
	// leaves general slowness to lat_p50_ms.
	limit time.Duration
	// rssAfterOps, for a closed loop, is the completed-op count at which
	// rss_peak_mb is read (0, and in a run too short to get there: at the
	// end of the phase).
	rssAfterOps int
	// preload, when set, fills the daemon before it is restarted on the
	// populated directory; both are part of set-up.
	preload func(r *run, clients []*client) error
	op      func(r *run, c *client, i int) error
}

// The open-loop rates sit near a third of the closed-loop capacity
// measured on the reference machine with the data directory on its disk
// (submit-small ≈ 580 ops/s, read-mix ≈ 5500 req/s): high enough that the
// daemon's queues are exercised, low enough that no backlog grows.
var workloads = []workload{
	{name: "sweep-sim", conns: 1, limit: 500 * time.Millisecond, rssAfterOps: 100, op: (*run).sweepSimOp},
	{name: "sweep-rows", conns: 1, limit: 500 * time.Millisecond, rssAfterOps: 150, op: (*run).sweepRowsOp},
	{name: "submit-small", rate: 200, conns: 2, limit: 50 * time.Millisecond, op: (*run).submitSmallOp},
	{name: "read-mix", rate: 2000, conns: 2, limit: 10 * time.Millisecond, preload: (*run).preloadReadMix, op: (*run).readMixOp},
}

func findWorkload(name string) *workload {
	for k := range workloads {
		if workloads[k].name == name {
			return &workloads[k]
		}
	}
	return nil
}

// readKey is one preloaded result of read-mix: how to ask for it again and
// what every answer must hash to.
type readKey struct {
	id        string
	key       string
	spec      []byte
	canonical []byte
	sum       [sha256.Size]byte
}

// recheckJob is a sweep job kept for the determinism recompute.
type recheckJob struct {
	spec []byte
	body []byte
}

// recheckEvery: one sweep job in this many is recomputed in-process after
// the timed phase and compared byte for byte with what the daemon served.
const recheckEvery = 50

// run is the state of one benchmark run of one workload.
type run struct {
	w    *workload
	seed int64
	d    *daemon

	keys []readKey
	plan []readReq

	jobs    atomic.Int64
	mu      sync.Mutex
	recheck []recheckJob
}

// sweepJob runs one fresh job the way a researcher's script does: submit,
// follow the stream to its end, fetch the result by content address. Every
// recorded row of both must account for all N processes.
func (r *run) sweepJob(c *client, spec service.JobSpec, jobClass int, gzipped bool) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	start := time.Now()
	st, err := c.submit(clsSubmit, body, false)
	if err != nil {
		return err
	}
	rows := spec.Periods * max(spec.Seeds, 1)
	if err := c.stream(clsStream, st.ID, spec.N, rows); err != nil {
		return err
	}
	resultClass := clsResult
	if gzipped {
		resultClass = clsResultGzip
	}
	data, err := c.result(resultClass, st.CacheKey, gzipped)
	if err != nil {
		return err
	}
	if jobClass >= 0 {
		c.observe(jobClass, start)
	}
	if err := checkCounts(data, spec.N, rows); err != nil {
		return fmt.Errorf("result %s: %w", st.CacheKey[:12], err)
	}
	if (r.jobs.Add(1)-1)%recheckEvery == 0 {
		r.mu.Lock()
		r.recheck = append(r.recheck, recheckJob{spec: body, body: bytes.Clone(data)})
		r.mu.Unlock()
	}
	return nil
}

func (r *run) sweepSimOp(c *client, i int) error {
	classes := [3]int{clsJobAgent, clsJobSharded, clsJobAsyncnet}
	for j, spec := range simJobs(r.seed, i) {
		if err := r.sweepJob(c, spec, classes[j], false); err != nil {
			return fmt.Errorf("%s: %w", classNames[classes[j]], err)
		}
	}
	return nil
}

func (r *run) sweepRowsOp(c *client, i int) error {
	return r.sweepJob(c, rowsSpec(r.seed, i), -1, i%2 == 1)
}

func (r *run) submitSmallOp(c *client, i int) error {
	spec := tinySpec(r.seed, i)
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	st, err := c.submit(clsSubmit, body, false)
	if err != nil {
		return err
	}
	return c.stream(clsStream, st.ID, spec.N, spec.Periods)
}

// preloadReadMix computes the read-mix working set through the daemon's
// own API, recording each result's canonical bytes and digest, and asks
// for each once gzipped so that the compressed sibling blobs exist before
// the restart: the timed phase then writes nothing but the one WAL record
// of each duplicate POST.
func (r *run) preloadReadMix(clients []*client) error {
	r.keys = make([]readKey, readKeys)
	var next atomic.Int64
	errs := make(chan error, len(clients))
	for _, c := range clients {
		go func(c *client) {
			for {
				k := int(next.Add(1)) - 1
				if k >= readKeys {
					errs <- nil
					return
				}
				if err := r.preloadKey(c, k); err != nil {
					errs <- fmt.Errorf("preload key %d: %w", k, err)
					return
				}
			}
		}(c)
	}
	var first error
	for range clients {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (r *run) preloadKey(c *client, k int) error {
	spec := preloadSpec(r.seed, k)
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	st, err := c.submit(clsSubmit, body, false)
	if err != nil {
		return err
	}
	if err := c.stream(clsStream, st.ID, spec.N, spec.Periods); err != nil {
		return err
	}
	data, err := c.result(clsResult, st.CacheKey, false)
	if err != nil {
		return err
	}
	if err := checkCounts(data, spec.N, spec.Periods); err != nil {
		return err
	}
	rk := readKey{id: st.ID, key: st.CacheKey, spec: body, canonical: bytes.Clone(data), sum: sha256.Sum256(data)}
	zipped, err := c.result(clsResultGzip, st.CacheKey, true)
	if err != nil {
		return err
	}
	if sha256.Sum256(zipped) != rk.sum {
		return fmt.Errorf("gzip variant decompresses to different bytes")
	}
	r.keys[k] = rk
	return nil
}

// readMixOp is one request of the read mix; every answer is checked
// against what the preload recorded for the key.
func (r *run) readMixOp(c *client, i int) error {
	req := r.plan[i]
	rk := &r.keys[req.key]
	switch req.class {
	case clsResult, clsResultGzip:
		data, err := c.result(req.class, rk.key, req.class == clsResultGzip)
		if err != nil {
			return err
		}
		if sha256.Sum256(data) != rk.sum {
			return fmt.Errorf("%s %s: digest differs from the preloaded result", classNames[req.class], rk.key[:12])
		}
		return nil
	case clsResult304:
		return c.notModified(rk.key)
	case clsStatus:
		return c.status(rk.id, rk.canonical)
	case clsStreamReplay:
		return c.stream(clsStreamReplay, rk.id, readPreloadN, readPreloadSteps)
	default: // clsDupSubmit
		st, err := c.submit(clsDupSubmit, rk.spec, true)
		if err != nil {
			return err
		}
		if st.CacheKey != rk.key || st.Status != service.StatusDone {
			return fmt.Errorf("duplicate submit: key %s status %s", st.CacheKey[:12], st.Status)
		}
		return nil
	}
}

// recompute replays the sampled sweep jobs on an in-process service with
// the memory store and compares the result bytes with what the daemon
// served: the determinism contract, checked across a process boundary.
func (r *run) recompute() error {
	if len(r.recheck) == 0 {
		return nil
	}
	srv := service.New(service.Config{})
	defer srv.Close()
	h := srv.Handler()
	for k, job := range r.recheck {
		st, err := localJob(h, job.spec)
		if err != nil {
			return fmt.Errorf("recompute %d: %w", k, err)
		}
		rec := serve(h, "GET", "/v1/results/"+st.CacheKey, nil)
		if !bytes.Equal(rec.Body.Bytes(), job.body) {
			return fmt.Errorf("recompute %d: in-process result for key %s differs from the daemon's bytes", k, st.CacheKey[:12])
		}
	}
	return nil
}
