package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"

	"odeproto/internal/obs"
)

// snapshot is the daemon's observable state at one quiescent instant:
// its /metrics exposition, its CPU clocks, and what it has put on disk.
// Per-layer counts are differences of two snapshots taken around a phase
// while no op is in flight, which is what lets them repeat exactly.
type snapshot struct {
	families    map[string]*obs.MetricFamily
	scrapeBytes int
	cpuUser     time.Duration
	cpuSys      time.Duration
	diskBytes   int64
	gzBytes     int64
	logBytes    int64
}

func (d *daemon) snapshot() (*snapshot, error) {
	resp, err := http.Get("http://" + d.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	s := &snapshot{scrapeBytes: len(body)}
	if s.families, err = obs.ParseExposition(bytes.NewReader(body)); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	if s.cpuUser, s.cpuSys, err = d.cpu(); err != nil {
		return nil, err
	}
	if s.diskBytes, s.gzBytes, err = dirBytes(d.dataDir); err != nil {
		return nil, err
	}
	info, err := os.Stat(d.logPath)
	if err != nil {
		return nil, err
	}
	s.logBytes = info.Size()
	return s, nil
}

// value is the single unlabelled sample of a counter or gauge family (0
// when the daemon does not export it).
func (s *snapshot) value(name string) float64 {
	f := s.families[name]
	if f == nil {
		return 0
	}
	v, _ := f.Value(name, nil)
	return v
}

// histogram rebuilds the cumulative buckets of an unlabelled histogram
// family into the obs snapshot type, so that the daemon's own Sub and
// Quantile estimators apply to scraped data.
func (s *snapshot) histogram(name string) obs.HistogramSnapshot {
	var h obs.HistogramSnapshot
	f := s.families[name]
	if f == nil {
		return h
	}
	type bucket struct {
		le  float64
		cum int64
	}
	var buckets []bucket
	for _, sm := range f.Samples {
		switch sm.Name {
		case name + "_bucket":
			le, err := strconv.ParseFloat(sm.Labels["le"], 64) // "+Inf" parses
			if err == nil {
				buckets = append(buckets, bucket{le, int64(sm.Value)})
			}
		case name + "_sum":
			h.Sum = sm.Value
		}
	}
	sort.Slice(buckets, func(a, b int) bool { return buckets[a].le < buckets[b].le })
	for _, b := range buckets {
		if !math.IsInf(b.le, 1) {
			h.Upper = append(h.Upper, b.le)
		}
		h.Cum = append(h.Cum, b.cum)
	}
	return h
}

// ratio is a/b, and 0 when b is 0: a layer that did no work in a phase
// reports 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounts turns the difference of two snapshots around a phase of ops
// ops into the per-layer metrics sourced from the daemon's own surfaces.
// reads is the number of requests in the phase that read a result (result
// GETs of every kind and job statuses), the base of encodes_saved_per_read.
func layerCounts(m map[string]float64, before, after *snapshot, ops, reads int) {
	n := float64(ops)
	delta := func(name string) float64 { return after.value(name) - before.value(name) }

	walSyncs := delta("odeproto_wal_syncs_total")
	m["fsyncs_per_op"] = (walSyncs + delta("odeproto_store_results_written_total")) / n
	m["disk_bytes_per_op"] = float64(after.diskBytes-before.diskBytes) / n
	m["cpu_ms_per_op"] = ms(after.cpuUser-before.cpuUser+after.cpuSys-before.cpuSys) / n

	m["odeprotod.cpu_user_ms_per_op"] = ms(after.cpuUser-before.cpuUser) / n
	m["odeprotod.cpu_sys_ms_per_op"] = ms(after.cpuSys-before.cpuSys) / n
	m["odeprotod.log_bytes_per_op"] = float64(after.logBytes-before.logBytes) / n

	m["service.sweeps_per_op"] = delta("odeproto_sweeps_executed_total") / n
	hits, misses := delta("odeproto_cache_hits_total"), delta("odeproto_cache_misses_total")
	m["service.cache_hit_ratio"] = ratio(hits, hits+misses)
	// Blobs loaded from disk into the LRU, per op: the daemon counts them on
	// submits and on status reads of recovered jobs alike, so ops are the
	// only base that fits both.
	m["service.disk_hit_ratio"] = delta("odeproto_result_disk_hits_total") / n
	m["service.encodes_saved_per_read"] = ratio(delta("odeproto_result_encodes_saved_total"), float64(reads))
	// The job table never evicts: everything recovered plus everything
	// submitted since boot is resident.
	m["service.jobs_resident"] = after.value("odeproto_store_recovered_jobs") + after.value("odeproto_jobs_submitted_total")
	m["service.queue_wait_p50_ms"] = quantileMS(before, after, "odeproto_queue_wait_seconds")
	m["service.job_duration_p50_ms"] = quantileMS(before, after, "odeproto_job_duration_seconds")

	m["store.wal_syncs_per_op"] = walSyncs / n
	m["store.wal_bytes_per_op"] = delta("odeproto_wal_bytes") / n
	m["store.blob_bytes_per_op"] = delta("odeproto_store_result_bytes_total") / n
	m["store.gz_bytes_per_op"] = float64(after.gzBytes-before.gzBytes) / n
	m["obs.scrape_bytes"] = float64(after.scrapeBytes)
}

// quantileMS is the median, in ms, of the observations a daemon histogram
// took between two snapshots (0 when it took none).
func quantileMS(before, after *snapshot, name string) float64 {
	d := after.histogram(name).Sub(before.histogram(name))
	if d.Count() == 0 {
		return 0
	}
	return d.Quantile(0.5) * 1000
}
