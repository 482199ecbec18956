package service

import (
	"time"

	"odeproto/internal/obs"
)

// serviceMetrics is every counter the service maintains, held in the
// shared obs registry that GET /metrics renders.
type serviceMetrics struct {
	// resident is odeproto_jobs_resident by status, moved under Server.mu
	// wherever a job enters, changes status in, or leaves the table.
	resident       map[Status]*obs.Gauge
	submitted      *obs.Counter
	coalesced      *obs.Counter
	rejected       *obs.Counter
	failed         *obs.Counter
	sweeps         *obs.Counter
	agedOut        *obs.Counter
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter
	diskHits       *obs.Counter
	storeErrs      *obs.Counter
	encodesSaved   *obs.Counter
	bytesServed    *obs.Counter
	queueWait      *obs.Histogram
	jobDuration    *obs.Histogram
	sweepLatency   *obs.HistogramVec
}

func newServiceMetrics(r *obs.Registry) *serviceMetrics {
	vec := r.GaugeVec("odeproto_jobs_resident",
		"Jobs in the job table by status: every queued and running job plus at most -retain-jobs terminal ones.",
		"status")
	resident := make(map[Status]*obs.Gauge)
	for _, st := range []Status{StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCancelled} {
		resident[st] = vec.With(string(st))
	}
	return &serviceMetrics{
		resident: resident,
		submitted: r.Counter("odeproto_jobs_submitted_total",
			"Jobs accepted by submit (including cache hits; excluding coalesced twins and rejections)."),
		coalesced: r.Counter("odeproto_jobs_coalesced_total",
			"Submissions answered by an identical in-flight job (single-flight dedup)."),
		rejected: r.Counter("odeproto_jobs_rejected_total",
			"Submissions rejected with 429 because the bounded queue was full (admission control)."),
		failed: r.Counter("odeproto_jobs_failed_total",
			"Jobs that reached the failed state (the bad-event count for the error-rate SLO)."),
		sweeps: r.Counter("odeproto_sweeps_executed_total",
			"Sweeps actually simulated (cache hits do not count)."),
		agedOut: r.Counter("odeproto_jobs_aged_out_total",
			"Terminal jobs aged out of the job table since start, oldest finished first, beyond -retain-jobs."),
		cacheHits: r.Counter("odeproto_cache_hits_total",
			"Result-cache lookups answered from the in-memory LRU."),
		cacheMisses: r.Counter("odeproto_cache_misses_total",
			"Result-cache lookups that missed the LRU (disk hits also count here)."),
		cacheEvictions: r.Counter("odeproto_cache_evictions_total",
			"Results evicted from the in-memory LRU by its entry bound or its byte budget."),
		diskHits: r.Counter("odeproto_result_disk_hits_total",
			"LRU misses answered from the durable result store."),
		storeErrs: r.Counter("odeproto_store_errors_total",
			"Store faults absorbed by the service (failed WAL appends, unreadable result blobs)."),
		encodesSaved: r.Counter("odeproto_result_encodes_saved_total",
			"Result reads served from the encode-once canonical bytes with no per-request JSON marshal: cache-hit result GETs (304s included) and job statuses spliced from the shared buffer."),
		bytesServed: r.Counter("odeproto_result_bytes_served_total",
			"Result payload bytes written to clients by the result data plane (compressed size for gzip responses)."),
		queueWait: r.Histogram("odeproto_queue_wait_seconds",
			"Time jobs spent queued before a worker picked them up.", obs.DefBuckets),
		jobDuration: r.Histogram("odeproto_job_duration_seconds",
			"End-to-end job duration from submit to terminal state (done and failed jobs; cancellations excluded) — the latency-SLO source.",
			obs.DefBuckets),
		sweepLatency: r.HistogramVec("odeproto_sweep_latency_seconds",
			"Per-run sweep execution latency, by engine and asyncnet mode (mode is empty for the synchronous engines).",
			obs.DefBuckets, "engine", "mode"),
	}
}

// registerGauges wires the scrape-time-sampled families that read state
// another structure already owns (queue, cache, startup counters) —
// exposed without double bookkeeping.
func (s *Server) registerGauges(r *obs.Registry) {
	r.GaugeFunc("odeproto_queue_depth",
		"Jobs waiting in the bounded queue.",
		func() float64 { return float64(len(s.queue)) })
	r.GaugeFunc("odeproto_queue_capacity",
		"Capacity of the bounded job queue.",
		func() float64 { return float64(s.cfg.QueueDepth) })
	r.GaugeFunc("odeproto_cache_size",
		"Results currently held by the in-memory LRU.",
		func() float64 { n, _ := s.cache.usage(); return float64(n) })
	r.GaugeFunc("odeproto_cache_bytes",
		"Stored result bytes held by the in-memory LRU (a large result counts at its gzip member); the budget is 256 KiB per unit of -cache.",
		func() float64 { _, b := s.cache.usage(); return float64(b) })
	r.GaugeFunc("odeproto_cache_capacity",
		"Capacity of the in-memory result LRU.",
		func() float64 { return float64(s.cfg.CacheSize) })
	r.GaugeFunc("odeproto_warmed_results",
		"Results loaded from disk into the LRU at startup.",
		func() float64 { return float64(s.warmed) })
	r.GaugeFunc("odeproto_resumed_jobs",
		"Interrupted jobs the daemon resubmitted itself at startup.",
		func() float64 { return float64(s.resumed) })
}

// observeSweepLatency records one run's wall-clock duration under the
// job's engine+mode series, with the job's trace as the bucket exemplar.
// Engine names and modes are validated enums (spec.normalize), so the
// label set is bounded.
func (s *Server) observeSweepLatency(engine, mode, traceID string, d time.Duration) {
	s.met.sweepLatency.With(engine, mode).ObserveTraced(d.Seconds(), traceID)
}
