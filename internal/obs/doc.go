// Package obs is the daemon's flight recorder: a stdlib-only typed
// metric registry rendered in the Prometheus text exposition format, job
// traces with per-stage spans propagated across cluster forwards, and
// log/slog helpers for the structured serving-path logs — one
// observability layer shared by internal/service, internal/cluster,
// internal/store, and cmd/odeprotod.
//
// # Registry
//
// A Registry holds metric families in three types:
//
//   - Counter: a monotonically increasing integer event count
//     (requests, cache hits, WAL fsyncs). Counters only Add.
//   - Gauge: a value that moves both ways (queue depth, bytes on disk,
//     peer liveness). Func-backed gauges and counters are sampled at
//     scrape time, so values that some other layer already tracks (the
//     queue length, the WAL size) are exposed without double
//     bookkeeping.
//   - Histogram: fixed, cumulative buckets plus _sum and _count
//     (latencies). Buckets are chosen at registration and never change,
//     so scrapes from different nodes aggregate.
//
// Every metric reads back (Counter.Value, Gauge.Value, Histogram
// snapshots), so in-process callers — the SLO evaluator, tests — read the
// same numbers GET /metrics renders, the daemon's one counter surface.
//
// # Cardinality rules
//
// Labels multiply time series, and an unbounded label value set is a
// memory leak and a scrape-size explosion. The registry therefore only
// accepts BOUNDED label sets, and enforces a hard per-family cap
// (maxChildren) by panicking — loudly, at the introduction site — rather
// than growing silently. The rule for choosing label values:
//
//   - enum-shaped values are fine: engine names, asyncnet modes, job
//     statuses, lifecycle stages;
//   - values fixed at boot are fine: the static cluster peer list;
//   - anything request-derived is forbidden: job IDs, cache keys, trace
//     IDs, client addresses, error strings. Those belong in logs and
//     traces, never in metric labels.
//
// # Exemplars
//
// Exemplars are how request-derived identity gets near a metric WITHOUT
// becoming a label: each histogram bucket retains at most ONE exemplar —
// the most recent traced observation that landed in it, overwritten in
// place — rendered in OpenMetrics syntax on the bucket line
// (`... 42 # {trace_id="abc..."} 0.017`). The cardinality rules for
// exemplars follow from that shape:
//
//   - storage is bounded by construction: one pointer per bucket per
//     series, regardless of traffic. No cap, no eviction policy, no
//     leak — an exemplar can only replace its predecessor;
//   - the ONLY exemplar label is trace_id, and only values passing
//     ValidTraceID are stored (ObserveTraced silently drops the rest).
//     Never put job IDs, cache keys, or free-form strings in an
//     exemplar: the trace ID already resolves to all of those via
//     GET /v1/jobs/{id}/trace;
//   - exemplars are diagnostics, not data: aggregation ignores them,
//     CheckHistogram only validates that a present exemplar's value lies
//     inside its bucket and its trace_id is well-formed. Code must never
//     branch on an exemplar's presence or value.
//
// # Windows and quantiles
//
// Histograms are cumulative since boot, which is the right shape for
// scrapers but the wrong one for "p99 over the last 5 minutes". The
// windowed layer (WindowedHistogram, WindowedCounter) keeps a ring of
// periodic snapshots; subtracting the baseline nearest now-d from the
// live snapshot yields the distribution over the last d, and
// HistogramSnapshot.Quantile interpolates p50/p95/p99 from it the way
// PromQL's histogram_quantile does — error bounded by the width of the
// bucket holding the rank. Callers supply every timestamp (nothing here
// reads the wall clock), so SLO evaluation is testable with a fake
// clock and deterministic under the repo's determinism lint.
//
// # Traces
//
// A trace is one job's correlatable trail: an ID minted at submit (or
// inherited from the X-Odeproto-Trace header when a cluster peer already
// minted one), carried across forwards, journaled in the WAL submit
// record, and grown with timestamped per-stage spans
// (queued → compiled → swept → persisted → responded). The service
// serves a job's spans at GET /v1/jobs/{id}/trace and logs them as one
// structured line at completion, so a forwarded job leaves the same
// trace ID in every involved node's logs.
package obs
