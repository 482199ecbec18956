package store

import "odeproto/internal/obs"

// RegisterMetrics exposes a store's counters in the obs registry as
// scrape-time-sampled families over Stats(): the store keeps the numbers,
// the scrape reads them, and nothing is counted twice.
func RegisterMetrics(r *obs.Registry, s Store) {
	r.CounterFunc("odeproto_wal_records_total",
		"Job lifecycle records appended to the WAL.",
		func() int64 { return s.Stats().RecordsAppended })
	r.CounterFunc("odeproto_wal_syncs_total",
		"Append-path WAL fsyncs: one per synced append.",
		func() int64 { return s.Stats().WALSyncs })
	r.GaugeFunc("odeproto_wal_unsynced_records",
		"WAL records written since the last fsync: what a power loss would cost right now.",
		func() float64 { return float64(s.Stats().UnsyncedRecords) })
	r.GaugeFunc("odeproto_wal_segments",
		"WAL segments currently on disk.",
		func() float64 { return float64(s.Stats().WALSegments) })
	r.GaugeFunc("odeproto_wal_bytes",
		"Total bytes across WAL segments.",
		func() float64 { return float64(s.Stats().WALBytes) })
	r.CounterFunc("odeproto_wal_tail_truncations_total",
		"Torn or corrupt WAL tails truncated during replay.",
		func() int64 { return s.Stats().TailTruncations })
	r.CounterFunc("odeproto_wal_compactions_total",
		"WAL compactions (one snapshot record per job).",
		func() int64 { return s.Stats().Compactions })
	r.CounterFunc("odeproto_store_results_written_total",
		"Result blobs durably written to the content-addressed store.",
		func() int64 { return s.Stats().ResultsWritten })
	r.CounterFunc("odeproto_store_result_bytes_total",
		"Cumulative bytes of result blobs written to disk (compressed where the store compresses).",
		func() int64 { return s.Stats().ResultBytes })
	r.CounterFunc("odeproto_store_result_raw_bytes_total",
		"Cumulative canonical bytes of the result blobs written.",
		func() int64 { return s.Stats().ResultRawBytes })
	r.GaugeFunc("odeproto_store_recovered_jobs",
		"Jobs rebuilt from the WAL at the last open.",
		func() float64 { return float64(s.Stats().RecoveredJobs) })
}
