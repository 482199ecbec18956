package service

import (
	"encoding/json"
	"sync"
	"testing"

	"odeproto/internal/harness"
)

// Bench pairs for the row path: the current code beside the code it
// replaced, the latter kept here as test-file functions so the ratio stays
// measurable on one machine in one run.

const benchRows = 20_000 // rows per job, as in the sweep-rows workload

// benchSweepHook compiles a benchRows-row aggregate job and returns the
// log, run 0's recording hook as buildSweep wires it, and a live runner to
// read counts from.
func benchSweepHook(b *testing.B) (*rowLog, func(harness.Runner, int), harness.Runner, *compiled) {
	b.Helper()
	spec := rowsJob(benchRows, 1)
	comp, err := spec.normalize(defaultLimits)
	if err != nil {
		b.Fatal(err)
	}
	log := newRowLog(comp.proto.States, []int64{spec.Seed})
	jobs, err := buildSweep(&spec, comp, log)
	if err != nil {
		b.Fatal(err)
	}
	r, err := jobs[0].New(spec.Seed)
	if err != nil {
		b.Fatal(err)
	}
	return log, jobs[0].AfterStep, r, comp
}

// perRow adds the per-row figure to a benchmark whose op is a whole job's
// recording (so that a handful of iterations, as CI runs, is a sample).
func perRow(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchRows, "ns/row")
}

// BenchmarkRowRecord records one job's rows through the sweep's own hook:
// period and counts appended to the run's slab, published under the log
// mutex. The log is built outside the timer: steady state allocates
// nothing.
func BenchmarkRowRecord(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, hook, r, _ := benchSweepHook(b)
		b.StartTimer()
		for t := 0; t < benchRows; t++ {
			hook(r, t)
		}
	}
	perRow(b)
}

// BenchmarkRowRecordMarshal is what recording those rows used to cost: a
// PeriodRow with its own Counts slice appended to the run's result, the
// same row rendered with json.Marshal, and the rendered line appended to
// the stream buffer under its mutex with a Broadcast.
func BenchmarkRowRecordMarshal(b *testing.B) {
	b.ReportAllocs()
	_, _, r, comp := benchSweepHook(b)
	states := comp.proto.States
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var lines [][]byte
		var run RunResult
		for t := 0; t < benchRows; t++ {
			row := PeriodRow{Period: t, Counts: make([]int, len(states))}
			for si, s := range states {
				row.Counts[si] = r.Count(s)
			}
			run.Rows = append(run.Rows, row)
			data, err := json.Marshal(StreamRow{Run: 0, Seed: 1, Period: t, Counts: row.Counts})
			if err != nil {
				b.Fatal(err)
			}
			data = append(data, '\n')
			mu.Lock()
			lines = append(lines, data)
			cond.Broadcast()
			mu.Unlock()
		}
	}
	perRow(b)
}

// benchResult records benchRows three-state rows and returns the log and
// the struct form of the same result.
func benchResult(b *testing.B) (*rowLog, *JobResult) {
	b.Helper()
	log, hook, r, _ := benchSweepHook(b)
	for t := 0; t < benchRows; t++ {
		r.Step()
		hook(r, t)
	}
	res := new(JobResult)
	if err := json.Unmarshal(oracleResult(b, log, []int{0}), res); err != nil {
		b.Fatal(err)
	}
	return log, res
}

// BenchmarkResultEncodeAppend is the completion encode: canonical bytes
// straight from the slabs, into an exactly sized buffer.
func BenchmarkResultEncodeAppend(b *testing.B) {
	b.ReportAllocs()
	log, _ := benchResult(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if data := encodeResult(log, []int{0}); len(data) == 0 {
			b.Fatal("empty encoding")
		}
	}
	perRow(b)
}

// BenchmarkResultEncodeMarshal is the completion encode it replaced:
// json.Marshal of the struct form (which the old record path had built).
func BenchmarkResultEncodeMarshal(b *testing.B) {
	b.ReportAllocs()
	_, res := benchResult(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(res); err != nil {
			b.Fatal(err)
		}
	}
	perRow(b)
}
