package store

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// TestCompactionDoesNotStallAppends journals 2 × 16 384 jobs of two records
// each and forgets the older half, so the last Forget finds four records per
// indexed job and compacts 65 536 of them, while another goroutine appends
// and syncs as fast as it can. The compaction holds the store's lock only to
// seal the log, to read the index and to retire the old segments, so no
// Append waits for as much as half of it. CI prints the "longest Append wait"
// line.
func TestCompactionDoesNotStallAppends(t *testing.T) {
	const indexed = 16384
	spec := json.RawMessage(`{"source":"x' = -beta*x*y + alpha*z\ny' = beta*x*y - gamma*y\nz' = gamma*y - alpha*z","params":{"alpha":0.01,"beta":2.5,"gamma":1},"engine":"agent","n":300,"initial":{"x":270,"y":30},"periods":20,"seeds":1,"record_every":1}`)
	id := func(i int) string { return fmt.Sprintf("j%06d", i) }
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	for i := 1; i <= 2*indexed; i++ {
		for _, rec := range []JobRecord{
			{Op: OpSubmitted, ID: id(i), Key: "abcd", Spec: spec, SubmittedAt: int64(i)},
			{Op: OpDone, ID: id(i), Key: "abcd", StartedAt: int64(i), FinishedAt: int64(i)},
		} {
			if err := s.write(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 1; i < indexed; i++ {
		forget(t, s, id(i))
	}
	if st := s.Stats(); st.Compactions != 0 {
		t.Fatalf("compacted before the last forget: %+v", st)
	}

	type span struct{ start, end time.Time }
	stop, spans := make(chan struct{}), make(chan []span)
	go func() {
		var out []span
		for i := 0; ; i++ {
			select {
			case <-stop:
				spans <- out
				return
			default:
			}
			start := time.Now()
			if err := s.Append(JobRecord{Op: OpRunning, ID: id(2*indexed - i%indexed), StartedAt: 1}); err != nil {
				t.Error(err)
			}
			out = append(out, span{start, time.Now()})
		}
	}()
	time.Sleep(20 * time.Millisecond)
	records := s.Stats().LogRecords
	start := time.Now()
	forget(t, s, id(indexed))
	end := time.Now()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	var longest time.Duration
	var during int
	for _, sp := range <-spans {
		if sp.end.After(start) && sp.start.Before(end) {
			longest = max(longest, sp.end.Sub(sp.start))
			during++
		}
	}
	if st := s.Stats(); st.Compactions != 1 || st.IndexedJobs != indexed {
		t.Fatalf("after the last forget: %+v", st)
	}
	t.Logf("longest Append wait %v of %d during a %v compaction (the Forget) of %d records for %d indexed jobs",
		longest, during, end.Sub(start), records, indexed)
	if longest > end.Sub(start)/2 {
		t.Errorf("an Append waited %v, over half of the %v compaction", longest, end.Sub(start))
	}
}
