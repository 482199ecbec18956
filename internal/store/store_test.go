package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func mustOpen(t *testing.T, dir string, opts Options) *FileStore {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func lifecycle(id, key string) []JobRecord {
	return []JobRecord{
		{Op: OpSubmitted, ID: id, Key: key, Spec: json.RawMessage(`{"n":400}`), SubmittedAt: 100},
		{Op: OpRunning, ID: id, StartedAt: 200},
		{Op: OpDone, ID: id, FinishedAt: 300},
	}
}

func TestMemoryStoreIsNoop(t *testing.T) {
	m := NewMemory()
	if err := m.Append(JobRecord{Op: OpSubmitted, ID: "j1"}); err != nil {
		t.Fatal(err)
	}
	if err := m.PutResult("abcd", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.GetResult("abcd"); err != ErrNotFound {
		t.Fatalf("memory GetResult err = %v, want ErrNotFound", err)
	}
	if got := m.Recovered(); got != nil {
		t.Fatalf("memory Recovered = %v, want nil", got)
	}
	st := m.Stats()
	if st.RecordsAppended != 1 {
		t.Fatalf("memory stats %+v", st)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFileStoreAppendRecover(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if got := s.Recovered(); len(got) != 0 {
		t.Fatalf("fresh store recovered %d jobs", len(got))
	}
	for _, rec := range lifecycle("j000001", "aaaa") {
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// j000002 never reaches a terminal record: interrupted.
	if err := s.Append(JobRecord{Op: OpSubmitted, ID: "j000002", Key: "bbbb", SubmittedAt: 400}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(JobRecord{Op: OpRunning, ID: "j000002", StartedAt: 500}); err != nil {
		t.Fatal(err)
	}
	// j000003 fails.
	if err := s.Append(JobRecord{Op: OpSubmitted, ID: "j000003", SubmittedAt: 600}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(JobRecord{Op: OpFailed, ID: "j000003", Error: "boom", FinishedAt: 700}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(JobRecord{Op: OpRunning, ID: "j000001"}); err == nil {
		t.Fatal("append after Close succeeded")
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	got := s2.Recovered()
	if len(got) != 3 {
		t.Fatalf("recovered %d jobs, want 3", len(got))
	}
	j1, j2, j3 := got[0], got[1], got[2]
	if j1.ID != "j000001" || j1.Status != OpDone || j1.Interrupted {
		t.Fatalf("j1 = %+v", j1)
	}
	if j1.Key != "aaaa" || string(j1.Spec) != `{"n":400}` {
		t.Fatalf("j1 lost submit fields: %+v", j1)
	}
	if j1.SubmittedAt != 100 || j1.StartedAt != 200 || j1.FinishedAt != 300 {
		t.Fatalf("j1 timestamps %+v", j1)
	}
	if j2.ID != "j000002" || j2.Status != OpRunning || !j2.Interrupted {
		t.Fatalf("j2 = %+v", j2)
	}
	if j3.Status != OpFailed || j3.Error != "boom" || j3.Interrupted {
		t.Fatalf("j3 = %+v", j3)
	}
	if st := s2.Stats(); st.RecoveredJobs != 3 || st.TailTruncations != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestOutOfOrderRecordsMergeByRank(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	// The worker's done record lands before the submitter's submitted
	// record (both goroutines race to the WAL).
	if err := s.Append(JobRecord{Op: OpDone, ID: "j000009", FinishedAt: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(JobRecord{Op: OpSubmitted, ID: "j000009", Key: "cccc", SubmittedAt: 1}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	got := s2.Recovered()
	if len(got) != 1 || got[0].Status != OpDone || got[0].Interrupted {
		t.Fatalf("out-of-order merge = %+v", got)
	}
	if got[0].Key != "cccc" {
		t.Fatalf("late submitted record lost its key: %+v", got[0])
	}
}

func TestResultRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()

	key := "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	if _, err := s.GetResult(key); err != ErrNotFound {
		t.Fatalf("missing result err = %v, want ErrNotFound", err)
	}
	blob := []byte(`{"states":["x","y"],"runs":[]}`)
	if err := s.PutResult(key, blob); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetResult(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("GetResult = %q, want %q", got, blob)
	}
	// The blob lands under results/<first-two-hex>/<key>, atomically (no
	// leftover temp files).
	path := filepath.Join(dir, "results", key[:2], key)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("blob not at %s: %v", path, err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "results", key[:2]))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("result dir holds %d entries, want just the blob", len(entries))
	}
	if st := s.Stats(); st.ResultsWritten != 1 || st.ResultBytes != int64(len(blob)) {
		t.Fatalf("result stats %+v", st)
	}

	// Keys that are not plain lowercase hex are rejected, not resolved as
	// paths.
	for _, bad := range []string{"", "ab", "../../etc/passwd", "ABCDEF012345", "abcd/efgh", "abcdefg."} {
		if err := s.PutResult(bad, blob); err == nil {
			t.Fatalf("PutResult accepted key %q", bad)
		}
		if _, err := s.GetResult(bad); err != ErrNotFound {
			t.Fatalf("GetResult(%q) err = %v, want ErrNotFound", bad, err)
		}
	}
}

// TestResultReaderStreams pins the streaming read API: GetResultReader
// hands back the blob bytes and the exact on-disk size without buffering
// the whole result, and missing keys surface as ErrNotFound.
func TestResultReaderStreams(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()

	key := "fedcba9876543210fedcba9876543210fedcba9876543210fedcba9876543210"
	if _, _, err := s.GetResultReader(key); err != ErrNotFound {
		t.Fatalf("missing result reader err = %v, want ErrNotFound", err)
	}
	blob := []byte(`{"states":["x","y"],"runs":[{"seed":1}]}`)
	if err := s.PutResult(key, blob); err != nil {
		t.Fatal(err)
	}
	rc, size, err := s.GetResultReader(key)
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(blob)) {
		t.Fatalf("reader size = %d, want %d", size, len(blob))
	}
	got, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("streamed bytes = %q, want %q", got, blob)
	}
	// Invalid keys behave like missing ones — no path resolution.
	if _, _, err := s.GetResultReader("../../etc/passwd"); err != ErrNotFound {
		t.Fatalf("bad-key reader err = %v, want ErrNotFound", err)
	}

	// The memory backend never has bytes to stream.
	m := NewMemory()
	if _, _, err := m.GetResultReader(key); err != ErrNotFound {
		t.Fatalf("memory reader err = %v, want ErrNotFound", err)
	}
}

// TestResultGzipSibling pins where a gzip encoding comes from now that the
// store produces no sibling: a blob above one block is a gzip member, and
// GetResultGzip hands back the file as it lies; a blob that fits one block is
// stored as is and has none (callers deflate the canonical bytes themselves).
// PutResultGzip survives on *FileStore for the benchmark's probe and old
// directories: a sibling beside an identity blob is still read.
func TestResultGzipSibling(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()

	big := "00112233445566770011223344556677001122334455667700112233445566ff"
	small := "00112233445566770011223344556677001122334455667700112233445566ee"
	if _, err := s.GetResultGzip(big); err != ErrNotFound {
		t.Fatalf("missing gzip err = %v, want ErrNotFound", err)
	}
	canonical := trajectory(400)
	if len(canonical) <= blockBytes {
		t.Fatalf("the large blob is only %d B", len(canonical))
	}
	if err := s.PutResult(big, canonical); err != nil {
		t.Fatal(err)
	}
	if err := s.PutResult(small, []byte(`{"states":[]}`)); err != nil {
		t.Fatal(err)
	}

	member, err := s.GetResultGzip(big)
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, "results", big[:2], big))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(member, onDisk) || cap(member) != len(member) {
		t.Fatalf("GetResultGzip returned %d B (cap %d), the file holds %d B: want the stored member, exactly sized", len(member), cap(member), len(onDisk))
	}
	if got := gunzip(t, member); !bytes.Equal(got, canonical) {
		t.Fatal("the stored member does not inflate to the canonical bytes")
	}
	if _, err := s.GetResultGzip(small); err != ErrNotFound {
		t.Fatalf("sub-block blob: gzip err = %v, want ErrNotFound", err)
	}
	// One file per result, no sibling, no temp droppings; and both writes
	// count, at the size that reached the disk.
	entries, err := os.ReadDir(filepath.Join(dir, "results", big[:2]))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("result dir holds %d entries, want the two blobs", len(entries))
	}
	raw := int64(len(canonical) + len(`{"states":[]}`))
	if st := s.Stats(); st.ResultsWritten != 2 || st.ResultBytes != int64(len(onDisk)+len(`{"states":[]}`)) || st.ResultRawBytes != raw {
		t.Fatalf("results_written = %d, result_bytes = %d, result_raw_bytes = %d, want 2, %d on disk, %d raw",
			st.ResultsWritten, st.ResultBytes, st.ResultRawBytes, len(onDisk)+len(`{"states":[]}`), raw)
	}

	// A sibling written the old way is served for an identity blob, counts
	// as no result written, and never shadows a compressed blob's own bytes.
	gz := Deflate([]byte(`{"states":[]}`))
	for _, key := range []string{small, big} {
		if err := s.PutResultGzip(key, gz); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := s.GetResultGzip(small); err != nil || !bytes.Equal(got, gz) {
		t.Fatalf("identity blob with a sibling: %d B, err %v, want the sibling's %d B", len(got), err, len(gz))
	}
	if got, err := s.GetResultGzip(big); err != nil || !bytes.Equal(got, onDisk) {
		t.Fatalf("compressed blob with a sibling: %d B, err %v, want its own %d B", len(got), err, len(onDisk))
	}
	if st := s.Stats(); st.ResultsWritten != 2 {
		t.Fatalf("siblings moved results_written to %d", st.ResultsWritten)
	}
	// Bad keys are rejected on both sides.
	if err := s.PutResultGzip("abcd/efgh", gz); err == nil {
		t.Fatal("PutResultGzip accepted a path-like key")
	}
	if _, err := s.GetResultGzip("abcd/efgh"); err != ErrNotFound {
		t.Fatalf("bad-key gzip err = %v, want ErrNotFound", err)
	}

	// Memory backend: nothing to read back.
	if _, err := NewMemory().GetResultGzip(big); err != ErrNotFound {
		t.Fatalf("memory gzip err = %v, want ErrNotFound", err)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// ~100-byte records against a 256-byte bound: rotation every couple of
	// appends.
	s := mustOpen(t, dir, Options{SegmentBytes: 256})
	var want []string
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("j%06d", i+1)
		want = append(want, id)
		if err := s.Append(JobRecord{Op: OpSubmitted, ID: id, Key: "abcd", SubmittedAt: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.WALSegments < 2 {
		t.Fatalf("no rotation happened: %+v", st)
	}
	s.Close()

	s2 := mustOpen(t, dir, Options{SegmentBytes: 256})
	defer s2.Close()
	got := s2.Recovered()
	if len(got) != len(want) {
		t.Fatalf("recovered %d jobs across segments, want %d", len(got), len(want))
	}
	for i, rj := range got {
		if rj.ID != want[i] {
			t.Fatalf("recovered[%d] = %s, want %s (order lost)", i, rj.ID, want[i])
		}
	}
}

func TestCompactionDropsSupersededRecords(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 512})
	const jobs = 12
	for i := 0; i < jobs; i++ {
		for _, rec := range lifecycle(fmt.Sprintf("j%06d", i+1), "abcd") {
			if err := s.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := s.Stats()
	if before.WALSegments < 2 {
		t.Fatalf("test wants multiple segments before compaction, got %+v", before)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.WALSegments != 1 || after.Compactions != 1 {
		t.Fatalf("post-compaction stats %+v", after)
	}
	if after.WALBytes >= before.WALBytes {
		t.Fatalf("compaction grew the WAL: %d -> %d bytes", before.WALBytes, after.WALBytes)
	}

	// Appends continue on the compacted segment, and recovery sees the
	// same merged state: one record per job, nothing lost.
	if err := s.Append(JobRecord{Op: OpSubmitted, ID: "j000099", SubmittedAt: 1}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := mustOpen(t, dir, Options{SegmentBytes: 512})
	defer s2.Close()
	got := s2.Recovered()
	if len(got) != jobs+1 {
		t.Fatalf("recovered %d jobs after compaction, want %d", len(got), jobs+1)
	}
	for i := 0; i < jobs; i++ {
		rj := got[i]
		if rj.Status != OpDone || rj.SubmittedAt != 100 || rj.StartedAt != 200 || rj.FinishedAt != 300 {
			t.Fatalf("compaction lost state for %s: %+v", rj.ID, rj)
		}
	}
	if got[jobs].ID != "j000099" || !got[jobs].Interrupted {
		t.Fatalf("post-compaction append lost: %+v", got[jobs])
	}
}

// TestForgetBoundsTheIndex: a forgotten job stays in the WAL until the next
// compaction and no longer — the index, its order list and what Compact
// rewrites all follow Forget — while its result blob stays readable; and
// Recovered hands its slice over once, leaving the store only the count.
func TestForgetBoundsTheIndex(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	const jobs, keep = 200, 10
	for i := 0; i < jobs; i++ {
		id := fmt.Sprintf("j%06d", i+1)
		for _, rec := range lifecycle(id, "abcd") {
			if err := s.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if i >= keep {
			s.Forget(fmt.Sprintf("j%06d", i+1-keep))
		}
	}
	s.Forget("j999999") // unknown IDs are ignored
	if err := s.PutResult("abcd", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.IndexedJobs != keep {
		t.Fatalf("index holds %d jobs after forgetting all but the last %d", st.IndexedJobs, keep)
	}
	s.mu.Lock()
	slots := len(s.order)
	s.mu.Unlock()
	if slots > 2*keep+16 {
		t.Fatalf("order list holds %d IDs for %d indexed jobs", slots, keep)
	}
	s.Close()

	// Uncompacted, the WAL still replays every job.
	s2 := mustOpen(t, dir, Options{})
	if got := s2.Recovered(); len(got) != jobs {
		t.Fatalf("recovered %d jobs from the uncompacted WAL, want %d", len(got), jobs)
	}
	if again := s2.Recovered(); again != nil || s2.Stats().RecoveredJobs != jobs {
		t.Fatalf("second Recovered() = %d jobs, stats count %d: want nil and %d", len(again), s2.Stats().RecoveredJobs, jobs)
	}
	for i := 0; i < jobs-keep; i++ {
		s2.Forget(fmt.Sprintf("j%06d", i+1))
	}
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	s3 := mustOpen(t, dir, Options{})
	defer s3.Close()
	got := s3.Recovered()
	if len(got) != keep || got[0].ID != fmt.Sprintf("j%06d", jobs-keep+1) || got[keep-1].Status != OpDone {
		t.Fatalf("after forgetting and compacting, recovered %d jobs starting at %+v", len(got), got[0])
	}
	if data, err := s3.GetResult("abcd"); err != nil || string(data) != `{}` {
		t.Fatalf("result of forgotten jobs: %q, %v", data, err)
	}
}

// lastSegment returns the path of the highest-numbered WAL segment.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no WAL segments")
	}
	return filepath.Join(dir, "wal", entries[len(entries)-1].Name())
}

func TestTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for _, rec := range lifecycle("j000001", "aaaa") {
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Simulate a torn write: a frame header promising more bytes than the
	// crash left behind.
	seg := lastSegment(t, dir)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	goodSize := info.Size()
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := mustOpen(t, dir, Options{})
	got := s2.Recovered()
	if len(got) != 1 || got[0].Status != OpDone {
		t.Fatalf("recovered %+v after torn tail", got)
	}
	if st := s2.Stats(); st.TailTruncations != 1 {
		t.Fatalf("tail truncations = %d, want 1", st.TailTruncations)
	}
	info, err = os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != goodSize {
		t.Fatalf("segment size %d after recovery, want truncation back to %d", info.Size(), goodSize)
	}
	// The log keeps working after truncation.
	if err := s2.Append(JobRecord{Op: OpSubmitted, ID: "j000002", SubmittedAt: 1}); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := mustOpen(t, dir, Options{})
	defer s3.Close()
	if got := s3.Recovered(); len(got) != 2 {
		t.Fatalf("recovered %d jobs after post-truncation append, want 2", len(got))
	}
}

// TestCorruptionFuzz cuts and flips bytes at seeded-random offsets and
// asserts recovery never fails and always yields a prefix of the appended
// records — the CRC turns every damage pattern into a clean truncation.
func TestCorruptionFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{})
		const n = 8
		for i := 0; i < n; i++ {
			rec := JobRecord{Op: OpSubmitted, ID: fmt.Sprintf("j%06d", i+1), Key: "abcd", SubmittedAt: int64(i + 1)}
			if err := s.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()

		seg := lastSegment(t, dir)
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		switch trial % 3 {
		case 0: // truncate at a random offset (torn final write)
			cut := rng.Intn(len(data) + 1)
			data = data[:cut]
		case 1: // flip one random byte (bit rot / partial overwrite)
			pos := rng.Intn(len(data))
			data[pos] ^= byte(1 + rng.Intn(255))
		case 2: // truncate and append garbage
			cut := rng.Intn(len(data) + 1)
			garbage := make([]byte, rng.Intn(32))
			rng.Read(garbage)
			data = append(data[:cut], garbage...)
		}
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}

		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("trial %d: recovery failed: %v", trial, err)
		}
		got := s2.Recovered()
		if len(got) > n {
			t.Fatalf("trial %d: recovered %d jobs from %d appends", trial, len(got), n)
		}
		for i, rj := range got {
			if want := fmt.Sprintf("j%06d", i+1); rj.ID != want {
				t.Fatalf("trial %d: recovered[%d] = %s, want %s (not a prefix)", trial, i, rj.ID, want)
			}
		}
		// A recovered store must accept appends again.
		if err := s2.Append(JobRecord{Op: OpSubmitted, ID: "j000100", SubmittedAt: 1}); err != nil {
			t.Fatalf("trial %d: append after recovery: %v", trial, err)
		}
		s2.Close()
	}
}

func TestAppendValidation(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	if err := s.Append(JobRecord{Op: OpDone}); err == nil {
		t.Fatal("record without an id accepted")
	}
	if err := s.Append(JobRecord{Op: "resubmitted", ID: "j000001"}); err == nil {
		t.Fatal("record with an unknown op accepted")
	}
}

// TestConcurrentAppendsEachSync drives many goroutines through Append and
// verifies every record is durable (all replay after reopen) and that each
// one paid exactly one fsync of its own.
func TestConcurrentAppendsEachSync(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	const (
		writers = 8
		each    = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers*each)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := fmt.Sprintf("j%03d%03d", w, i)
				if err := s.Append(JobRecord{Op: OpSubmitted, ID: id, Key: "abcd", SubmittedAt: 1}); err != nil {
					errs <- fmt.Errorf("append %s: %w", id, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.RecordsAppended != writers*each || st.WALSyncs != st.RecordsAppended {
		t.Fatalf("%d records appended with %d fsyncs, want %d of each", st.RecordsAppended, st.WALSyncs, writers*each)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if got := len(s2.Recovered()); got != writers*each {
		t.Fatalf("recovered %d jobs after concurrent appends, want %d", got, writers*each)
	}
}

// TestAppendUnsyncedOnlyDone: the unsynced append is for the one record a
// result blob already proves — on both backends it refuses every other op,
// and a done record that names no key.
func TestAppendUnsyncedOnlyDone(t *testing.T) {
	fs := mustOpen(t, t.TempDir(), Options{})
	defer fs.Close()
	for name, s := range map[string]Store{"file": fs, "memory": NewMemory()} {
		for _, rec := range []JobRecord{
			{Op: OpSubmitted, ID: "j000001", Key: "abcd"},
			{Op: OpRunning, ID: "j000001", Key: "abcd"},
			{Op: OpFailed, ID: "j000001", Key: "abcd", Error: "boom"},
			{Op: OpAborted, ID: "j000001", Key: "abcd"},
			{Op: "resubmitted", ID: "j000001", Key: "abcd"},
			{Op: OpDone, ID: "j000001"},
			{Op: OpDone, Key: "abcd"},
		} {
			if err := s.AppendUnsynced(rec); err == nil {
				t.Errorf("%s: unsynced append accepted %+v", name, rec)
			}
		}
		if err := s.AppendUnsynced(JobRecord{Op: OpDone, ID: "j000001", Key: "abcd", FinishedAt: 1}); err != nil {
			t.Errorf("%s: unsynced append of a done record: %v", name, err)
		}
		if st := s.Stats(); st.RecordsAppended != 1 || st.WALSyncs != 0 {
			t.Errorf("%s: after one unsynced append and seven refusals: %+v", name, st)
		}
	}
}

// walLen is the open segment's length on disk.
func walLen(t *testing.T, s *FileStore, dir string) int64 {
	t.Helper()
	seg, _ := s.SyncedTail()
	info, err := os.Stat(filepath.Join(dir, "wal", seg))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestAppendUnsyncedRidesTheNextSync: unsynced records are written and
// indexed at once, cost no fsync, and become durable with the next synced
// append, with a rotation, and with Close.
// SyncedTail marks how much of the open segment a power loss would keep.
func TestAppendUnsyncedRidesTheNextSync(t *testing.T) {
	// The subtest keeps the name it had beside the deleted group-commit arm,
	// so the plain-append path stays tracked under the same id.
	t.Run("group=false", appendUnsyncedRidesTheNextSync)
}

func appendUnsyncedRidesTheNextSync(t *testing.T) {
	done := func(i int) JobRecord {
		return JobRecord{Op: OpDone, ID: fmt.Sprintf("j%06d", i), Key: "abcd", StartedAt: 1, FinishedAt: int64(i)}
	}
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Append(JobRecord{Op: OpSubmitted, ID: "j000001", Key: "abcd", SubmittedAt: 1}); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	_, synced := s.SyncedTail()
	if synced != walLen(t, s, dir) || before.UnsyncedRecords != 0 {
		t.Fatalf("after a synced append: synced to %d of %d bytes, %d records unsynced", synced, walLen(t, s, dir), before.UnsyncedRecords)
	}

	// Two unsynced records and one Append: one fsync covers all three.
	for i := 1; i <= 2; i++ {
		if err := s.AppendUnsynced(done(i)); err != nil {
			t.Fatal(err)
		}
	}
	mid := s.Stats()
	if _, tail := s.SyncedTail(); tail != synced || mid.UnsyncedRecords != 2 || mid.WALSyncs != before.WALSyncs ||
		mid.RecordsAppended != before.RecordsAppended+2 || mid.WALBytes != walLen(t, s, dir) || mid.IndexedJobs != 2 {
		t.Fatalf("after two unsynced appends: synced tail %d (was %d), stats %+v", tail, synced, mid)
	}
	if err := s.Append(JobRecord{Op: OpSubmitted, ID: "j000002", Key: "abcd", SubmittedAt: 2}); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if _, tail := s.SyncedTail(); tail != walLen(t, s, dir) || after.UnsyncedRecords != 0 || after.WALSyncs != before.WALSyncs+1 {
		t.Fatalf("two unsynced records and one Append moved wal_syncs %d -> %d, synced tail %d of %d, %d unsynced",
			before.WALSyncs, after.WALSyncs, tail, walLen(t, s, dir), after.UnsyncedRecords)
	}

	// One more, left for Close to flush.
	if err := s.AppendUnsynced(done(3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.UnsyncedRecords != 0 {
		t.Fatalf("%d records unsynced after Close", st.UnsyncedRecords)
	}
	if err := s.AppendUnsynced(done(4)); err == nil {
		t.Fatal("unsynced append after Close succeeded")
	}

	s2 := mustOpen(t, dir, Options{SegmentBytes: 256})
	got := s2.Recovered()
	if len(got) != 3 {
		t.Fatalf("recovered %d jobs, want 3", len(got))
	}
	for i, rj := range got {
		if rj.Status != OpDone || rj.FinishedAt != int64(i+1) || rj.Interrupted {
			t.Fatalf("recovered[%d] = %+v, want done at %d", i, rj, i+1)
		}
	}

	// Unsynced appends rotate like any other, and a rotation syncs the
	// segment it closes: only the open one can hold a tail.
	for i := 4; i <= 12; i++ {
		if err := s2.AppendUnsynced(done(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s2.Stats()
	if st.WALSegments < 3 || st.WALSyncs != 0 || st.UnsyncedRecords < 1 || st.UnsyncedRecords > 3 {
		t.Fatalf("after nine unsynced appends over 256-byte segments: %+v", st)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := mustOpen(t, dir, Options{})
	defer s3.Close()
	if got := s3.Recovered(); len(got) != 12 || got[11].FinishedAt != 12 {
		t.Fatalf("recovered %d jobs after rotations, want 12", len(got))
	}
}

// TestLegacyRunningRecordsReplay: data dirs written before the pickup stopped
// being journaled hold a running record per job (and bench/probe.go still
// writes one). It stays a legal op: it appends, replays, and ranks between
// submitted and terminal.
func TestLegacyRunningRecordsReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for _, rec := range []JobRecord{
		{Op: OpSubmitted, ID: "j000001", Key: "aaaa", SubmittedAt: 100},
		{Op: OpRunning, ID: "j000001", Key: "aaaa", StartedAt: 200},
		{Op: OpDone, ID: "j000001", Key: "aaaa", FinishedAt: 300},
		{Op: OpRunning, ID: "j000002", Key: "bbbb", StartedAt: 500},
		{Op: OpSubmitted, ID: "j000002", Key: "bbbb", SubmittedAt: 400},
	} {
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	got := s2.Recovered()
	if len(got) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(got))
	}
	if j := got[0]; j.Status != OpDone || j.StartedAt != 200 || j.Interrupted {
		t.Fatalf("j000001 = %+v", j)
	}
	if j := got[1]; j.Status != OpRunning || j.StartedAt != 500 || j.SubmittedAt != 400 || !j.Interrupted {
		t.Fatalf("j000002 = %+v", j)
	}
}
