package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Options configures the file backend; only the package's tests set it.
type Options struct {
	// segmentBytes rotates the WAL to a new segment beyond this size
	// (default 4 MiB).
	segmentBytes int64
}

const defaultSegmentBytes = 4 << 20

// The rule by which Forget compacts the log; the package comment states it.
const (
	CompactRatio = 4
	CompactFloor = 1024
)

// FileStore is the durable backend: a segmented WAL under <dir>/wal plus
// content-addressed result blobs under <dir>/results/<prefix>/<key>.
type FileStore struct {
	mu   sync.Mutex
	dir  string
	wal  *wal
	lock *os.File // flock'd LOCK file guarding the dir against a second process

	// jobs is the merged state of every job not forgotten, kept current
	// across appends; order is their first-seen order, preserved across
	// compaction, and may name forgotten IDs until Forget next prunes it.
	jobs  map[string]*RecoveredJob
	order []string

	recovered  []RecoveredJob // state snapshot taken at Open, until Recovered hands it over
	nRecovered int

	records        int64
	logRecords     int64 // records in the log: replayed at Open, appended since, or the last snapshot's
	resultsWritten int64
	resultBytes    int64
	resultRawBytes int64
	compactions    int64
	closed         bool
}

// Open replays the WAL under dir (creating the layout on first use) and
// returns a store ready for appends. Torn or corrupted WAL tails are
// truncated, never fatal; the jobs they strand mid-run are reported by
// Recovered with Interrupted set. The dir is flock'd for the store's
// lifetime: a second process opening the same dir would replay (and
// truncate) records the first is still appending, so it fails fast
// instead. The kernel releases the lock when the holder dies, which is
// what lets a restarted daemon recover from a crash without cleanup.
func Open(dir string, opts Options) (*FileStore, error) {
	segBytes := opts.segmentBytes
	if segBytes <= 0 {
		segBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		return nil, err
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	w, recs, err := openWAL(filepath.Join(dir, "wal"), segBytes)
	if err != nil {
		_ = lock.Close()
		return nil, err
	}
	s := &FileStore{dir: dir, wal: w, lock: lock, jobs: make(map[string]*RecoveredJob), logRecords: int64(len(recs))}
	for _, rec := range recs {
		s.apply(rec)
	}
	s.recovered = make([]RecoveredJob, 0, len(s.order))
	for _, id := range s.order {
		rj := *s.jobs[id]
		rj.Interrupted = opRank(rj.Status) < rankTerminal
		s.recovered = append(s.recovered, rj)
	}
	s.nRecovered = len(s.recovered)
	return s, nil
}

// apply merges one record into the live per-job state; callers hold s.mu
// (or run single-threaded during Open).
func (s *FileStore) apply(rec JobRecord) {
	j := s.jobs[rec.ID]
	if j == nil {
		j = &RecoveredJob{ID: rec.ID}
		s.jobs[rec.ID] = j
		s.order = append(s.order, rec.ID)
	}
	if opRank(rec.Op) >= opRank(j.Status) {
		j.Status = rec.Op
	}
	if rec.Key != "" {
		j.Key = rec.Key
	}
	if len(rec.Spec) > 0 {
		j.Spec = rec.Spec
	}
	if rec.Error != "" {
		j.Error = rec.Error
	}
	if rec.Cached {
		j.Cached = true
	}
	if rec.SubmittedAt != 0 {
		j.SubmittedAt = rec.SubmittedAt
	}
	if rec.StartedAt != 0 {
		j.StartedAt = rec.StartedAt
	}
	if rec.FinishedAt != 0 {
		j.FinishedAt = rec.FinishedAt
	}
	if rec.Trace != "" {
		j.Trace = rec.Trace
	}
}

// Append journals one lifecycle transition: framed, CRC'd, written, and
// fsync'd before returning.
func (s *FileStore) Append(rec JobRecord) error {
	if rec.ID == "" {
		return fmt.Errorf("store: record without a job id")
	}
	if opRank(rec.Op) < 0 {
		return fmt.Errorf("store: unknown op %q", rec.Op)
	}
	if err := s.write(rec); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.syncOpenSegment()
}

// AppendUnsynced journals a done record without an fsync of its own: durable
// once anything next syncs the open segment — an Append (its fsync covers
// every record written before it), a rotation or Close.
func (s *FileStore) AppendUnsynced(rec JobRecord) error {
	if err := checkUnsynced(rec); err != nil {
		return err
	}
	return s.write(rec)
}

// write frames rec into the open segment and merges it into the index;
// nothing is forced to disk.
func (s *FileStore) write(rec JobRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if err := s.wal.appendNoSync(rec); err != nil {
		return err
	}
	s.apply(rec)
	s.records++
	s.logRecords++
	return nil
}

// SyncedTail names the open WAL segment and its length at the last fsync: a
// power loss now would discard the bytes beyond it. For tests that do.
func (s *FileStore) SyncedTail() (segment string, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return segName(s.wal.segIndex), s.wal.syncedSize
}

// resultPath maps a cache key to its blob path, refusing anything that is
// not a plain lowercase-hex key: the keys are SHA-256 hashes, and anything
// else (separators, dots) could escape the data dir.
func resultPath(dir, key string) (string, error) {
	if len(key) < 4 || len(key) > 128 {
		return "", fmt.Errorf("store: bad result key %q", key)
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", fmt.Errorf("store: bad result key %q", key)
		}
	}
	return filepath.Join(dir, "results", key[:2], key), nil
}

var tmpSeq atomic.Int64

// writeAtomic publishes data at path: written to a temp file, fsync'd, and
// renamed into place, so a crash leaves either the whole file or nothing,
// never a torn read under a name a reader can open.
func writeAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.tmp%d", path, tmpSeq.Add(1))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// PutResult durably stores a completed result under its content address
// (writeAtomic), so the WAL never names a key whose blob is torn: a member as
// it lies, canonical JSON as StoredForm makes it. ResultBytes counts what
// reached the disk, ResultRawBytes the canonical bytes (a member's ISIZE).
func (s *FileStore) PutResult(key string, data []byte) error {
	path, err := resultPath(s.dir, key)
	if err != nil {
		return err
	}
	stored, raw := data, int64(len(data))
	if IsMember(data) && len(data) >= 4 {
		raw = int64(binary.LittleEndian.Uint32(data[len(data)-4:]))
	} else if len(data) > blockBytes {
		stored = Deflate(data)
	}
	if err := writeAtomic(path, stored); err != nil {
		return err
	}
	s.mu.Lock()
	s.resultsWritten++
	s.resultBytes += int64(len(stored))
	s.resultRawBytes += raw
	s.mu.Unlock()
	return nil
}

// OpenResult opens key's blob as it lies, with its size, or ErrNotFound. It
// reads nothing; the caller owns the Close.
func (s *FileStore) OpenResult(key string) (Blob, int64, error) {
	path, err := resultPath(s.dir, key)
	if err != nil {
		return nil, 0, ErrNotFound
	}
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, ErrNotFound
	} else if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// GetResult is GetResultReader read to EOF. The benchmark probe's; ROADMAP
// item 2 deletes it.
func (s *FileStore) GetResult(key string) ([]byte, error) {
	rc, size, err := s.GetResultReader(key)
	if err != nil {
		return nil, err
	}
	defer func() { _ = rc.Close() }()
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err = buf.ReadFrom(rc)
	return buf.Bytes(), err
}

// GetResultReader is OpenResult, then Inflate. The benchmark probe's; ROADMAP
// item 2 deletes it.
func (s *FileStore) GetResultReader(key string) (io.ReadCloser, int64, error) {
	b, size, err := s.OpenResult(key)
	if err != nil {
		return nil, 0, err
	}
	rc, n, err := Inflate(b, size)
	if err != nil {
		_ = b.Close()
		return nil, 0, fmt.Errorf("store: result %s: %w", key, err)
	}
	return rc, n, nil
}

// PutResultGzip writes gzip bytes as the sibling <blob>.gz, which nothing reads.
// The benchmark probe's; ROADMAP item 2 deletes it.
func (s *FileStore) PutResultGzip(key string, data []byte) error {
	path, err := resultPath(s.dir, key)
	if err != nil {
		return err
	}
	return writeAtomic(path+".gz", data)
}

// Recovered hands over the jobs rebuilt from the WAL at Open time, in
// first-submitted order. The store keeps only their count: a second call
// returns nil.
func (s *FileStore) Recovered() []RecoveredJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	recovered := s.recovered
	s.recovered = nil
	return recovered
}

// Forget drops a job from the index, so no compaction rewrites it. Its slot
// in order is reclaimed once forgotten IDs outnumber the indexed ones. Only a
// smaller index raises the log's records per indexed job, so Forget is where
// the log compacts itself; an error is the compaction's.
func (s *FileStore) Forget(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
	if len(s.order) > 2*len(s.jobs)+16 {
		live := s.order[:0]
		for _, id := range s.order {
			if s.jobs[id] != nil {
				live = append(live, id)
			}
		}
		clear(s.order[len(live):])
		s.order = live
	}
	if s.closed || s.logRecords < CompactFloor || s.logRecords < CompactRatio*int64(len(s.jobs)) {
		return nil
	}
	return s.compact()
}

// compact rewrites the WAL to one snapshot record per indexed job, dropping
// every superseded transition, and replaces all segments with a single one.
// Callers hold s.mu.
func (s *FileStore) compact() error {
	recs := make([]JobRecord, 0, len(s.jobs))
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil {
			continue // forgotten
		}
		recs = append(recs, JobRecord{
			Op:          j.Status,
			ID:          j.ID,
			Key:         j.Key,
			Spec:        j.Spec,
			Error:       j.Error,
			Cached:      j.Cached,
			SubmittedAt: j.SubmittedAt,
			StartedAt:   j.StartedAt,
			FinishedAt:  j.FinishedAt,
			Trace:       j.Trace,
		})
	}
	if err := s.wal.compact(recs); err != nil {
		return err
	}
	s.logRecords = int64(len(recs))
	s.compactions++
	return nil
}

func (s *FileStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		RecordsAppended: s.records,
		WALSegments:     s.wal.segments,
		WALBytes:        s.wal.totalBytes,
		WALSyncs:        s.wal.syncs,
		UnsyncedRecords: s.wal.unsynced,
		ResultsWritten:  s.resultsWritten,
		ResultBytes:     s.resultBytes,
		ResultRawBytes:  s.resultRawBytes,
		RecoveredJobs:   s.nRecovered,
		IndexedJobs:     len(s.jobs),
		LogRecords:      s.logRecords,
		TailTruncations: s.wal.truncations,
		Compactions:     s.compactions,
	}
}

// Close fsyncs and closes the open WAL segment and releases the dir lock.
// Appends after Close fail.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.wal.close()
	if s.lock != nil {
		// Closing the fd drops the flock; surface its error unless the WAL
		// close already claimed the return.
		if cerr := s.lock.Close(); err == nil {
			err = cerr
		}
		s.lock = nil
	}
	return err
}
