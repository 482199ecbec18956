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
	fs           fileSystem // default osFS
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
	fs   fileSystem
	wal  *wal
	lock io.Closer // flock'd LOCK file guarding the dir against a second process

	// ids is the index: every job journaled and not forgotten. It is all a
	// compaction takes from memory; the states it writes come from the log.
	ids        map[string]struct{}
	compacting bool
	retryAt    int64 // after a failed compaction, the log length that tries again

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
	fsys := opts.fs
	if fsys == nil {
		fsys = osFS{}
	}
	if err := mkdirDurable(fsys, filepath.Join(dir, "results")); err != nil {
		return nil, err
	}
	lock, err := fsys.Lock(dir)
	if err != nil {
		return nil, err
	}
	m := merged{at: map[string]int{}}
	w, err := openWAL(fsys, filepath.Join(dir, "wal"), segBytes, m.add)
	if err != nil {
		_ = lock.Close()
		return nil, err
	}
	s := &FileStore{dir: dir, fs: fsys, wal: w, lock: lock, ids: make(map[string]struct{}, len(m.jobs)), logRecords: m.records}
	for i := range m.jobs {
		rj := &m.jobs[i]
		rj.Interrupted = opRank(rj.Status) < rankTerminal
		s.ids[rj.ID] = struct{}{}
	}
	s.recovered, s.nRecovered = m.jobs, len(m.jobs)
	return s, nil
}

// merged folds replayed records into one state per job, in first-seen order.
type merged struct {
	jobs    []RecoveredJob
	at      map[string]int
	records int64
}

// add merges one record into its job's state: later fields win, and an op
// never lowers the job's rank.
func (m *merged) add(rec JobRecord) {
	m.records++
	i, ok := m.at[rec.ID]
	if !ok {
		i = len(m.jobs)
		m.at[rec.ID] = i
		m.jobs = append(m.jobs, RecoveredJob{ID: rec.ID})
	}
	j := &m.jobs[i]
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

// write frames rec into the open segment and indexes its job; nothing is
// forced to disk.
func (s *FileStore) write(rec JobRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if err := s.wal.appendNoSync(rec); err != nil {
		return err
	}
	s.ids[rec.ID] = struct{}{}
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

// writeAtomic publishes what write writes at path: to a temp file, fsync'd,
// renamed into place and the dir fsync'd, so a crash leaves either the whole
// file or nothing, never a torn read under a name a reader can open.
func writeAtomic(fsys fileSystem, path string, write func(io.Writer) error) error {
	if err := mkdirDurable(fsys, filepath.Dir(path)); err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.tmp%d", path, tmpSeq.Add(1))
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL)
	if err != nil {
		return err
	}
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

var mkdirMu sync.Mutex

// mkdirDurable creates dir, and any missing parent, and fsyncs each new dir's
// parent, so the new entries survive a crash; an existing dir costs one
// syscall. Callers wait on each other, so none returns before a dir another
// has just made is durable. A dir whose parent fails to sync is removed again,
// so the next call retries the sync.
func mkdirDurable(fsys fileSystem, dir string) error {
	mkdirMu.Lock()
	defer mkdirMu.Unlock()
	var mkdir func(string) error
	mkdir = func(dir string) error {
		err := fsys.Mkdir(dir)
		if parent := filepath.Dir(dir); errors.Is(err, fs.ErrNotExist) && parent != dir {
			if err = mkdir(parent); err == nil {
				err = fsys.Mkdir(dir)
			}
		}
		if errors.Is(err, fs.ErrExist) {
			return nil
		} else if err != nil {
			return err
		}
		if err := fsys.SyncDir(filepath.Dir(dir)); err != nil {
			_ = fsys.Remove(dir)
			return err
		}
		return nil
	}
	return mkdir(dir)
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
	if err := writeAtomic(s.fs, path, func(w io.Writer) error { _, err := w.Write(stored); return err }); err != nil {
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
	f, err := s.fs.OpenFile(path, os.O_RDONLY)
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
	return writeAtomic(s.fs, path+".gz", func(w io.Writer) error { _, err := w.Write(data); return err })
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

// Forget drops a job from the index, so no compaction rewrites it. Only a
// smaller index raises the log's records per indexed job, so Forget is where
// the log compacts itself; an error is the compaction's.
func (s *FileStore) Forget(id string) error {
	s.mu.Lock()
	delete(s.ids, id)
	due := !s.closed && s.logRecords >= max(CompactFloor, CompactRatio*int64(len(s.ids)), s.retryAt)
	s.mu.Unlock()
	if !due {
		return nil
	}
	return s.compact()
}

// compact rewrites the log to one snapshot record per indexed job, holding
// s.mu only to seal the log, to read the index and to retire the old
// segments. Sealing rotates appends to segment k+2 and reserves k+1 for the
// snapshot, which merges segments 1..k replayed read-only; appends made
// meanwhile replay after it. At every step the log on disk replays to the
// same state: the snapshot repeats what the segments before it say. A job
// forgotten while the snapshot is written keeps its record until the next
// compaction, as if forgotten after this one. One compaction runs at a time;
// after a failed one the next waits for the log to double.
func (s *FileStore) compact() error {
	s.mu.Lock()
	if s.compacting {
		s.mu.Unlock()
		return nil
	}
	s.compacting = true
	sealed, sealedRecords := s.wal.segIndex, s.logRecords
	err := s.wal.rotate(sealed + 2)
	s.mu.Unlock()
	var old []int
	var oldBytes, size int64
	var live []RecoveredJob
	if err == nil {
		snap := merged{at: map[string]int{}}
		old, oldBytes, err = s.replaySealed(sealed, &snap)
		// A job forgotten mid-replay may have lost records to the filter: the
		// rest of it goes too.
		s.mu.Lock()
		live = snap.jobs[:0]
		for _, j := range snap.jobs {
			if _, ok := s.ids[j.ID]; ok {
				live = append(live, j)
			}
		}
		s.mu.Unlock()
	}
	if err == nil {
		err = writeAtomic(s.fs, filepath.Join(s.wal.dir, segName(sealed+1)), func(f io.Writer) error {
			for _, j := range live {
				buf, err := frame(JobRecord{Op: j.Status, ID: j.ID, Key: j.Key, Spec: j.Spec, Error: j.Error, Cached: j.Cached,
					SubmittedAt: j.SubmittedAt, StartedAt: j.StartedAt, FinishedAt: j.FinishedAt, Trace: j.Trace})
				if err == nil {
					_, err = f.Write(buf)
				}
				if err != nil {
					return err
				}
				size += int64(len(buf))
			}
			return nil
		})
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.compacting = false
	if err == nil && s.closed {
		err = errClosed
	}
	for i := 0; i < len(old) && err == nil; i++ {
		err = s.fs.Remove(filepath.Join(s.wal.dir, segName(old[i])))
	}
	if err != nil {
		s.retryAt = 2 * s.logRecords
		return err
	}
	s.wal.segments += 1 - len(old)
	s.wal.totalBytes += size - oldBytes
	s.logRecords += int64(len(live)) - sealedRecords
	s.compactions++
	return nil
}

// replaySealed merges the records of segments 1..sealed into snap, those of
// jobs still indexed, and returns the segments' indices and bytes. It takes
// s.mu once per segment, to read the index. A bad frame is an error, since a
// compaction must not drop what it cannot read.
func (s *FileStore) replaySealed(sealed int, snap *merged) (old []int, size int64, err error) {
	indices, err := segmentIndices(s.fs, s.wal.dir)
	var recs []JobRecord
	for _, idx := range indices {
		if err != nil || idx > sealed {
			break
		}
		path := filepath.Join(s.wal.dir, segName(idx))
		recs = recs[:0]
		good, n, rerr := readSegment(s.fs, path, func(rec JobRecord) { recs = append(recs, rec) })
		if err = rerr; err == nil && good < n {
			err = fmt.Errorf("store: sealed segment %s holds a torn or corrupted frame at byte %d", path, good)
		}
		kept := recs[:0]
		s.mu.Lock()
		for _, rec := range recs {
			if _, ok := s.ids[rec.ID]; ok {
				kept = append(kept, rec)
			}
		}
		s.mu.Unlock()
		for _, rec := range kept {
			snap.add(rec)
		}
		old, size = append(old, idx), size+n
	}
	return old, size, err
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
		IndexedJobs:     len(s.ids),
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
