// Package store provides durable persistence for the odeprotod service: a
// Store journals job lifecycle transitions and holds completed results as
// content-addressed blobs, with two backends — a no-op in-memory store
// (the daemon's historical behavior: nothing survives a restart) and a
// crash-safe file store that journals transitions to a segmented,
// CRC-checksummed append-only WAL and writes results as fsync'd blobs
// under results/<prefix>/<key>.
//
// The durability contract is two commit points per job, and the file store
// fsyncs exactly those. A job is accepted once its submitted record is
// fsync'd (Append, before the client's 202) and finished once its result
// blob is fsync'd and renamed into place (PutResult, before anyone can see
// it done). Results are immutable blobs keyed by the SHA-256 cache key of
// the spec that produced them, so the second point needs no coordination:
// rewriting the same key writes the same bytes. Every other record is an
// index over those two facts. The done record of an accepted job only
// repeats what its blob proves, so it is written without a flush of its own
// (AppendUnsynced) and rides the next one; a failed or aborted record, and
// the single done record of a job answered from the cache at submission, are
// the only evidence of what they say and are fsync'd like a submitted one.
//
// The recovery contract: Open replays every WAL segment in order, merging
// each job's records into its latest state. A torn or corrupted record
// truncates its segment at the last good byte instead of failing startup —
// the tail of an append-only log is the only place a crash can leave bytes
// in doubt, and a checksummed frame makes the cut point unambiguous. Jobs
// whose log ends before a terminal record are surfaced with Interrupted
// set: the service concludes each one done if its key's blob is on disk —
// the done record was lost, the commit point was not — and
// failed-restartable otherwise. (Older logs also hold a running record per
// pickup; it replays as one more non-terminal state.)
//
// The blob format: one file per result, told apart by its first bytes. A
// result's canonical JSON starts with '{' and is stored as is when it fits
// one 4 KiB filesystem block: compressing it frees no disk block and would
// cost every small job a deflate state. Anything larger is one gzip member
// (1f 8b, BestSpeed — a population trajectory deflates ≈ 10×), made durable
// exactly like the bytes it replaces and served to gzip clients as it lies.
// Identity blobs of any size and the <blob>.gz siblings older daemons kept
// are read where they are, never rewritten. A member ends in the CRC-32 and
// length of what it inflates to, and every read that inflates runs to EOF,
// so bit rot or truncation in a compressed blob is a read error, not a
// result. That detects accidents in the stored bytes and nothing more: it
// does not tie them to their key, and covers no identity blob.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Op enumerates the job lifecycle transitions journaled to the WAL.
type Op string

const (
	OpSubmitted Op = "submitted"
	OpRunning   Op = "running"
	OpDone      Op = "done"
	OpFailed    Op = "failed"
	OpAborted   Op = "aborted"
)

// opRank orders lifecycle ops so that replay merges out-of-order records
// safely: a terminal record is never overwritten by a late-arriving
// submitted/running record (appends from concurrent goroutines may
// interleave in the WAL in either order).
func opRank(op Op) int {
	switch op {
	case OpSubmitted:
		return 0
	case OpRunning:
		return 1
	case OpDone, OpFailed, OpAborted:
		return rankTerminal
	default:
		return -1
	}
}

const rankTerminal = 2

// JobRecord is one WAL entry: a patch to one job's state. Each op stamps
// the fields it owns (submitted carries the spec and key, terminal ops the
// error/cached flags); compaction snapshots carry everything at once.
type JobRecord struct {
	Op     Op              `json:"op"`
	ID     string          `json:"id"`
	Key    string          `json:"key,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	Error  string          `json:"error,omitempty"`
	Cached bool            `json:"cached,omitempty"`
	// Timestamps are Unix nanoseconds; zero means "not this transition".
	SubmittedAt int64 `json:"submitted_at,omitempty"`
	StartedAt   int64 `json:"started_at,omitempty"`
	FinishedAt  int64 `json:"finished_at,omitempty"`
	// Trace is the job's trace ID (internal/obs), journaled so a
	// recovered job keeps its cross-node correlation handle.
	Trace string `json:"trace,omitempty"`
}

// RecoveredJob is one job's state as rebuilt from the WAL at Open time.
type RecoveredJob struct {
	ID     string
	Key    string
	Spec   json.RawMessage
	Status Op // the rank-highest op replayed for this job
	Error  string
	Cached bool

	SubmittedAt int64
	StartedAt   int64
	FinishedAt  int64

	// Trace is the job's trace ID, from whichever record stamped one.
	Trace string

	// Interrupted marks a job whose WAL ends before a terminal record: it
	// was queued or mid-run when the previous process died.
	Interrupted bool
}

// Stats is a snapshot of a store's counters, which RegisterMetrics exposes.
type Stats struct {
	RecordsAppended int64
	WALSegments     int
	WALBytes        int64
	// WALSyncs counts append-path fsyncs: one per Append; AppendUnsynced
	// adds a record and no sync.
	WALSyncs int64
	// UnsyncedRecords counts the records written since the last fsync: what
	// a power loss would cost right now. Zero after Close.
	UnsyncedRecords int64
	ResultsWritten  int64
	// ResultBytes counts blob bytes as written to disk, ResultRawBytes the
	// canonical bytes they encode: their ratio is the compression achieved.
	ResultBytes    int64
	ResultRawBytes int64
	RecoveredJobs  int
	// IndexedJobs counts the jobs the store still indexes — every one
	// journaled and not forgotten — which is what a compaction rewrites.
	IndexedJobs     int
	TailTruncations int64
	Compactions     int64
}

// ErrNotFound reports a result key with no stored blob.
var ErrNotFound = errors.New("store: result not found")

var errClosed = errors.New("store: closed")

// checkUnsynced admits the one record that may skip its fsync: a done record
// naming the blob that proves it.
func checkUnsynced(rec JobRecord) error {
	if rec.Op != OpDone || rec.ID == "" || rec.Key == "" {
		return fmt.Errorf("store: only a done record with a job id and a result key may be appended unsynced, not %q (id %q, key %q)", rec.Op, rec.ID, rec.Key)
	}
	return nil
}

// Store persists job lifecycle records and completed results.
//
// Append journals one lifecycle transition, durable on return;
// AppendUnsynced accepts only a done record naming its result's key, and
// leaves it to the log's next flush (the package comment says why). PutResult
// durably stores a completed result under its content address —
// implementations must not return until the blob survives a crash (the
// service only marks a job done afterwards). GetResult returns the stored
// blob or ErrNotFound; GetResultReader returns the same bytes as a stream
// plus their size, so large blobs can be served without buffering them in
// memory (callers own the Close). GetResultGzip returns a gzip encoding of
// the result if the backend holds one — it never compresses — and
// ErrNotFound otherwise: callers then Deflate the canonical bytes.
// Recovered hands over the jobs rebuilt from the log at open time, in
// first-submitted order: the store keeps no copy, so only the first call
// returns them. Forget drops a job from the store's index of live jobs —
// the service calls it as a terminal job ages out of its table — so Compact
// stops carrying it; the job's records stay in the log until then, and its
// result blob stays where it is. Compact rewrites the log to one record per
// job still indexed, dropping superseded transitions.
type Store interface {
	Append(rec JobRecord) error
	AppendUnsynced(rec JobRecord) error
	Forget(id string)
	PutResult(key string, data []byte) error
	GetResult(key string) ([]byte, error)
	GetResultReader(key string) (io.ReadCloser, int64, error)
	GetResultGzip(key string) ([]byte, error)
	Recovered() []RecoveredJob
	Compact() error
	Stats() Stats
	Close() error
}

// memory is the no-op backend: lifecycle records are counted and dropped,
// a result lives only as long as the service's LRU holds it, and a restart
// forgets everything.
type memory struct {
	mu      sync.Mutex
	records int64
}

// NewMemory returns the in-memory (non-durable) backend.
func NewMemory() Store { return &memory{} }

func (m *memory) Append(rec JobRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.records++
	return nil
}

func (m *memory) AppendUnsynced(rec JobRecord) error {
	if err := checkUnsynced(rec); err != nil {
		return err
	}
	return m.Append(rec)
}

func (m *memory) Forget(id string) {}

func (m *memory) PutResult(key string, data []byte) error { return nil }

func (m *memory) GetResult(key string) ([]byte, error) { return nil, ErrNotFound }

func (m *memory) GetResultReader(key string) (io.ReadCloser, int64, error) {
	return nil, 0, ErrNotFound
}

func (m *memory) GetResultGzip(key string) ([]byte, error) { return nil, ErrNotFound }

func (m *memory) Recovered() []RecoveredJob { return nil }

func (m *memory) Compact() error { return nil }

func (m *memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{RecordsAppended: m.records}
}

func (m *memory) Close() error { return nil }
