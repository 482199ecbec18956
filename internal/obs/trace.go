package obs

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// TraceHeader carries a job's trace ID across cluster forwards, so the
// node that accepted the submit and the node that owns the key log the
// same ID.
const TraceHeader = "X-Odeproto-Trace"

// Lifecycle stages, in the order a job moves through them. Cached
// jobs skip swept/persisted (nothing ran, nothing new was written).
const (
	StageQueued    = "queued"
	StageCompiled  = "compiled"
	StageSwept     = "swept"
	StagePersisted = "persisted"
	StageResponded = "responded"
)

// NewTraceID returns a 32-hex-char random trace ID.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform's randomness source is
		// gone; trace IDs are diagnostics, not security, so degrade to a
		// fixed sentinel rather than taking the serving path down.
		return "00000000000000000000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ValidTraceID reports whether s is shaped like a trace ID this package
// minted — forwarded headers are untrusted input, and anything else is
// dropped rather than echoed into logs and the WAL.
func ValidTraceID(s string) bool {
	if len(s) != 32 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Span is one timestamped lifecycle stage.
type Span struct {
	Stage string    `json:"stage"`
	At    time.Time `json:"at"`
}

// Trace is one job's trail: the ID plus its spans so far. Safe for
// concurrent use; spans are append-only.
type Trace struct {
	ID   string
	Node string

	mu    sync.Mutex
	spans []Span
}

// NewTrace starts a trace with room for exactly stages spans: a job keeps its
// trace for as long as it is listed, so the backing array is allocated once,
// at the size the lifecycle fills. If id is empty or malformed a fresh ID is
// minted; node names the daemon recording the spans.
func NewTrace(id, node string, stages int) *Trace {
	if !ValidTraceID(id) {
		id = NewTraceID()
	}
	return &Trace{ID: id, Node: node, spans: make([]Span, 0, stages)}
}

// Add records a stage at time now.
func (t *Trace) Add(stage string, now time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, Span{Stage: stage, At: now})
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in record order.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}
