package service

import (
	"context"
	"net/http"
	"sync"

	"odeproto/internal/ode"
)

// StreamRow is one NDJSON line of GET /v1/jobs/{id}/stream: the per-state
// counts observed at the end of one recorded period of one run. Rows from
// different runs of a multi-seed job interleave in arrival order while it
// runs (the final JobResult is deterministic; the live interleaving is
// not) and replay run by run afterwards. This is the schema clients decode
// into; the service writes the lines with the append encoder (encode.go).
type StreamRow struct {
	Run    int    `json:"run"`
	Seed   int64  `json:"seed"`
	Period int    `json:"period"`
	Counts []int  `json:"counts"`
	Killed int    `json:"killed,omitempty"`
	Event  string `json:"event,omitempty"` // "done" | "cancelled" | "failed" on the terminal row
}

// rowLog is the one in-memory form of a running job's recorded rows. A row
// is width ints — the period, then one count per protocol state — appended
// to its run's flat slab; arrivals notes which run each row came from, so
// live readers see the interleaving as it happened. Both are sized exactly
// before the sweep starts (the recording rule fixes the row count), so
// publishing a row allocates nothing and a published prefix never moves:
// readers copy the slice headers under mu and render outside it.
//
// The log lives while its job is queued or running. The terminal
// transition closes it and the job drops its pointer: readers already
// attached finish from the headers they hold, later ones replay the
// canonical result bytes, resolved by the job's key.
type rowLog struct {
	states []ode.Var
	seeds  []int64 // per run
	width  int     // 1 + len(states)

	mu       sync.Mutex
	cond     *sync.Cond
	slabs    [][]int // per run: the published rows, flat
	arrivals []int32 // run index of each published row, in arrival order
	parked   int     // readers blocked in wait
	closed   bool
}

func newRowLog(states []ode.Var, seeds []int64) *rowLog {
	l := &rowLog{states: states, seeds: seeds, width: 1 + len(states), slabs: make([][]int, len(seeds))}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// reserve allocates the slabs and the arrival log when a worker picks the
// job up: a queued job holds no row memory.
func (l *rowLog) reserve(rowsPerRun int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.arrivals = make([]int32, 0, rowsPerRun*len(l.slabs))
	for i := range l.slabs {
		l.slabs[i] = make([]int, 0, rowsPerRun*l.width)
	}
}

// publish makes run's slab, one row longer than last time, visible to
// readers. Each run is recorded by one goroutine, which owns its slab's
// tail; readers see only the prefix handed over here. Waking them costs a
// scheduler round trip, so it is skipped unless one is actually parked.
func (l *rowLog) publish(run int, slab []int) {
	l.mu.Lock()
	l.slabs[run] = slab
	l.arrivals = append(l.arrivals, int32(run))
	if l.parked > 0 {
		l.cond.Broadcast()
	}
	l.mu.Unlock()
}

// wake rouses all parked readers; closing also marks the log complete.
func (l *rowLog) wake(closing bool) {
	l.mu.Lock()
	l.closed = l.closed || closing
	l.cond.Broadcast()
	l.mu.Unlock()
}

// rows is the number of rows published so far.
func (l *rowLog) rows() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.arrivals)
}

// wait blocks until more than have rows are published, the log is closed,
// or ctx ends (pair it with an AfterFunc that calls wake). It copies the
// per-run slab headers into slabs and returns the arrival order and
// whether the log is closed.
func (l *rowLog) wait(ctx context.Context, have int, slabs [][]int) ([]int32, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.arrivals) <= have && !l.closed && ctx.Err() == nil {
		l.parked++
		l.cond.Wait()
		l.parked--
	}
	copy(slabs, l.slabs)
	return l.arrivals, l.closed
}

// streamChunk bounds a stream response's line buffer: a larger batch is
// written out in pieces.
const streamChunk = 64 << 10

// streamWriter collects NDJSON lines in one reused buffer and hands the
// ResponseWriter whole batches: one Write per reader wake-up, not per row.
type streamWriter struct {
	w   http.ResponseWriter
	buf []byte
	err error
}

// line opens one line for run — flushing first if the buffer is full — and
// returns the buffer for the caller to append the row body and lineEnd to.
func (sw *streamWriter) line(run int, seed int64) []byte {
	if len(sw.buf) >= streamChunk {
		sw.flush()
	}
	return appendLineHead(sw.buf, run, seed)
}

// flush writes the buffered lines and pushes them to the client. It
// reports false, and drops the output, once a write has failed (the client
// hung up).
func (sw *streamWriter) flush() bool {
	if sw.err == nil && len(sw.buf) > 0 {
		_, sw.err = sw.w.Write(sw.buf)
		if f, ok := sw.w.(http.Flusher); ok && sw.err == nil {
			f.Flush()
		}
	}
	sw.buf = sw.buf[:0]
	return sw.err == nil
}

// live follows a running job's row log until it closes, rendering each
// wake-up's new rows on this — the reader's — goroutine. It reports false
// if the client went away first; otherwise the last batch stays buffered
// for the caller to end with the terminal row.
func (sw *streamWriter) live(ctx context.Context, log *rowLog) bool {
	stop := context.AfterFunc(ctx, func() { log.wake(false) })
	defer stop()
	slabs := make([][]int, len(log.seeds))
	next := make([]int, len(log.seeds)) // per run: offset of its first unsent row
	for sent := 0; ; {
		arrivals, closed := log.wait(ctx, sent, slabs)
		for _, run := range arrivals[sent:] {
			row := slabs[run][next[run]:][:log.width]
			next[run] += log.width
			sw.buf = append(appendRowBody(sw.line(int(run), log.seeds[run]), row), lineEnd...)
		}
		sent = len(arrivals)
		if closed || ctx.Err() != nil || !sw.flush() {
			return closed && ctx.Err() == nil
		}
	}
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	job, ok := s.pathJob(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	buf := scratch.Get().(*[]byte)
	out := &streamWriter{w: w, buf: (*buf)[:0]}
	defer func() {
		*buf = out.buf
		scratch.Put(buf)
	}()

	job.mu.Lock()
	log := job.log
	job.mu.Unlock()
	if log != nil && !out.live(r.Context(), log) {
		return
	}
	// The job is terminal from here on. A result this reader did not watch
	// being recorded — the job was already finished, or it was answered
	// from the cache without a sweep — replays from the canonical bytes,
	// if anything still holds them.
	st := job.snapshot(false)
	if st.Status == StatusDone && (log == nil || st.Cached) {
		if blob, ok := s.peekResult(job.Key); ok {
			err := scanResult(blob.data, func(run int, seed int64, body []byte) {
				out.buf = append(append(out.line(run, seed), body...), lineEnd...)
			})
			if err != nil {
				s.met.storeErrs.Inc()
				s.log.Warn("result blob is not a canonical result", "key", job.Key, "err", err)
			}
		}
	}
	out.buf = appendTerminalRow(out.buf, st.Status)
	out.flush()
}
