package service

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"odeproto/internal/store"
)

// resultBlob is a finished result in memory: the canonical JSON bytes — the
// exact bytes store.PutResult holds — plus the gzip variant, built at most
// once. Every read of a completed job serves from one of the two: GET
// /v1/results/{key} copies data, GET /v1/jobs/{id} splices it into the
// status envelope, stream replays copy row bodies out of it (scanResult),
// Accept-Encoding: gzip copies the compressed variant. Nothing decoded or
// rendered is memoized. The LRU is the only structure that holds blobs; a
// handler keeps the one it is serving alive for the length of the request.
type resultBlob struct {
	key  string
	data []byte // canonical JSON encoding, as persisted

	gzOnce sync.Once
	gzData []byte
	gzLen  atomic.Int64 // len(gzData) once built, for the LRU's accounting
}

// newResultBlob wraps canonical bytes: a fresh sweep's one encode
// (encodeResult), or a stored blob checked with json.Valid (loadResult).
func newResultBlob(key string, data []byte) *resultBlob {
	return &resultBlob{key: key, data: data}
}

// size is what the blob holds in bytes: the canonical encoding plus the
// gzip variant, if it exists yet.
func (b *resultBlob) size() int64 { return int64(len(b.data)) + b.gzLen.Load() }

// resultGzip returns blob's gzip variant, built at most once: the store's
// own bytes when the blob is stored compressed, otherwise (memory backend,
// sub-block blobs) the canonical bytes deflated here; nothing is written.
// The LRU re-accounts the blob at its grown size.
func (s *Server) resultGzip(b *resultBlob) []byte {
	b.gzOnce.Do(func() {
		gz, err := s.store.GetResultGzip(b.key)
		if err != nil {
			gz = store.Deflate(b.data)
		}
		b.gzData = gz
		b.gzLen.Store(int64(len(gz)))
		s.cache.resize(b)
	})
	return b.gzData
}

// etagForKey is the strong ETag of a result: results are immutable and
// content-addressed, so the key is a perfect validator.
func etagForKey(key string) string { return `"` + key + `"` }

// ifNoneMatchHit reports whether the request's If-None-Match header
// matches etag. Conditional GETs use weak comparison (RFC 9110 §13.1.2),
// so a W/ prefix on either side is ignored; "*" matches any extant
// representation.
func ifNoneMatchHit(r *http.Request, etag string) bool {
	h := r.Header.Get("If-None-Match")
	if h == "" {
		return false
	}
	etag = strings.TrimPrefix(etag, "W/")
	for _, part := range strings.Split(h, ",") {
		part = strings.TrimSpace(part)
		if part == "*" {
			return true
		}
		if strings.TrimPrefix(part, "W/") == etag {
			return true
		}
	}
	return false
}

// acceptsGzip reports whether the client negotiated gzip (identity stays
// the fallback either way, so only an explicit gzip token with a nonzero
// q-value switches the encoding).
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, params, _ := strings.Cut(part, ";")
		if strings.TrimSpace(enc) != "gzip" {
			continue
		}
		if q, ok := strings.CutPrefix(strings.TrimSpace(params), "q="); ok {
			if v, err := strconv.ParseFloat(strings.TrimSpace(q), 64); err == nil && v == 0 {
				return false
			}
		}
		return true
	}
	return false
}

// notModified sets the response's ETag and, when the request's
// If-None-Match matches it, answers 304 and reports true: the caller
// returns without building, or reading, the representation.
func notModified(w http.ResponseWriter, r *http.Request, etag string) bool {
	w.Header().Set("ETag", etag)
	if !ifNoneMatchHit(r, etag) {
		return false
	}
	w.WriteHeader(http.StatusNotModified)
	return true
}

// handleResult serves a result by its cache key (the "cache_key" of every
// job status) from the LRU or, past it, the durable store: 404 when neither
// holds the key. Every path writes the same canonical encode-once bytes
// under the same HTTP semantics, in one order: probe that the
// representation exists (an LRU lookup, or the store's open — no result
// byte read), set the strong ETag (the content address) and Vary, answer a
// matching If-None-Match with 304, and only then pick the body — gzip when
// the client asked for it, with an exact Content-Length. An LRU blob is
// copied from memory and builds its gzip variant at most once; past the LRU
// gzip is the stored member as it lies (identity if the blob holds none) and
// identity streams through the store's reader, inflating as it goes, never
// buffering a whole blob just to forward it. No JSON is encoded on this
// path, ever; the encodes-saved counter records each LRU request the old
// per-request marshal would have paid. A copy that fails tears the
// connection rather than close it cleanly on a short body: a damaged blob
// surfaces there, as the inflating reader's error, and since that reader
// withholds a member's tail until the trailer checks out, short it is.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	blob, cached := s.cache.peek(key)
	var rc io.ReadCloser
	var size int64
	if cached {
		s.met.encodesSaved.Inc()
	} else {
		var err error
		rc, size, err = s.store.GetResultReader(key)
		if errors.Is(err, store.ErrNotFound) {
			writeError(w, http.StatusNotFound, fmt.Errorf("no result for key %q", key))
			return
		}
		if err != nil {
			s.met.storeErrs.Inc()
			s.log.Warn("result blob unreadable", "key", key, "err", err)
			writeError(w, http.StatusInternalServerError, fmt.Errorf("reading result %q: %w", key, err))
			return
		}
		defer func() { _ = rc.Close() }()
	}
	h := w.Header()
	h.Set("Vary", "Accept-Encoding")
	if notModified(w, r, etagForKey(key)) {
		return
	}

	src := readErr{Reader: rc} // past the LRU, identity streams from the store
	var body io.Reader = &src
	if cached {
		body, size = bytes.NewReader(blob.data), int64(len(blob.data))
	}
	if acceptsGzip(r) {
		var gz []byte
		if cached {
			gz = s.resultGzip(blob)
		} else {
			// A blob with no gzip form goes out as identity.
			gz, _ = s.store.GetResultGzip(key)
		}
		if len(gz) > 0 {
			h.Set("Content-Encoding", "gzip")
			body, size = bytes.NewReader(gz), int64(len(gz))
		}
	}
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.FormatInt(size, 10))
	w.WriteHeader(http.StatusOK)
	n, err := io.Copy(w, body)
	s.met.bytesServed.Add(n)
	if err != nil {
		if src.err != nil {
			s.met.storeErrs.Inc()
			s.log.Warn("result blob failed mid-body", "key", key, "offset", n, "err", src.err)
		}
		panic(http.ErrAbortHandler)
	}
}

// readErr remembers the error its reader failed with, so a failed copy can
// tell a damaged blob from a client that hung up.
type readErr struct {
	io.Reader
	err error
}

func (r *readErr) Read(p []byte) (n int, err error) {
	if n, err = r.Reader.Read(p); err != nil && err != io.EOF {
		r.err = err
	}
	return n, err
}

// HasResult reports whether this node can serve GET /v1/results/{key}
// locally, from the LRU or the durable store, without reading any result
// bytes (or building an inflater: the store's reader takes one at its first
// Read). The cluster router probes substitutes with it instead of replaying
// the whole request into a buffering recorder.
func (s *Server) HasResult(key string) bool {
	if s.cache.contains(key) {
		return true
	}
	rc, _, err := s.store.GetResultReader(key)
	if err != nil {
		return false
	}
	_ = rc.Close()
	return true
}
