package service

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"odeproto/internal/store"
)

// resultBlob is a finished result in memory: the bytes store.PutResult writes
// (a gzip member above one block, canonical JSON within it) and nothing
// decoded, rendered or inflated. The LRU is the only structure that holds
// blobs; a handler keeps the one it is serving alive for the request.
type resultBlob struct {
	key    string
	stored []byte
}

// canonical hands fn the canonical JSON, valid only for the call — the stored
// bytes, or a member inflated into a pooled scratch buffer and checked
// against its trailer (fn is not called if it fails) — and returns fn's error.
func (b *resultBlob) canonical(fn func(data []byte) error) error {
	if !store.IsMember(b.stored) {
		return fn(b.stored)
	}
	rc, _, err := store.Inflate(bytes.NewReader(b.stored), int64(len(b.stored)))
	if err != nil {
		return err
	}
	defer func() { _ = rc.Close() }()
	buf := scratch.Get().(*[]byte)
	defer scratch.Put(buf)
	out := bytes.NewBuffer((*buf)[:0])
	_, err = out.ReadFrom(rc)
	*buf = out.Bytes()
	if err != nil {
		return err
	}
	return fn(*buf)
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

// handleResult serves a result by its cache key from the LRU or, past it,
// the durable store (404 when neither holds it): probe that it exists (no
// result byte read), set the strong ETag (the content address) and Vary,
// answer a matching If-None-Match with 304, and only then pick the body, with
// an exact Content-Length, by one rule for the LRU and the disk: a gzip
// client gets the member as it lies (an identity blob's old .gz sibling;
// identity if it has none), anyone else the canonical bytes, inflating as
// they stream. No JSON is encoded here (encodes-saved counts LRU requests). A
// damaged blob surfaces mid-copy — every member read withholds its tail until
// the trailer checks out — and tears the connection: the body ends short.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	blob, cached := s.cache.peek(key)
	var rc io.ReadCloser
	var size int64
	var err error
	switch { // the canonical bytes, a member inflating as it streams
	case !cached:
		rc, size, err = s.store.GetResultReader(key)
	case store.IsMember(blob.stored):
		rc, size, err = store.Inflate(bytes.NewReader(blob.stored), int64(len(blob.stored)))
	default:
		rc, size = io.NopCloser(bytes.NewReader(blob.stored)), int64(len(blob.stored))
	}
	if cached {
		s.met.encodesSaved.Inc()
	}
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
	h := w.Header()
	h.Set("Vary", "Accept-Encoding")
	if notModified(w, r, etagForKey(key)) {
		return
	}

	src := &readErr{Reader: rc}
	var body io.Reader = src
	if acceptsGzip(r) {
		var gz []byte
		if cached && store.IsMember(blob.stored) {
			gz = blob.stored
			body = bytes.NewReader(gz) // checked when admitted: it cannot fail
		} else if gz, _ = s.store.GetResultGzip(key); len(gz) > 0 {
			src.Reader = io.MultiReader(bytes.NewReader(gz[:max(len(gz)-8, 0)]), &trailer{member: gz})
		}
		if len(gz) > 0 {
			h.Set("Content-Encoding", "gzip")
			size = int64(len(gz))
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

// trailer ends a gzip member the LRU has not checked, sent as it lies up to
// its 8-byte trailer: the trailer goes out once the member has run through a
// pooled inflater into nothing and matched its CRC-32 and length.
type trailer struct {
	member []byte
	rest   *bytes.Reader // the trailer, once the member checks out
}

func (t *trailer) Read(p []byte) (int, error) {
	if t.rest == nil {
		rc, _, err := store.Inflate(bytes.NewReader(t.member), int64(len(t.member)))
		if err == nil {
			_, err = io.Copy(io.Discard, rc)
			_ = rc.Close()
		}
		if err != nil {
			return 0, err
		}
		t.rest = bytes.NewReader(t.member[max(len(t.member)-8, 0):])
	}
	return t.rest.Read(p)
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
