package service

import (
	"bytes"
	"encoding/json"
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
// the store (404 when neither holds it): one open that reads nothing, the
// strong ETag and Vary, a 304 for a matching If-None-Match, and only then an
// exact Content-Length and the body — a member as it lies to a gzip client,
// the canonical bytes to anyone else; nothing is encoded. Disk bytes are held
// to admit's rule, unpromoted: an identity blob before the status line, a
// member as it streams (an inflater withholds a failing tail, a gzip client's
// trailer waits for a clean inflate), so a damaged one ends short.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	refuse := func(err error) { // unreadable or failing admit: a store fault
		s.met.storeErrs.Inc()
		s.log.Warn("result blob unreadable", "key", key, "err", err)
		writeError(w, http.StatusInternalServerError, fmt.Errorf("reading result %q: %w", key, err))
	}
	var src interface { // the stored bytes, as they lie
		io.Reader
		io.ReaderAt
	}
	var size int64
	blob, admitted := s.cache.peek(key)
	if admitted {
		s.met.encodesSaved.Inc()
		src, size = bytes.NewReader(blob.stored), int64(len(blob.stored))
	} else {
		f, n, err := s.store.OpenResult(key)
		if errors.Is(err, store.ErrNotFound) {
			writeError(w, http.StatusNotFound, fmt.Errorf("no result for key %q", key))
			return
		} else if err != nil {
			refuse(err)
			return
		}
		defer func() { _ = f.Close() }()
		src, size = io.NewSectionReader(f, 0, n), n
	}
	w.Header().Set("Vary", "Accept-Encoding")
	if notModified(w, r, etagForKey(key)) {
		return
	}

	var head [2]byte
	_, _ = src.ReadAt(head[:], 0) // a short or failed read is no member; admit decides
	member := store.IsMember(head[:])
	var err error
	if !member && !admitted {
		var stored []byte
		stored, err = admit(src, size)
		src = bytes.NewReader(stored)
	}
	check := &readErr{Reader: src}
	var body io.Reader = check
	gz := member && acceptsGzip(r)
	switch {
	case gz && admitted:
		body = src // admitted, it cannot fail
	case gz:
		check.Reader = io.MultiReader(io.NewSectionReader(src, 0, max(size-8, 0)), &trailer{member: io.NewSectionReader(src, 0, size)})
	case err == nil:
		var rc io.ReadCloser
		if rc, size, err = store.Inflate(src, size); err == nil {
			defer func() { _ = rc.Close() }()
			check.Reader = rc
		}
	}
	if err != nil {
		refuse(err)
		return
	}
	if gz {
		w.Header().Set("Content-Encoding", "gzip")
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.WriteHeader(http.StatusOK)
	n, err := io.Copy(w, body)
	s.met.bytesServed.Add(n)
	if err != nil {
		if check.err != nil {
			s.met.storeErrs.Inc()
			s.log.Warn("result blob failed mid-body", "key", key, "offset", n, "err", check.err)
		}
		panic(http.ErrAbortHandler)
	}
}

// admit reads the size-byte blob src whole and checks it by the one rule
// stored bytes pass before any reach a client: a gzip member must inflate
// clean against its trailer's CRC-32 and length, and identity bytes, which
// carry no checksum, must be valid JSON.
func admit(src io.Reader, size int64) ([]byte, error) {
	stored := make([]byte, size)
	if _, err := io.ReadFull(src, stored); err != nil {
		return nil, err
	}
	if store.IsMember(stored) {
		return stored, (&resultBlob{stored: stored}).canonical(func([]byte) error { return nil })
	}
	if !json.Valid(stored) {
		return nil, errors.New("not valid JSON")
	}
	return stored, nil
}

// trailer ends a member read from disk, sent as it lies up to its 8-byte
// trailer: the trailer goes out once the member has inflated clean.
type trailer struct {
	member *io.SectionReader
	rest   io.Reader // the trailer, once the member checks out
}

func (t *trailer) Read(p []byte) (int, error) {
	if t.rest == nil {
		rc, _, err := store.Inflate(t.member, t.member.Size())
		if err == nil {
			_, err = io.Copy(io.Discard, rc)
			_ = rc.Close()
		}
		if err != nil {
			return 0, err
		}
		t.rest = io.NewSectionReader(t.member, max(t.member.Size()-8, 0), 8)
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
// locally, from the LRU or the durable store, by an open that reads nothing.
// The cluster router probes substitutes with it instead of replaying the
// whole request into a buffering recorder.
func (s *Server) HasResult(key string) bool {
	if s.cache.contains(key) {
		return true
	}
	src, _, err := s.store.OpenResult(key)
	if err == nil {
		_ = src.Close()
	}
	return err == nil
}
