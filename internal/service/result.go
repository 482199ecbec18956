package service

import (
	"bytes"
	"compress/gzip"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// resultBlob is all that is kept of a finished result: the canonical JSON
// bytes — the exact bytes store.PutResult holds — plus the gzip variant,
// built at most once. Every read of a completed job serves from one of
// the two: GET /v1/results/{key} copies data, GET /v1/jobs/{id} splices it
// into the status envelope, stream replays copy row bodies out of it
// (scanResult), Accept-Encoding: gzip copies the compressed variant.
// Nothing decoded or rendered is memoized. Fields are immutable once
// filled, so blobs are shared freely across jobs and handlers.
type resultBlob struct {
	key  string
	data []byte // canonical JSON encoding, as persisted

	// persistable marks blobs whose bytes the durable store holds under
	// key, so the gzip variant may be persisted as a sibling blob. It is
	// false for non-cacheable (wallclock) results: their key is a spec
	// hash, not a content address — a different run of the same spec
	// yields different bytes, and a persisted sibling would poison any
	// deterministic result later stored under the key.
	persistable bool

	gzOnce sync.Once
	gzData []byte
}

// newResultBlob wraps canonical bytes: a fresh sweep's one encode
// (encodeResult), or a stored blob the caller has checked with json.Valid.
func newResultBlob(key string, data []byte) *resultBlob {
	return &resultBlob{key: key, data: data}
}

// resultGzip returns blob's gzip variant, built at most once: a persisted
// sibling blob is preferred (so restarts warm compressed serving without
// recompressing), otherwise the canonical bytes are compressed here and —
// for persistable blobs — written back as the sibling, best-effort.
func (s *Server) resultGzip(b *resultBlob) []byte {
	b.gzOnce.Do(func() {
		if b.persistable {
			if gz, err := s.store.GetResultGzip(b.key); err == nil {
				b.gzData = gz
				return
			}
		}
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		// Writes into a bytes.Buffer cannot fail.
		_, _ = zw.Write(b.data)
		_ = zw.Close()
		b.gzData = buf.Bytes()
		if b.persistable {
			if err := s.store.PutResultGzip(b.key, b.gzData); err != nil {
				// The sibling is only a cache of the canonical bytes; a failed
				// write costs future recompressions, not correctness.
				s.met.storeErrs.Inc()
				s.log.Warn("gzip sibling write failed", "key", b.key, "err", err)
			}
		}
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

// serveResultBlob answers a result request entirely from canonical bytes:
// ETag first — a 304 returns before any result-sized buffer is touched —
// then the gzip or identity variant with an exact Content-Length. No JSON
// is encoded on this path, ever; the encodes-saved counter records each
// request the old per-request marshal would have paid.
func (s *Server) serveResultBlob(w http.ResponseWriter, r *http.Request, b *resultBlob) {
	etag := etagForKey(b.key)
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Vary", "Accept-Encoding")
	s.met.encodesSaved.Inc()
	if ifNoneMatchHit(r, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	body := b.data
	if acceptsGzip(r) {
		if gz := s.resultGzip(b); len(gz) > 0 {
			h.Set("Content-Encoding", "gzip")
			body = gz
		}
	}
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	n, _ := w.Write(body)
	s.met.bytesServed.Add(int64(n))
}

// HasResult reports whether this node can serve GET /v1/results/{key}
// locally, from the LRU or the durable store, without reading any result
// bytes. The cluster router probes substitutes with it instead of
// replaying the whole request into a buffering recorder.
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
