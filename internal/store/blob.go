package store

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"sync"
)

// blockBytes is the largest blob stored as is (see the package comment).
const blockBytes = 4096

// deflater is a deflate state (≈ 1.2 MB at any level) and the buffer it
// compresses into, recycled together.
type deflater struct {
	zw  *gzip.Writer
	buf bytes.Buffer
}

var deflaters = sync.Pool{New: func() any {
	zw, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed) // a valid level cannot fail
	return &deflater{zw: zw}
}}

// Deflate returns data as one gzip member in an exactly sized buffer (no
// growth slack rides on bytes a cache accounts by length). It is the daemon's
// one compression: what PutResult stores, and what a gzip client is sent
// when the store has no member to hand over.
func Deflate(data []byte) []byte {
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	d.buf.Reset()
	d.zw.Reset(&d.buf)
	// Writes into a bytes.Buffer cannot fail.
	_, _ = d.zw.Write(data)
	_ = d.zw.Close()
	return bytes.Clone(d.buf.Bytes())
}

// inflaters recycles gzip readers, which keep their inflate state (≈ 40 KB)
// across Resets.
var inflaters = sync.Pool{New: func() any { return new(gzip.Reader) }}

// blobReader inflates a compressed blob as it is read; the Read that would
// return io.EOF returns the trailer's CRC-32 or length mismatch instead, and
// withholds the bytes that came with that verdict — the member's tail, up to
// one 32 KiB window, empty only if its length is a multiple of that — so a
// stream that fails its check ends short of the length it declared. The
// inflater is taken at the first Read, so an open that only probes
// (HasResult, a 304) builds none.
type blobReader struct {
	f  *os.File
	zr *gzip.Reader
}

func (r *blobReader) Read(p []byte) (int, error) {
	if r.zr == nil {
		r.zr = inflaters.Get().(*gzip.Reader)
		if err := r.zr.Reset(r.f); err != nil {
			return 0, err
		}
	}
	n, err := r.zr.Read(p)
	if err != nil && err != io.EOF {
		n = 0
	}
	return n, err
}

func (r *blobReader) Close() error {
	if r.zr != nil {
		inflaters.Put(r.zr)
		r.zr = nil
	}
	return r.f.Close()
}
