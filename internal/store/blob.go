package store

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
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
// one compression: what PutResult stores and what the service holds.
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

// StoredForm returns canonical result bytes in the form a blob holds them:
// one gzip member above one block, an exactly sized copy at or below it.
func StoredForm(canonical []byte) []byte {
	if len(canonical) > blockBytes {
		return Deflate(canonical)
	}
	return bytes.Clone(canonical)
}

// IsMember reports whether blob is a gzip member (1f 8b), not JSON ('{').
func IsMember(blob []byte) bool { return len(blob) >= 2 && blob[0] == 0x1f && blob[1] == 0x8b }

// inflaters recycles gzip readers, which keep their inflate state (≈ 40 KB)
// across Resets.
var inflaters = sync.Pool{New: func() any { return new(gzip.Reader) }}

// Inflate opens the size-byte blob m (a file, a *bytes.Reader) as the
// canonical bytes it holds: identity JSON as it lies, or a member inflating
// as it is read, whose length is its trailer's, mod 4 GiB — which must not
// size a buffer if damaged: deflate reaches 1032:1 at best. Closing the
// reader closes m if it can.
func Inflate(m interface {
	io.Reader
	io.ReaderAt
}, size int64) (io.ReadCloser, int64, error) {
	var head [2]byte
	if _, err := m.ReadAt(head[:], 0); err != nil && err != io.EOF {
		return nil, 0, err
	}
	if !IsMember(head[:]) { // a blob shorter than the magic is not a member
		if rc, ok := m.(io.ReadCloser); ok {
			return rc, size, nil
		}
		return io.NopCloser(m), size, nil
	}
	var tail [4]byte
	_, err := m.ReadAt(tail[:], max(size-4, 0))
	n := int64(binary.LittleEndian.Uint32(tail[:]))
	if err == nil && n > 1032*size {
		err = fmt.Errorf("a %d-byte member cannot inflate to %d", size, n)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("gzip trailer: %w", err)
	}
	return &blobReader{src: m}, n, nil
}

// blobReader is Inflate's reader. A Read that meets a trailer mismatch
// withholds the bytes that came with it — the member's tail, up to one
// 32 KiB window — so a damaged stream ends short of its declared length. The
// inflater is taken at the first Read: an open that only probes builds none.
type blobReader struct {
	src io.Reader
	zr  *gzip.Reader
}

func (r *blobReader) Read(p []byte) (int, error) {
	if r.zr == nil {
		r.zr = inflaters.Get().(*gzip.Reader)
		if err := r.zr.Reset(r.src); err != nil {
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
	if c, ok := r.src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
