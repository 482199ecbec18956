package service

import (
	"fmt"
	"io"
	"net/http"
	"os"
)

// goodStore mirrors the store's streaming read API for the reader-handle
// cases below.
type goodStore struct{}

func (goodStore) GetResultReader(key string) (io.ReadCloser, int64, error) {
	return nil, 0, nil
}

type goodBlob interface {
	io.Reader
	io.ReaderAt
	io.Closer
}

func (goodStore) OpenResult(key string) (goodBlob, int64, error) {
	return nil, 0, nil
}

// readOpened closes the handle it opened, in a deferred closure.
func readOpened(st goodStore, key string) ([]byte, error) {
	b, size, err := st.OpenResult(key)
	if err != nil {
		return nil, err
	}
	defer func() { _ = b.Close() }()
	data := make([]byte, size)
	_, err = io.ReadFull(b, data)
	return data, err
}

// handOn passes the handle to a wrapper whose Close closes it: the caller
// closes what it got back, not the handle.
func handOn(st goodStore, key string) (io.ReadCloser, error) {
	b, _, err := st.OpenResult(key)
	if err != nil {
		return nil, err
	}
	return wrap(b), nil
}

func wrap(b goodBlob) io.ReadCloser { return b }

// checkedClose checks every durability-bearing error; the error-path
// closes discard explicitly with _ = because the first error owns the
// return value.
func checkedClose(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// readOnlyClose closes a handle opened with os.Open: read-only, so the
// deferred close cannot lose data and needs no check.
func readOnlyClose(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, 16)
	n, _ := f.Read(buf)
	return buf[:n], nil
}

// checkedReaderClose: a store result-reader handle closed with the
// explicit-discard idiom (probe path) or a checked error (copy path).
func checkedReaderClose(w io.Writer, st goodStore, key string) error {
	rc, _, err := st.GetResultReader(key)
	if err != nil {
		return err
	}
	defer func() { _ = rc.Close() }()
	_, err = io.Copy(w, rc)
	return err
}

// probeReaderClose discards the probe close explicitly: the handle was
// only opened to test existence.
func probeReaderClose(st goodStore, key string) bool {
	rc, _, err := st.GetResultReader(key)
	if err != nil {
		return false
	}
	_ = rc.Close()
	return true
}

// checkedStream stops streaming the moment the client hangs up.
func checkedStream(w http.ResponseWriter, rows []string) error {
	for _, r := range rows {
		if _, err := fmt.Fprintln(w, r); err != nil {
			return err
		}
	}
	return nil
}
