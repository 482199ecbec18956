package service

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
)

// resultStore mimics the store's streaming read API: the returned handle
// is an open fd the caller owns.
type resultStore struct{}

func (resultStore) GetResultReader(key string) (io.ReadCloser, int64, error) {
	return nil, 0, nil
}

// blob mirrors store.Blob: an open fd the caller owns.
type blob interface {
	io.Reader
	io.ReaderAt
	io.Closer
}

func (resultStore) OpenResult(key string) (blob, int64, error) {
	return nil, 0, nil
}

func writeAll(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close() // want `unchecked error from \(\*os\.File\)\.Close on a writable file`
		return err
	}
	f.Sync() // want `unchecked error from \(\*os\.File\)\.Sync`
	return f.Close()
}

func buffered(f *os.File, data []byte) error {
	w := bufio.NewWriter(f)
	if _, err := w.Write(data); err != nil {
		return err
	}
	w.Flush() // want `unchecked error from Flush on a writer`
	return nil
}

func deferredClose(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // want `unchecked error from \(\*os\.File\)\.Close on a writable file`
	_, err = f.WriteString("x")
	return err
}

func stream(w http.ResponseWriter, rows []string) {
	for _, r := range rows {
		fmt.Fprintln(w, r) // want `unchecked http\.ResponseWriter write inside a streaming loop`
	}
}

func serveResult(w io.Writer, st resultStore, key string) error {
	rc, _, err := st.GetResultReader(key)
	if err != nil {
		return err
	}
	defer rc.Close() // want `unchecked error from Close on a store result-reader handle`
	_, err = io.Copy(w, rc)
	return err
}

func probeResult(st resultStore, key string) bool {
	rc, _, err := st.GetResultReader(key)
	if err != nil {
		return false
	}
	rc.Close() // want `unchecked error from Close on a store result-reader handle`
	return true
}

func sniffResult(st resultStore, key string) (bool, error) {
	b, _, err := st.OpenResult(key) // want `store result handle b from OpenResult is never closed`
	if err != nil {
		return false, err
	}
	var head [2]byte
	_, err = b.ReadAt(head[:], 0)
	return head[0] == 0x1f, err
}

func probeOpened(st resultStore, key string) bool {
	b, _, err := st.OpenResult(key)
	if err != nil {
		return false
	}
	b.Close() // want `unchecked error from Close on a store result-reader handle`
	return true
}
