package store

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"syscall"
)

// fileSystem is the one seam between the store and the disk: every
// filesystem call a FileStore makes goes through it. osFS is the disk; the
// package's tests put an in-memory fake under it that crashes or fails at any
// call.
type fileSystem interface {
	OpenFile(name string, flag int) (file, error)
	Mkdir(name string) error
	ReadDir(name string) ([]fs.DirEntry, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	SyncDir(dir string) error           // makes dir's new, renamed and removed entries durable
	Lock(dir string) (io.Closer, error) // the data dir's LOCK file, held until closed
}

// file is an open file as the store uses it: osFS hands back the *os.File.
type file interface {
	Blob
	io.Writer
	Sync() error
	Stat() (fs.FileInfo, error)
}

type osFS struct{}

func (osFS) OpenFile(name string, flag int) (file, error) { return os.OpenFile(name, flag, 0o644) }
func (osFS) Mkdir(name string) error                      { return os.Mkdir(name, 0o755) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }

// SyncDir fsyncs dir. Filesystems that cannot sync directories report EINVAL
// (and Windows rejects the open for sync entirely); neither voids the write.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, os.ErrPermission) {
		return err
	}
	return nil
}
