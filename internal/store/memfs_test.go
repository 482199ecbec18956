package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"
)

// memFS is an in-memory filesystem under the store's seam that keeps two
// views of the disk. What the process sees is every write handed to the OS.
// What survives a power loss is less: a file's bytes as of its last Sync, and
// a dir's entries (creates, renames, removes) as of its last SyncDir.
//
// Before each operation it calls hook, when set, with the operation's index
// and kind; the hook may take images of the disk, and an error it returns is
// what the operation fails with. A failed operation has no effect, except
// that a failed Write lands the first half of its bytes (a short write, as a
// full disk gives), a failed Close closes the file, and a failed Sync loses
// the bytes written since the last one: the process still reads them, but no
// later Sync writes them (Linux marks the pages clean after a failed
// writeback).
type memFS struct {
	mu      sync.Mutex
	live    map[string]*inode // the namespace the process sees
	durable map[string]*inode // each dir's entries as of its last SyncDir
	locked  bool
	ops     int
	hook    func(n int, op string) error
}

// inode holds a file's bytes. Neither slice is written in place once set, so
// an image shares them.
type inode struct {
	dir    bool
	data   []byte // every write handed to the OS
	synced []byte // data as of the last Sync
	lost   [2]int // the bytes a failed Sync lost, zero on disk ever after
}

func newMemFS() *memFS {
	root := &inode{dir: true}
	return &memFS{live: map[string]*inode{"/": root}, durable: map[string]*inode{"/": root}}
}

// op counts one operation and runs the hook on it; the caller holds m.mu.
func (m *memFS) op(kind string) error {
	n := m.ops
	m.ops++
	if m.hook == nil {
		return nil
	}
	return m.hook(n, kind)
}

// image is the disk a crash now would leave, as a new memFS: after a process
// kill, everything handed to the OS; after a power loss, the synced bytes of
// the entries that survive — with eager false those synced into their dirs
// (and reachable through synced dirs), with eager true every entry, as when
// the filesystem commits its metadata on its own. The caller holds m.mu.
func (m *memFS) image(power, eager bool) *memFS {
	names := m.live
	if power && !eager {
		names = m.durable
	}
	img := &memFS{live: make(map[string]*inode, len(names))}
	for name, ino := range names {
		if power && !eager && !m.reachable(name) {
			continue
		}
		data := ino.data
		if power {
			data = ino.synced
		}
		img.live[name] = &inode{dir: ino.dir, data: data, synced: data}
	}
	img.durable = maps.Clone(img.live)
	return img
}

// reachable reports whether every dir above name survives a power loss.
func (m *memFS) reachable(name string) bool {
	for dir := filepath.Dir(name); dir != name; name, dir = dir, filepath.Dir(dir) {
		if ino := m.durable[dir]; ino == nil || !ino.dir {
			return false
		}
	}
	return true
}

func pathErr(op, name string, err error) error { return &fs.PathError{Op: op, Path: name, Err: err} }

// parentDir fails unless name's parent is a live dir.
func (m *memFS) parentDir(op, name string) error {
	if p := m.live[filepath.Dir(name)]; p == nil || !p.dir {
		return pathErr(op, name, fs.ErrNotExist)
	}
	return nil
}

func (m *memFS) OpenFile(name string, flag int) (file, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.op("open"); err != nil {
		return nil, err
	}
	ino := m.live[name]
	switch {
	case ino == nil && flag&os.O_CREATE == 0:
		return nil, pathErr("open", name, fs.ErrNotExist)
	case ino != nil && flag&os.O_EXCL != 0:
		return nil, pathErr("open", name, fs.ErrExist)
	case ino != nil && ino.dir:
		return nil, pathErr("open", name, errors.New("is a directory"))
	case ino == nil:
		if err := m.parentDir("open", name); err != nil {
			return nil, err
		}
		ino = &inode{}
		m.live[name] = ino
	}
	return &memFile{m: m, ino: ino, name: name, appends: flag&os.O_APPEND != 0}, nil
}

func (m *memFS) Mkdir(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.op("mkdir"); err != nil {
		return err
	}
	if m.live[name] != nil {
		return pathErr("mkdir", name, fs.ErrExist)
	}
	if err := m.parentDir("mkdir", name); err != nil {
		return err
	}
	m.live[name] = &inode{dir: true}
	return nil
}

func (m *memFS) ReadDir(name string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.op("readdir"); err != nil {
		return nil, err
	}
	if ino := m.live[name]; ino == nil || !ino.dir {
		return nil, pathErr("readdir", name, fs.ErrNotExist)
	}
	var entries []fs.DirEntry
	for path, ino := range m.live {
		if filepath.Dir(path) == name && path != name {
			entries = append(entries, fs.FileInfoToDirEntry(memInfo{filepath.Base(path), ino}))
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	return entries, nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.op("readfile"); err != nil {
		return nil, err
	}
	ino := m.live[name]
	if ino == nil || ino.dir {
		return nil, pathErr("read", name, fs.ErrNotExist)
	}
	return slices.Clone(ino.data), nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.op("rename"); err != nil {
		return err
	}
	ino := m.live[oldpath]
	if ino == nil {
		return pathErr("rename", oldpath, fs.ErrNotExist)
	}
	if err := m.parentDir("rename", newpath); err != nil {
		return err
	}
	m.live[newpath] = ino
	delete(m.live, oldpath)
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.op("remove"); err != nil {
		return err
	}
	if m.live[name] == nil {
		return pathErr("remove", name, fs.ErrNotExist)
	}
	for path := range m.live {
		if filepath.Dir(path) == name && path != name {
			return pathErr("remove", name, errors.New("directory not empty"))
		}
	}
	delete(m.live, name)
	return nil
}

func (m *memFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.op("truncate"); err != nil {
		return err
	}
	ino := m.live[name]
	if ino == nil || ino.dir {
		return pathErr("truncate", name, fs.ErrNotExist)
	}
	data := make([]byte, size)
	copy(data, ino.data)
	ino.data = data
	return nil
}

func (m *memFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.op("syncdir"); err != nil {
		return err
	}
	for path := range m.durable {
		if filepath.Dir(path) == dir && path != dir && m.live[path] == nil {
			delete(m.durable, path)
		}
	}
	for path, ino := range m.live {
		if filepath.Dir(path) == dir && path != dir {
			m.durable[path] = ino
		}
	}
	return nil
}

func (m *memFS) Lock(dir string) (io.Closer, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.op("lock"); err != nil {
		return nil, err
	}
	if m.locked {
		return nil, fmt.Errorf("data dir %s is locked", dir)
	}
	m.locked = true
	return memLock{m}, nil
}

type memLock struct{ m *memFS }

func (l memLock) Close() error {
	l.m.mu.Lock()
	defer l.m.mu.Unlock()
	l.m.locked = false
	return l.m.op("close")
}

// memFile is an open file of a memFS.
type memFile struct {
	m       *memFS
	ino     *inode
	name    string
	off     int64
	appends bool
	closed  bool
}

// do runs one operation on the open file under the fs's lock.
func (f *memFile) do(kind string, fn func() error) error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if f.closed {
		return pathErr(kind, f.name, os.ErrClosed)
	}
	if err := f.m.op(kind); err != nil {
		return err
	}
	return fn()
}

func (f *memFile) Write(p []byte) (n int, err error) {
	err = f.do("write", func() error { n = f.write(p); return nil })
	if err != nil && !errors.Is(err, os.ErrClosed) {
		f.m.mu.Lock()
		n = f.write(p[:len(p)/2])
		f.m.mu.Unlock()
	}
	return n, err
}

// write copies p into a new slice, leaving the old one to any image.
func (f *memFile) write(p []byte) int {
	if f.appends {
		f.off = int64(len(f.ino.data))
	}
	data := make([]byte, max(int(f.off)+len(p), len(f.ino.data)))
	copy(data, f.ino.data)
	copy(data[f.off:], p)
	f.ino.data = data
	f.off += int64(len(p))
	return len(p)
}

func (f *memFile) Read(p []byte) (n int, err error) {
	err = f.do("read", func() error {
		if f.off >= int64(len(f.ino.data)) {
			return io.EOF
		}
		n = copy(p, f.ino.data[f.off:])
		f.off += int64(n)
		return nil
	})
	return n, err
}

func (f *memFile) ReadAt(p []byte, off int64) (n int, err error) {
	err = f.do("readat", func() error {
		if off >= int64(len(f.ino.data)) {
			return io.EOF
		}
		if n = copy(p, f.ino.data[off:]); n < len(p) {
			return io.EOF
		}
		return nil
	})
	return n, err
}

func (f *memFile) Sync() error {
	err := f.do("sync", func() error {
		f.ino.synced = f.ino.data
		if lo, hi := f.ino.lost[0], min(f.ino.lost[1], len(f.ino.data)); lo < hi {
			f.ino.synced = slices.Clone(f.ino.data)
			clear(f.ino.synced[lo:hi])
		}
		return nil
	})
	if err != nil && !errors.Is(err, os.ErrClosed) {
		f.m.mu.Lock()
		f.ino.lost = [2]int{len(f.ino.synced), len(f.ino.data)}
		f.m.mu.Unlock()
	}
	return err
}

func (f *memFile) Stat() (fi fs.FileInfo, err error) {
	err = f.do("stat", func() error { fi = memInfo{filepath.Base(f.name), f.ino}; return nil })
	return fi, err
}

func (f *memFile) Close() error {
	err := f.do("close", func() error { return nil })
	f.m.mu.Lock()
	f.closed = true
	f.m.mu.Unlock()
	return err
}

type memInfo struct {
	name string
	ino  *inode
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return int64(len(i.ino.data)) }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return i.ino.dir }
func (i memInfo) Sys() any           { return nil }
func (i memInfo) Mode() fs.FileMode {
	if i.ino.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
