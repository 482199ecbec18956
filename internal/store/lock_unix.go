//go:build unix

package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// Lock takes a non-blocking exclusive flock on <dir>/LOCK. The kernel drops
// the lock when the holder dies, so crash recovery needs no cleanup.
func (osFS) Lock(dir string) (io.Closer, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("data dir %s is locked by another process: %w", dir, err)
	}
	return f, nil
}
