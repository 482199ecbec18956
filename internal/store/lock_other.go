//go:build !unix

package store

import (
	"io"
	"os"
	"path/filepath"
)

// Lock opens the LOCK file without an OS advisory lock: flock has no portable
// equivalent off unix, so non-unix builds rely on the operator not to point
// two daemons at one data dir.
func (osFS) Lock(dir string) (io.Closer, error) {
	return os.OpenFile(filepath.Join(dir, "LOCK"), os.O_RDWR|os.O_CREATE, 0o644)
}
