package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"syscall"
)

// Frame layout of one WAL record: a 4-byte little-endian payload length, a
// 4-byte CRC-32C (Castagnoli) of the payload, then the JSON payload.
const (
	frameHeader    = 8
	maxRecordBytes = 16 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// wal is a segmented append-only log: numbered files (00000001.wal, ...)
// under dir, appends going to the highest segment and rotating to a fresh
// one beyond segBytes.
type wal struct {
	dir      string
	segBytes int64

	segIndex int // index of the open segment
	f        *os.File
	size     int64

	segments    int   // segment files on disk
	totalBytes  int64 // live bytes across all segments
	truncations int64

	// syncs counts append-path fsyncs; one covers every record written
	// before it, unsynced ones included. unsynced counts the records written
	// to the open segment since its last fsync and syncedSize is its length
	// at that fsync: what a power loss would cost, and where it would cut.
	// All are guarded by the owning store's mutex.
	syncs      int64
	unsynced   int64
	syncedSize int64
}

// markSynced records that everything written so far is on disk.
func (w *wal) markSynced() { w.unsynced, w.syncedSize = 0, w.size }

func segName(index int) string { return fmt.Sprintf("%08d.wal", index) }

// openWAL replays every segment in index order into add and opens the
// newest for append. Torn or corrupted records truncate their segment at the
// last good byte; replay then continues with the next segment.
func openWAL(dir string, segBytes int64, add func(JobRecord)) (*wal, error) {
	if err := mkdirDurable(dir); err != nil {
		return nil, err
	}
	indices, err := segmentIndices(dir)
	if err != nil {
		return nil, err
	}
	w := &wal{dir: dir, segBytes: segBytes}
	for _, idx := range indices {
		// A bad frame truncates its segment there: an append-only log is only
		// ever damaged at its tail by a crash (bit rot elsewhere hits the same
		// CRC check), so everything before it is trustworthy and everything
		// after it is not.
		path := filepath.Join(dir, segName(idx))
		good, size, err := readSegment(path, add)
		if err == nil && good < size {
			w.truncations++
			if err = os.Truncate(path, good); err != nil {
				err = fmt.Errorf("truncating torn tail of %s: %w", path, err)
			}
		}
		if err != nil {
			return nil, err
		}
		w.totalBytes += good
	}
	w.segments = len(indices)
	if len(indices) == 0 {
		if err := w.rotate(1); err != nil {
			return nil, err
		}
	} else {
		last := indices[len(indices)-1]
		f, err := os.OpenFile(filepath.Join(dir, segName(last)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		info, err := f.Stat()
		if err != nil {
			_ = f.Close()
			return nil, err
		}
		w.segIndex, w.f, w.size = last, f, info.Size()
		w.markSynced()
	}
	return w, nil
}

// segmentIndices lists the indices of the segments under dir, ascending.
func segmentIndices(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var indices []int
	for _, e := range entries {
		var idx int
		if n, err := fmt.Sscanf(e.Name(), "%d.wal", &idx); n == 1 && err == nil && e.Name() == segName(idx) {
			indices = append(indices, idx)
		}
	}
	sort.Ints(indices)
	return indices, nil
}

// readSegment hands path's records to add up to the first frame that is torn
// or fails its CRC, and returns the length of that good prefix and of the
// file. It changes nothing on disk.
func readSegment(path string, add func(JobRecord)) (good, size int64, err error) {
	data, err := os.ReadFile(path)
	off := 0
	for err == nil && len(data)-off >= frameHeader {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n <= 0 || n > maxRecordBytes || off+frameHeader+n > len(data) {
			break
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		var rec JobRecord
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[off+4:]) || json.Unmarshal(payload, &rec) != nil {
			break
		}
		add(rec)
		off += frameHeader + n
	}
	return int64(off), int64(len(data)), err
}

// frame encodes one record into its on-disk form.
func frame(rec JobRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("wal record of %d bytes exceeds the %d-byte frame limit", len(payload), maxRecordBytes)
	}
	buf := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, crcTable))
	copy(buf[frameHeader:], payload)
	return buf, nil
}

// rotate closes the current segment (if any) and starts the given index.
func (w *wal) rotate(index int) error {
	if w.f != nil {
		if err := w.f.Sync(); err != nil {
			return err
		}
		if err := w.f.Close(); err != nil {
			return err
		}
		w.f = nil
	}
	f, err := os.OpenFile(filepath.Join(w.dir, segName(index)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	w.segIndex, w.f, w.size = index, f, 0
	w.markSynced()
	w.segments++
	return syncDir(w.dir)
}

// appendNoSync frames and writes one record without forcing it to disk,
// rotating first when the open segment would exceed the size bound. The
// record is durable once syncOpenSegment next runs — or already, if a
// rotation closes its segment: rotate fsyncs the old segment first.
func (w *wal) appendNoSync(rec JobRecord) error {
	if w.f == nil {
		// A failed compact/rotate left no open segment; fail the append
		// instead of panicking (the service journals best-effort).
		return fmt.Errorf("wal: no open segment (a previous compaction or rotation failed)")
	}
	buf, err := frame(rec)
	if err != nil {
		return err
	}
	if w.size > 0 && w.size+int64(len(buf)) > w.segBytes {
		if err := w.rotate(w.segIndex + 1); err != nil {
			return err
		}
	}
	if _, err := w.f.Write(buf); err != nil {
		return err
	}
	w.size += int64(len(buf))
	w.totalBytes += int64(len(buf))
	w.unsynced++
	return nil
}

// syncOpenSegment fsyncs the open segment, making every written record
// durable. A nil open segment is not an error here: the only paths that
// clear w.f (close, a failed rotation) sync the file first, so everything
// appendNoSync wrote is already on disk.
func (w *wal) syncOpenSegment() error {
	if w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.syncs++
	w.markSynced()
	return nil
}

func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if err == nil {
		w.markSynced()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// syncDir fsyncs a directory so a just-created or renamed entry survives a
// crash. Filesystems that cannot sync directories report EINVAL (and
// Windows rejects the open for sync entirely); neither voids the write. A
// variable so that tests can watch which dirs are synced.
var syncDir = func(dir string) error {
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
