package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
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
	fs       fileSystem
	f        file
	size     int64

	segments    int   // segment files on disk
	totalBytes  int64 // live bytes across all segments
	truncations int64

	err error // the first failed write, fsync or rotation: it fails every later append

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

// openWAL replays every segment in index order into add and starts a fresh
// one for appends. Torn or corrupted records truncate their segment at the
// last good byte; replay then continues with the next segment.
func openWAL(fsys fileSystem, dir string, segBytes int64, add func(JobRecord)) (*wal, error) {
	if err := mkdirDurable(fsys, dir); err != nil {
		return nil, err
	}
	indices, err := segmentIndices(fsys, dir)
	if err != nil {
		return nil, err
	}
	w := &wal{dir: dir, segBytes: segBytes, fs: fsys}
	for _, idx := range indices {
		// A bad frame truncates its segment there: an append-only log is only
		// ever damaged at its tail by a crash (bit rot elsewhere hits the same
		// CRC check), so everything before it is trustworthy and everything
		// after it is not.
		path := filepath.Join(dir, segName(idx))
		good, size, err := readSegment(fsys, path, add)
		if err == nil && good < size {
			w.truncations++
			if err = fsys.Truncate(path, good); err != nil {
				err = fmt.Errorf("truncating torn tail of %s: %w", path, err)
			}
		}
		if err != nil {
			return nil, err
		}
		w.totalBytes += good
	}
	w.segments = len(indices)
	// Appends go to a fresh segment, never behind bytes an earlier process
	// left; its dir sync also makes durable a segment that process created.
	next := 1
	if len(indices) > 0 {
		next = indices[len(indices)-1] + 1
	}
	if err := w.rotate(next); err != nil {
		return nil, err
	}
	return w, nil
}

// segmentIndices lists the indices of the segments under dir, ascending.
func segmentIndices(fsys fileSystem, dir string) ([]int, error) {
	entries, err := fsys.ReadDir(dir)
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
func readSegment(fsys fileSystem, path string, add func(JobRecord)) (good, size int64, err error) {
	data, err := fsys.ReadFile(path)
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
			return w.fail(err)
		}
		if err := w.f.Close(); err != nil {
			return w.fail(err)
		}
		w.f = nil
	}
	f, err := w.fs.OpenFile(filepath.Join(w.dir, segName(index)), os.O_WRONLY|os.O_CREATE|os.O_EXCL)
	if err != nil {
		return w.fail(err)
	}
	w.segIndex, w.f, w.size = index, f, 0
	w.markSynced()
	w.segments++
	return w.fail(w.fs.SyncDir(w.dir))
}

// fail records err, if any, as the log's first failure and returns it.
func (w *wal) fail(err error) error {
	if err != nil && w.err == nil {
		w.err = fmt.Errorf("wal: appends stopped after a failed write, fsync or rotation: %w", err)
	}
	return err
}

// appendNoSync frames and writes one record without forcing it to disk,
// rotating first when the open segment would exceed the size bound. The
// record is durable once syncOpenSegment next runs — or already, if a
// rotation closes its segment: rotate fsyncs the old segment first.
func (w *wal) appendNoSync(rec JobRecord) error {
	if w.err != nil {
		return w.err
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
		return w.fail(err)
	}
	w.size += int64(len(buf))
	w.totalBytes += int64(len(buf))
	w.unsynced++
	return nil
}

// syncOpenSegment fsyncs the open segment, making every written record
// durable. A nil open segment with no failure recorded is not an error here:
// close clears w.f only once the file is synced, so everything appendNoSync
// wrote is already on disk.
func (w *wal) syncOpenSegment() error {
	if w.err != nil {
		return w.err
	}
	if w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return w.fail(err)
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
