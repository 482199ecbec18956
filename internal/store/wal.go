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

// openWAL replays every segment in index order and opens the newest for
// append. Torn or corrupted records truncate their segment at the last
// good byte; replay then continues with the next segment.
func openWAL(dir string, segBytes int64) (*wal, []JobRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var indices []int
	for _, e := range entries {
		var idx int
		if n, err := fmt.Sscanf(e.Name(), "%d.wal", &idx); n == 1 && err == nil && e.Name() == segName(idx) {
			indices = append(indices, idx)
		}
	}
	sort.Ints(indices)

	w := &wal{dir: dir, segBytes: segBytes}
	var recs []JobRecord
	for _, idx := range indices {
		segRecs, segSize, err := w.replaySegment(filepath.Join(dir, segName(idx)))
		if err != nil {
			return nil, nil, err
		}
		recs = append(recs, segRecs...)
		w.totalBytes += segSize
	}
	w.segments = len(indices)
	if len(indices) == 0 {
		if err := w.rotate(1); err != nil {
			return nil, nil, err
		}
	} else {
		last := indices[len(indices)-1]
		f, err := os.OpenFile(filepath.Join(dir, segName(last)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, err
		}
		info, err := f.Stat()
		if err != nil {
			_ = f.Close()
			return nil, nil, err
		}
		w.segIndex, w.f, w.size = last, f, info.Size()
		w.markSynced()
	}
	return w, recs, nil
}

// replaySegment decodes a segment's records, truncating the file at the
// first torn or corrupted frame: an append-only log is only ever damaged
// at its tail by a crash (bit rot elsewhere hits the same CRC check), so
// everything before the bad frame is trustworthy and everything after it
// is not. It returns the records and the segment's post-truncation size.
func (w *wal) replaySegment(path string) ([]JobRecord, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var recs []JobRecord
	off := 0
	for off < len(data) {
		good := false
		if len(data)-off >= frameHeader {
			n := int(binary.LittleEndian.Uint32(data[off:]))
			sum := binary.LittleEndian.Uint32(data[off+4:])
			if n > 0 && n <= maxRecordBytes && off+frameHeader+n <= len(data) {
				payload := data[off+frameHeader : off+frameHeader+n]
				if crc32.Checksum(payload, crcTable) == sum {
					var rec JobRecord
					if json.Unmarshal(payload, &rec) == nil {
						recs = append(recs, rec)
						off += frameHeader + n
						good = true
					}
				}
			}
		}
		if !good {
			w.truncations++
			if err := os.Truncate(path, int64(off)); err != nil {
				return nil, 0, fmt.Errorf("truncating torn tail of %s: %w", path, err)
			}
			break
		}
	}
	return recs, int64(off), nil
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

// compact replaces every segment with a single fresh one holding recs (one
// snapshot record per live job). The snapshot is written to a temp file
// and renamed into place as the next segment index before the old segments
// are removed, so a crash at any point leaves a log that replays to the
// same state: either the old segments are still authoritative, or the
// snapshot segment replays last and overrides them record by record.
func (w *wal) compact(recs []JobRecord) error {
	newIndex := w.segIndex + 1
	tmp := filepath.Join(w.dir, "compact.tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var size int64
	for _, rec := range recs {
		buf, err := frame(rec)
		if err != nil {
			_ = f.Close()
			os.Remove(tmp)
			return err
		}
		if _, err := f.Write(buf); err != nil {
			_ = f.Close()
			os.Remove(tmp)
			return err
		}
		size += int64(len(buf))
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}

	oldMax := w.segIndex
	if w.f != nil {
		if err := w.f.Sync(); err != nil {
			return err
		}
		if err := w.f.Close(); err != nil {
			return err
		}
		w.f = nil
	}
	if err := os.Rename(tmp, filepath.Join(w.dir, segName(newIndex))); err != nil {
		return err
	}
	if err := syncDir(w.dir); err != nil {
		return err
	}
	for idx := 1; idx <= oldMax; idx++ {
		if err := os.Remove(filepath.Join(w.dir, segName(idx))); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	nf, err := os.OpenFile(filepath.Join(w.dir, segName(newIndex)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.segIndex, w.f, w.size = newIndex, nf, size
	w.markSynced()
	w.segments = 1
	w.totalBytes = size
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
// Windows rejects the open for sync entirely); neither voids the write.
func syncDir(dir string) error {
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
