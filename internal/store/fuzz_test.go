package store

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"reflect"
	"slices"
	"testing"
)

// FuzzReadSegment feeds arbitrary bytes to the WAL frame decoder as one
// segment. It must not panic, its good prefix must lie inside the file, and
// the records it hands to add must be exactly those the whole frames of that
// prefix encode, in order: walked here frame by frame, each CRC-checked and
// decoded on its own.
func FuzzReadSegment(f *testing.F) {
	var seg []byte
	for i, op := range []Op{OpSubmitted, OpRunning, OpDone, OpFailed, OpAborted} {
		buf, err := frame(JobRecord{Op: op, ID: "j000001", Key: crashKeys[0], Spec: json.RawMessage(`{"n":1}`),
			Error: string(op), Cached: i%2 == 0, SubmittedAt: 1, StartedAt: 2, FinishedAt: 3, Trace: "ab"})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		seg = append(seg, buf...)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-3]) // a torn tail
	flipped := slices.Clone(seg)
	flipped[frameHeader/2] ^= 0x10 // a CRC byte of the first frame
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		fsys := newMemFS()
		fsys.live["/seg"] = &inode{data: data, synced: data}
		var recs []JobRecord
		good, size, err := readSegment(fsys, "/seg", func(rec JobRecord) { recs = append(recs, rec) })
		if err != nil || size != int64(len(data)) || good < 0 || good > size {
			t.Fatalf("readSegment of %d bytes: good %d, size %d, err %v", len(data), good, size, err)
		}
		off, i := int64(0), 0
		for ; off < good; i++ {
			if off+frameHeader > good {
				t.Fatalf("the good prefix (%d bytes) ends inside the header at %d", good, off)
			}
			end := off + frameHeader + int64(binary.LittleEndian.Uint32(data[off:]))
			if end > good || i >= len(recs) {
				t.Fatalf("the good prefix (%d bytes) ends inside the frame at %d, or add got only %d records", good, off, len(recs))
			}
			payload := data[off+frameHeader : end]
			var want JobRecord
			if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[off+4:]) ||
				json.Unmarshal(payload, &want) != nil || !reflect.DeepEqual(want, recs[i]) {
				t.Fatalf("record %d handed to add (%+v) is not what the frame at %d encodes (%q)", i, recs[i], off, payload)
			}
			off = end
		}
		if i != len(recs) {
			t.Fatalf("add got %d records, the good prefix holds %d frames", len(recs), i)
		}
	})
}
