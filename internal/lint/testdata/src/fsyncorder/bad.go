package store

import "os"

type record struct {
	Op     string
	Cached bool
}

type journalT struct{}

func (j *journalT) Append(r record) error { return nil }

type blobs struct{}

func (b *blobs) PutResult(key string, data []byte) error { return nil }

func publishUnsynced(tmp *os.File, dst string) error {
	if _, err := tmp.Write([]byte("data")); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), dst) // want `os\.Rename reachable from a file write with no intervening Sync`
}

func doneBeforeBlob(j *journalT, b *blobs, key string, data []byte) error {
	if err := j.Append(record{Op: "done"}); err != nil { // want `done record built with no result blob durably written before it`
		return err
	}
	return b.PutResult(key, data)
}

// doneWithoutBlob is a second done-site that never writes the blob at all:
// leaving PutResult out is no way around the ordering.
func doneWithoutBlob(j *journalT) error {
	return j.Append(record{Op: "done"}) // want `done record built with no result blob durably written before it`
}

// doneOpAssignedBeforeBlob builds the record in a variable; the op it is
// given is what makes it a done record.
func doneOpAssignedBeforeBlob(j *journalT, b *blobs, key string, data []byte) error {
	var rec record
	rec.Op = "done" // want `done record built with no result blob durably written before it`
	if err := b.PutResult(key, data); err != nil {
		return err
	}
	return j.Append(rec)
}
