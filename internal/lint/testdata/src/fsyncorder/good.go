package store

import "os"

// publishSynced follows the temp+Sync+rename publication discipline.
func publishSynced(tmp *os.File, dst string) error {
	if _, err := tmp.Write([]byte("data")); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), dst)
}

// blobThenDone persists the result before journaling its done record.
func blobThenDone(j *journalT, b *blobs, key string, data []byte) error {
	if err := b.PutResult(key, data); err != nil {
		return err
	}
	return j.Append(record{Op: "done"})
}

// cachedDone journals a cache hit: the blob this record describes was
// already durable before the job existed, so the ordering rule is moot.
func cachedDone(j *journalT, b *blobs, key string, data []byte) error {
	if err := j.Append(record{Op: "done", Cached: true}); err != nil {
		return err
	}
	return b.PutResult(key, data)
}

// cachedDoneNoBlob is the cache-hit path as the service writes it: no blob
// write anywhere in the function, and none needed.
func cachedDoneNoBlob(j *journalT) error {
	return j.Append(record{Op: "done", Cached: true})
}

// blobThenOpAssigned picks the record's op after the blob is durable.
func blobThenOpAssigned(j *journalT, b *blobs, key string, data []byte, failed bool) error {
	if err := b.PutResult(key, data); err != nil {
		return err
	}
	rec := record{Op: "failed"}
	if !failed {
		rec.Op = "done"
	}
	return j.Append(rec)
}
