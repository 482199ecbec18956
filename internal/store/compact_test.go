package store

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// copyDir copies the files under src to dst: what a crash at this instant
// would leave on disk, every write so far having reached it.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// recoveredFrom opens dir and hands over what it replays.
func recoveredFrom(t *testing.T, dir string) []RecoveredJob {
	t.Helper()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	return s.Recovered()
}

// sameIndexed checks got against want, a never-compacted replay of the same
// records: every indexed job is in got exactly as want has it, and got holds
// nothing else but forgotten jobs, also as want has them, in want's order.
func sameIndexed(t *testing.T, what string, got, want []RecoveredJob, indexed map[string]bool) {
	t.Helper()
	at := make(map[string]int, len(want))
	for i, rj := range want {
		at[rj.ID] = i
	}
	last, seen := -1, 0
	for _, rj := range got {
		i, ok := at[rj.ID]
		if !ok || i <= last || !reflect.DeepEqual(rj, want[i]) {
			t.Fatalf("%s: recovered %+v, out of order or not as the uncompacted log has it (at %d, last %d: %+v)", what, rj, i, last, want[i])
		}
		last = i
		if indexed[rj.ID] {
			seen++
		}
	}
	if seen != len(indexed) {
		t.Fatalf("%s: recovered %d of the %d indexed jobs", what, seen, len(indexed))
	}
}

// segmentCount is the number of segment files under dir's wal.
func segmentCount(t *testing.T, dir string) int {
	t.Helper()
	indices, err := segmentIndices(osFS{}, filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	return len(indices)
}

// TestCompactionUnderAppends: one goroutine journals jobs and forgets each
// once 40 newer follow, while two others compact over and over (one runs at a
// time; the other's call returns at once). A reopen recovers every indexed
// job exactly as a store that never compacted the same records does. Run it
// under -race.
func TestCompactionUnderAppends(t *testing.T) {
	const jobs, keep = 600, 40
	dir, refDir := t.TempDir(), t.TempDir()
	ref := mustOpen(t, refDir, Options{})
	s := mustOpen(t, dir, Options{segmentBytes: 4 << 10})
	indexed := make(map[string]bool)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.compact(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 1; i <= jobs; i++ {
		id := fmt.Sprintf("j%06d", i)
		for _, rec := range lifecycle(id, "abcd") {
			for _, st := range []*FileStore{s, ref} {
				if err := st.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		indexed[id] = true
		if i > keep {
			old := fmt.Sprintf("j%06d", i-keep)
			forget(t, s, old)
			delete(indexed, old)
		}
	}
	close(stop)
	wg.Wait()
	st := s.Stats()
	if st.Compactions < 2 || st.IndexedJobs != keep || st.WALSegments != segmentCount(t, dir) {
		t.Fatalf("after the run: %d compactions, %d jobs indexed, %d segments counted and %d on disk",
			st.Compactions, st.IndexedJobs, st.WALSegments, segmentCount(t, dir))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	want := recoveredFrom(t, refDir)
	got := recoveredFrom(t, dir)
	sameIndexed(t, "after concurrent compactions", got, want, indexed)
	t.Logf("%d compactions; the reopen recovered %d jobs for %d indexed", st.Compactions, len(got), keep)
}

// watchFS is the disk, calling after once each directory operation is done.
type watchFS struct {
	osFS
	after func(op, name string)
}

func (w watchFS) ReadDir(name string) ([]fs.DirEntry, error) {
	entries, err := w.osFS.ReadDir(name)
	w.after("readdir", name)
	return entries, err
}

func (w watchFS) Rename(oldpath, newpath string) error {
	err := w.osFS.Rename(oldpath, newpath)
	w.after("rename", newpath)
	return err
}

func (w watchFS) Remove(name string) error {
	err := w.osFS.Remove(name)
	w.after("remove", name)
	return err
}

func (w watchFS) SyncDir(dir string) error {
	err := w.osFS.SyncDir(dir)
	w.after("syncdir", dir)
	return err
}

// TestCompactionCrashAtEachStep copies the data dir at each of compaction's
// step boundaries, as the filesystem seam sees them — the log sealed (the
// sealed log listed for replay), the snapshot renamed in (and its dir
// synced), the first old segment removed — with a record appended after each
// of the first two. Each copy reopens to the state of a log that never
// compacted: every job, where nothing is removed yet; every indexed job, once
// removal has begun.
func TestCompactionCrashAtEachStep(t *testing.T) {
	dir, refDir := t.TempDir(), t.TempDir()
	ref := mustOpen(t, refDir, Options{})
	var step func(op, name string)
	s := mustOpen(t, dir, Options{segmentBytes: 1 << 10, fs: watchFS{after: func(op, name string) {
		if step != nil {
			step(op, name)
		}
	}}})
	indexed := make(map[string]bool)
	appendBoth := func(rec JobRecord) {
		for _, st := range []*FileStore{s, ref} {
			if err := st.Append(rec); err != nil {
				t.Error(err)
			}
		}
	}
	for i := 1; i <= 40; i++ {
		id := fmt.Sprintf("j%06d", i)
		for _, rec := range lifecycle(id, "abcd") {
			appendBoth(rec)
		}
		indexed[id] = true
	}
	for i := 1; i <= 20; i++ {
		id := fmt.Sprintf("j%06d", i)
		forget(t, s, id)
		delete(indexed, id)
	}

	crashes := map[string]string{}
	crashAt := func(step string) {
		if _, ok := crashes[step]; ok {
			return
		}
		crashes[step] = t.TempDir()
		copyDir(t, dir, crashes[step])
		if step != "removed" { // removal holds the store's lock
			// A record appended between steps lands beyond the seal.
			appendBoth(JobRecord{Op: OpSubmitted, ID: "j1" + step, Key: "abcd", SubmittedAt: int64(len(crashes))})
			indexed["j1"+step] = true
		}
	}
	renamed := false
	step = func(op, name string) {
		switch {
		case op == "readdir":
			crashAt("sealed")
		case op == "rename":
			renamed = true
		case op == "syncdir" && renamed:
			crashAt("renamed")
		case op == "remove":
			crashAt("removed")
		}
	}
	compactNow(t, s)
	step = nil
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	want := recoveredFrom(t, refDir)

	for _, step := range []string{"sealed", "renamed", "removed"} {
		crash, ok := crashes[step]
		if !ok {
			t.Fatalf("compaction never reached %q", step)
		}
		got := recoveredFrom(t, crash)
		if step == "removed" {
			sameIndexed(t, "a crash once removal began", got, want, indexed)
			continue
		}
		// The copy was taken before this step's own record.
		n := slices.IndexFunc(want, func(rj RecoveredJob) bool { return rj.ID == "j1"+step })
		if !reflect.DeepEqual(got, want[:n]) {
			t.Fatalf("a crash after %q recovered %d jobs, want the %d of a log that never compacted", step, len(got), n)
		}
	}
	sameIndexed(t, "after the compaction", recoveredFrom(t, dir), want, indexed)
}

// TestCompactionRefusesABadFrame: a compaction replays the sealed log
// read-only, so a flipped byte in segment 1 stops it with an error and no
// snapshot: every segment stays, nothing is truncated, appends go on, and
// Forget does not try again before the log has doubled.
func TestCompactionRefusesABadFrame(t *testing.T) {
	const jobs = 400 // 1 200 records: past CompactFloor
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{segmentBytes: 16 << 10})
	for i := 1; i <= jobs; i++ {
		for _, rec := range lifecycle(fmt.Sprintf("j%06d", i), "abcd") {
			if err := s.write(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	seg1 := filepath.Join(dir, "wal", segName(1))
	data, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(seg1, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()

	if err := s.compact(); err == nil {
		t.Fatal("a compaction over a corrupted sealed segment succeeded")
	}
	after := s.Stats()
	if after.Compactions != 0 || after.LogRecords != before.LogRecords || after.WALSegments != segmentCount(t, dir) {
		t.Fatalf("after the refused compaction: %+v, %d segments on disk", after, segmentCount(t, dir))
	}
	if info, err := os.Stat(seg1); err != nil || info.Size() != int64(len(data)) {
		t.Fatalf("segment 1 after the refused compaction: %v, %v", info, err)
	}
	if entries, err := os.ReadDir(filepath.Join(dir, "wal")); err != nil || len(entries) != segmentCount(t, dir) {
		t.Fatalf("the refused compaction left %d files for %d segments (%v)", len(entries), segmentCount(t, dir), err)
	}
	if err := s.Append(JobRecord{Op: OpSubmitted, ID: "j000099", SubmittedAt: 1}); err != nil {
		t.Fatal(err)
	}
	segments := segmentCount(t, dir)
	for i := 1; i <= jobs/2; i++ {
		forget(t, s, fmt.Sprintf("j%06d", i)) // 6 records per job, but not twice the refused log
	}
	if got := segmentCount(t, dir); got != segments || s.Stats().Compactions != 0 {
		t.Fatalf("forgets after the refusal compacted again: %d segments, was %d", got, segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNewDirsAreDurable: a dir the store creates is made durable in its
// parent — results/ and wal/ in the data dir, each results/<xx> in results/
// — once per dir, and an existing dir costs no sync of its parent.
func TestNewDirsAreDurable(t *testing.T) {
	synced := map[string]int{}
	var mu sync.Mutex
	opts := Options{fs: watchFS{after: func(op, name string) {
		if op == "syncdir" {
			mu.Lock()
			synced[name]++
			mu.Unlock()
		}
	}}}

	dir := t.TempDir()
	results := filepath.Join(dir, "results")
	s := mustOpen(t, dir, opts)
	if synced[dir] != 2 {
		t.Fatalf("a fresh Open synced the data dir %d times, want 2 (results/ and wal/)", synced[dir])
	}
	for _, key := range []string{"ab01", "ab02", "cd01"} {
		if err := s.PutResult(key, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	if synced[results] != 2 || synced[filepath.Join(results, "ab")] != 2 || synced[filepath.Join(results, "cd")] != 1 {
		t.Fatalf("three blobs under two new prefixes synced %v", synced)
	}
	if st := s.Stats(); st.WALSyncs != 0 || st.ResultsWritten != 3 {
		t.Fatalf("dir syncs moved the counted fsyncs: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	clear(synced)
	s2 := mustOpen(t, dir, opts)
	defer s2.Close()
	if err := s2.PutResult("ab03", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if synced[dir] != 0 || synced[results] != 0 {
		t.Fatalf("a reopen and a blob under an existing prefix synced %v", synced)
	}

	// A data dir that does not exist yet, nor its parent: each is made
	// durable in its own parent, or a power loss after the first 202 could
	// take the whole dir with it.
	clear(synced)
	parent := filepath.Join(t.TempDir(), "new")
	fresh := filepath.Join(parent, "data")
	s3 := mustOpen(t, fresh, opts)
	defer s3.Close()
	if synced[filepath.Dir(parent)] != 1 || synced[parent] != 1 || synced[fresh] != 2 {
		t.Fatalf("an Open that created %s synced %v, want its parent and grandparent once each and the dir twice", fresh, synced)
	}
}
