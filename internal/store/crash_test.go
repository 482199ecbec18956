package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// crashDataDir sits under a parent the store has to create, so a power loss
// that keeps neither shows a data dir made without syncing its parent.
const crashDataDir = "/srv/odeproto"

// crashPaths is the mix of ways a job goes, one per job, in an order the
// seed shuffles.
var crashPaths = []string{"fresh", "fresh", "fresh", "fresh", "fresh", "fresh", "cached", "cached", "cached",
	"failed", "failed", "aborted", "aborted", "running", "running", "running"}

// crashBlobs are the results the workload stores, by key: two identity blobs
// and two above one block, one of them handed over as its gzip member (the
// service's stored form), the other as JSON for the store to deflate.
var crashBlobs, crashKeys = func() (map[string][]byte, []string) {
	blobs := make(map[string][]byte)
	var keys []string
	for _, canonical := range [][]byte{[]byte(`{"runs":[]}`), trajectory(40), trajectory(120), trajectory(130)} {
		sum := sha256.Sum256(canonical)
		key := hex.EncodeToString(sum[:])
		blobs[key], keys = canonical, append(keys, key)
	}
	return blobs, keys
}()

var errInjected = errors.New("injected failure")

// crashRun drives one seeded workload against a FileStore over a memFS and
// logs what the store promised along the way.
type crashRun struct {
	t    *testing.T
	fsys *memFS
	s    *FileStore

	tried  []JobRecord // every record handed to Append or AppendUnsynced
	acked  []JobRecord // the records an Append returned nil for
	stored []string    // the keys a PutResult returned nil for
	forgot []string    // the jobs handed to Forget

	// crashes, when set, collects the disk before every operation; kinds
	// names each operation, by index; failAt, when not negative, is the
	// operation that fails, and fired is set once it has.
	crashes    *[]crashPoint
	kinds      []string
	failAt     int
	fired      bool
	sinceFault int
}

// mark is how far the workload's logs reached at one instant.
type mark struct{ tried, acked, stored, forgot int }

type crashPoint struct {
	at                 mark
	kill, power, eager *memFS
}

func (c *crashRun) mark() mark {
	return mark{len(c.tried), len(c.acked), len(c.stored), len(c.forgot)}
}

func newCrashRun(t *testing.T, failAt int, crashes *[]crashPoint) *crashRun {
	c := &crashRun{t: t, fsys: newMemFS(), failAt: failAt, crashes: crashes}
	c.fsys.hook = func(n int, op string) error {
		c.kinds = append(c.kinds, op)
		if c.crashes != nil {
			*c.crashes = append(*c.crashes, crashPoint{c.mark(), c.fsys.image(false, false), c.fsys.image(true, false), c.fsys.image(true, true)})
		}
		if n == c.failAt {
			c.fired = true
			return errInjected
		}
		return nil
	}
	return c
}

// call runs one store call. A call during which the injected failure fired
// must return an error; after it, the disk a power loss would leave is
// checked after each of the next few calls, so that a promise broken there is
// not mended by a later sync before the run ends.
func (c *crashRun) call(what string, fn func() error) error {
	c.t.Helper()
	before := c.fired
	err := fn()
	if c.fired && !before && err == nil {
		c.t.Errorf("fail at op %d (%s): %s hit the failure and returned nil", c.failAt, c.kinds[c.failAt], what)
	}
	if c.fired && c.sinceFault < 4 {
		c.sinceFault++
		c.fsys.mu.Lock()
		img := c.fsys.image(true, false)
		c.fsys.mu.Unlock()
		c.check(fmt.Sprintf("fail at op %d (%s), power loss after %s", c.failAt, c.kinds[c.failAt], what), img, c.mark())
	}
	return err
}

func (c *crashRun) open() {
	c.t.Helper()
	err := c.call("Open", func() (err error) {
		c.s, err = Open(crashDataDir, Options{segmentBytes: 1 << 10, fs: c.fsys})
		return err
	})
	if err != nil && c.fired { // a restarting daemon opens again
		c.s, err = Open(crashDataDir, Options{segmentBytes: 1 << 10, fs: c.fsys})
	}
	if err != nil {
		c.t.Fatalf("Open: %v", err)
	}
}

func (c *crashRun) append(rec JobRecord, synced bool) {
	c.tried = append(c.tried, rec)
	if synced {
		if c.call("Append "+string(rec.Op), func() error { return c.s.Append(rec) }) == nil {
			c.acked = append(c.acked, rec)
		}
		return
	}
	_ = c.call("AppendUnsynced", func() error { return c.s.AppendUnsynced(rec) })
}

func (c *crashRun) put(key string) bool {
	data := crashBlobs[key]
	if key == crashKeys[2] {
		data = StoredForm(data)
	}
	if c.call("PutResult", func() error { return c.s.PutResult(key, data) }) != nil {
		// What a refused write left must not be served: a power loss could
		// drop it. A blob an earlier PutResult stored stays (readsBack).
		if !slices.Contains(c.stored, key) {
			if b, _, err := c.s.OpenResult(key); !errors.Is(err, ErrNotFound) {
				if err == nil {
					_ = b.Close()
				}
				c.t.Errorf("fail at op %d (%s): PutResult of %.8s returned an error, then OpenResult served it (err %v)", c.failAt, c.kinds[c.failAt], key, err)
			}
		}
		return false
	}
	c.stored = append(c.stored, key)
	return true
}

// workload is the service's journal, job by job: fresh jobs (submitted
// synced, blob, done unsynced — or failed when the blob is refused), jobs
// answered from the cache (one synced done record; a fresh job while the
// key has no blob yet), failed and aborted jobs and jobs left running. Every
// fourth job forgets an older one, every sixth compacts the log, and the
// store is closed and reopened halfway.
func (c *crashRun) workload() {
	rng := rand.New(rand.NewSource(52))
	paths := slices.Clone(crashPaths)
	rng.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
	c.open()
	for i, path := range paths {
		i++
		id, key, at := fmt.Sprintf("j%06d", i), crashKeys[rng.Intn(len(crashKeys))], int64(i)*10
		spec := json.RawMessage(fmt.Sprintf(`{"n":%d}`, i))
		trace := fmt.Sprintf("%032x", i)
		submitted := JobRecord{Op: OpSubmitted, ID: id, Key: key, Spec: spec, SubmittedAt: at + 1, Trace: trace}
		switch {
		case path == "cached" && slices.Contains(c.stored, key):
			c.append(JobRecord{Op: OpDone, ID: id, Key: key, Spec: spec, Cached: true, SubmittedAt: at + 1, FinishedAt: at + 3, Trace: trace}, true)
		case path == "fresh" || path == "cached":
			c.append(submitted, true)
			if c.put(key) {
				c.append(JobRecord{Op: OpDone, ID: id, Key: key, StartedAt: at + 2, FinishedAt: at + 3}, false)
			} else {
				c.append(JobRecord{Op: OpFailed, ID: id, Error: "persisting result", FinishedAt: at + 3}, true)
			}
		case path == "failed" || path == "aborted":
			c.append(submitted, true)
			c.append(JobRecord{Op: Op(path), ID: id, Error: path, FinishedAt: at + 3}, true)
		default:
			c.append(submitted, true)
		}
		if i%4 == 0 {
			old := fmt.Sprintf("j%06d", i-3)
			c.forgot = append(c.forgot, old)
			_ = c.call("Forget", func() error { return c.s.Forget(old) })
		}
		if i%6 == 0 {
			_ = c.call("compact", c.s.compact)
		}
		if i == len(paths)/2 {
			_ = c.call("Close", c.s.Close)
			c.open()
		}
	}
	_ = c.call("Close", c.s.Close)
}

// check reopens img and asserts every promise the workload had been given at
// at: each record an Append acknowledged is recovered with its fields (a
// forgotten job may be gone), every blob a PutResult acknowledged reads back
// byte-identical and no blob reads back torn, every job is terminal or
// Interrupted, a job that lost its unsynced done record still has its blob
// for the heal path, and nothing recovered says what no record said.
func (c *crashRun) check(what string, img *memFS, at mark) {
	t := c.t
	t.Helper()
	s, err := Open(crashDataDir, Options{segmentBytes: 1 << 10, fs: img})
	if err != nil {
		t.Fatalf("%s: Open: %v", what, err)
	}
	defer s.Close()
	sent := merged{at: map[string]int{}}
	doneSent := map[string]bool{}
	for _, rec := range c.tried[:at.tried] {
		sent.add(rec)
		doneSent[rec.ID] = doneSent[rec.ID] || rec.Op == OpDone
	}
	present := map[string]bool{}
	for _, key := range crashKeys {
		present[key] = c.readsBack(what, s, key, slices.Contains(c.stored[:at.stored], key))
	}
	got := map[string]RecoveredJob{}
	for _, rj := range s.Recovered() {
		got[rj.ID] = rj
		i, ok := sent.at[rj.ID]
		switch {
		case !ok:
			t.Fatalf("%s: recovered %s, which no record names", what, rj.ID)
		case rj.Interrupted != (opRank(rj.Status) < rankTerminal), !fieldsFrom(rj, sent.jobs[i]):
			t.Fatalf("%s: recovered %+v from the records %+v", what, rj, sent.jobs[i])
		case rj.Interrupted && doneSent[rj.ID] && !present[rj.Key]:
			t.Fatalf("%s: %s lost its done record and its blob with it: the heal path has nothing", what, rj.ID)
		}
	}
	for _, rec := range c.acked[:at.acked] {
		rj, ok := got[rec.ID]
		if !ok && slices.Contains(c.forgot[:at.forgot], rec.ID) {
			continue
		}
		if !ok || !keeps(rj, rec) {
			t.Fatalf("%s: acknowledged %+v, recovered %+v (found %v)", what, rec, rj, ok)
		}
	}
}

// readsBack opens key's blob in s, reports whether it is there, and fails the
// test unless it reads back byte-identical, or is missing and was not promised.
func (c *crashRun) readsBack(what string, s *FileStore, key string, promised bool) bool {
	c.t.Helper()
	b, size, err := s.OpenResult(key)
	if errors.Is(err, ErrNotFound) && !promised {
		return false
	}
	if err != nil {
		c.t.Fatalf("%s: blob %.8s: %v", what, key, err)
	}
	rc, _, err := Inflate(b, size)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(rc)
		_ = rc.Close()
	}
	if err != nil || !bytes.Equal(data, crashBlobs[key]) {
		c.t.Fatalf("%s: blob %.8s reads back %d torn bytes (err %v), want %d", what, key, len(data), err, len(crashBlobs[key]))
	}
	return true
}

// fieldsFrom reports whether every field rj holds is the one the job's
// records set (each field is set by one record), with a status among theirs.
func fieldsFrom(rj, sent RecoveredJob) bool {
	if opRank(rj.Status) > opRank(sent.Status) || (opRank(rj.Status) == rankTerminal && rj.Status != sent.Status) {
		return false
	}
	got, want := reflect.ValueOf(rj), reflect.ValueOf(sent)
	for i := range got.NumField() {
		if name := got.Type().Field(i).Name; name != "Status" && name != "Interrupted" &&
			!got.Field(i).IsZero() && !reflect.DeepEqual(got.Field(i).Interface(), want.Field(i).Interface()) {
			return false
		}
	}
	return true
}

// keeps reports whether rj holds every field rec set, at rec's rank or past it.
func keeps(rj RecoveredJob, rec JobRecord) bool {
	if opRank(rj.Status) < opRank(rec.Op) || (opRank(rec.Op) == rankTerminal && rj.Status != rec.Op) {
		return false
	}
	got, want := reflect.ValueOf(rj), reflect.ValueOf(rec)
	for i := range want.NumField() {
		if name := want.Type().Field(i).Name; name != "Op" && !want.Field(i).IsZero() &&
			!reflect.DeepEqual(got.FieldByName(name).Interface(), want.Field(i).Interface()) {
			return false
		}
	}
	return true
}

// TestCrashAtEveryOperation runs the workload once over a memFS and crashes
// it before every filesystem operation, and after the last: three disks per
// crash point — a process kill, and a power loss with the entries not yet
// synced into their dirs all lost or all kept — each reopened and checked
// against what had been promised by then. Then it fails each write, sync,
// close and rename of that run in turn (dir syncs included), once per run,
// with no crash: the call that meets the failure must report it, and nothing
// promised after it may be lost to a power loss.
func TestCrashAtEveryOperation(t *testing.T) {
	start := time.Now()
	var crashes []crashPoint
	clean := newCrashRun(t, -1, &crashes)
	clean.workload()
	clean.fsys.mu.Lock()
	crashes = append(crashes, crashPoint{clean.mark(), clean.fsys.image(false, false), clean.fsys.image(true, false), clean.fsys.image(true, true)})
	clean.fsys.mu.Unlock()
	for n, cp := range crashes {
		clean.check(fmt.Sprintf("kill before op %d", n), cp.kill, cp.at)
		clean.check(fmt.Sprintf("power loss before op %d", n), cp.power, cp.at)
		clean.check(fmt.Sprintf("power loss, metadata kept, before op %d", n), cp.eager, cp.at)
	}
	crashTime := time.Since(start)

	injected := 0
	for k, op := range clean.kinds {
		switch op {
		case "write", "sync", "close", "rename", "syncdir":
		default:
			continue
		}
		injected++
		c := newCrashRun(t, k, nil)
		c.workload()
		if !c.fired || c.kinds[k] != op {
			t.Fatalf("the run failing op %d (%s) did not meet it: the workload is not deterministic", k, op)
		}
		c.fsys.mu.Lock()
		kill, power, eager := c.fsys.image(false, false), c.fsys.image(true, false), c.fsys.image(true, true)
		c.fsys.mu.Unlock()
		c.check(fmt.Sprintf("fail at op %d (%s), kill at the end", k, op), kill, c.mark())
		c.check(fmt.Sprintf("fail at op %d (%s), power loss at the end", k, op), power, c.mark())
		c.check(fmt.Sprintf("fail at op %d (%s), power loss at the end, metadata kept", k, op), eager, c.mark())
	}
	t.Logf("crash driver: %d operation indices x 3 crash images (kill, power loss, power loss with metadata) in %v; %d failures injected, one per run, in %v",
		len(crashes), crashTime.Round(time.Millisecond), injected, (time.Since(start) - crashTime).Round(time.Millisecond))
}
