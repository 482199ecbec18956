package store

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// trajectory renders a result the way the service's encoder does — one run,
// one row per period — for an endemic system of N = 100 000 settling into its
// equilibrium with sampling noise on top: the text the store actually holds.
func trajectory(rows int) []byte {
	rng := rand.New(rand.NewSource(7))
	var b bytes.Buffer
	b.WriteString(`{"states":["x","y","z"],"runs":[{"seed":7,"rows":[`)
	for t := 1; t <= rows; t++ {
		swing := math.Exp(-float64(t)/400) * math.Cos(float64(t)/60)
		x := 20000 + int(30000*swing) + rng.Intn(60)
		y := 5000 - int(3000*swing) + rng.Intn(30)
		if t > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"period":%d,"counts":[%d,%d,%d]}`, t, x, y, 100000-x-y)
	}
	b.WriteString(`]}]}`)
	return b.Bytes()
}

func gunzip(t *testing.T, member []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(member))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

const blobKey = "5ca1ab1e5ca1ab1e5ca1ab1e5ca1ab1e5ca1ab1e5ca1ab1e5ca1ab1e5ca1ab1e"

func blobPath(dir, key string) string { return filepath.Join(dir, "results", key[:2], key) }

// TestStoredBlobIsDeflated: a 20 000-row result — the size sweep-rows
// produces — reaches the disk as one gzip member several times smaller than
// its canonical bytes, both sizes are on the store's books, and every read
// returns the canonical bytes. CI prints the "stored" line.
func TestStoredBlobIsDeflated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()

	canonical := trajectory(20000)
	if err := s.PutResult(blobKey, canonical); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(blobPath(dir, blobKey))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("stored %d B for %d raw B (%.1fx)", len(onDisk), len(canonical), float64(len(canonical))/float64(len(onDisk)))
	if len(onDisk)*3 > len(canonical) {
		t.Fatalf("a trajectory of %d B is stored in %d B: want at least 3x smaller", len(canonical), len(onDisk))
	}
	if !bytes.Equal(gunzip(t, onDisk), canonical) {
		t.Fatal("the file is not a gzip member of the canonical bytes")
	}
	if st := s.Stats(); st.ResultsWritten != 1 || st.ResultBytes != int64(len(onDisk)) || st.ResultRawBytes != int64(len(canonical)) {
		t.Fatalf("stats %+v, want 1 result of %d B stored, %d B raw", st, len(onDisk), len(canonical))
	}

	got, err := s.GetResult(blobKey)
	if err != nil || !bytes.Equal(got, canonical) {
		t.Fatalf("GetResult: %d B, err %v, want the %d canonical bytes", len(got), err, len(canonical))
	}
	rc, size, err := s.GetResultReader(blobKey)
	if err != nil {
		t.Fatal(err)
	}
	// An open that reads nothing — the service's existence probe, a 304 —
	// takes no inflater.
	if br, ok := rc.(*blobReader); !ok || br.zr != nil {
		t.Fatalf("reader of a compressed blob is %T with inflater %v before its first Read", rc, ok && br.zr != nil)
	}
	if size != int64(len(canonical)) {
		t.Fatalf("reader size = %d, want the canonical length %d", size, len(canonical))
	}
	streamed, err := io.ReadAll(rc)
	if err != nil || !bytes.Equal(streamed, canonical) {
		t.Fatalf("streamed %d B, err %v", len(streamed), err)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}

	// A blob that fits one block is written as is: one byte over is not.
	for _, n := range []int{blockBytes, blockBytes + 1} {
		key := fmt.Sprintf("%064x", n)
		data := append([]byte(`{"pad":"`), bytes.Repeat([]byte("a"), n-10)...)
		data = append(data, `"}`...)
		if err := s.PutResult(key, data); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(blobPath(dir, key))
		if err != nil {
			t.Fatal(err)
		}
		if asIs := bytes.Equal(file, data); asIs != (n <= blockBytes) {
			t.Fatalf("a %d B blob stored as is: %v", n, asIs)
		}
		if got, err := s.GetResult(key); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%d B blob reads back %d B, err %v", n, len(got), err)
		}
	}
}

// TestCorruptBlobRefused: one flipped byte, a truncation, a damaged trailer
// — no read that inflates a compressed blob returns bytes from it without an
// error, the error is not ErrNotFound, and rewriting the key heals it.
func TestCorruptBlobRefused(t *testing.T) {
	canonical := trajectory(2000)
	member := Deflate(canonical)
	flip := func(at int) []byte {
		bad := bytes.Clone(member)
		bad[at] ^= 0x10
		return bad
	}
	cases := map[string][]byte{
		"flipped byte":      flip(len(member) / 2),
		"flipped crc":       flip(len(member) - 6),
		"flipped length":    flip(len(member) - 1),
		"huge length":       append(bytes.Clone(member[:len(member)-4]), 0xff, 0xff, 0xff, 0x7f),
		"truncated":         member[:len(member)/2],
		"truncated to head": member[:3],
		"trailing garbage":  append(bytes.Clone(member), "garbage!"...),
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{})
			defer s.Close()
			if err := s.PutResult(blobKey, canonical); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(blobPath(dir, blobKey), bad, 0o644); err != nil {
				t.Fatal(err)
			}

			if got, err := s.GetResult(blobKey); err == nil || errors.Is(err, ErrNotFound) {
				t.Fatalf("GetResult returned %d B, err %v: want a read error", len(got), err)
			}
			// Streamed, the damage is an error too, and however late it shows
			// the stream stops short of the length it declared: what arrives
			// with the verdict is withheld.
			rc, size, err := s.GetResultReader(blobKey)
			if err == nil {
				var n int64
				n, err = io.Copy(io.Discard, rc)
				_ = rc.Close()
				if n >= size {
					t.Fatalf("streamed all %d of the %d declared bytes before %v", n, size, err)
				}
			}
			if err == nil || errors.Is(err, ErrNotFound) {
				t.Fatalf("streaming the blob to EOF: err %v, want a read error", err)
			}

			if err := s.PutResult(blobKey, canonical); err != nil {
				t.Fatal(err)
			}
			if got, err := s.GetResult(blobKey); err != nil || !bytes.Equal(got, canonical) {
				t.Fatalf("after the rewrite: %d B, err %v", len(got), err)
			}
		})
	}
}

// TestOldLayoutReadsUnchanged: a results directory as the daemon wrote it
// before blobs were compressed — identity at any size, a .gz sibling beside
// the ones a gzip client had asked for — reads through every accessor, each
// blob as it lies with its sibling unread, and no file in it is touched.
func TestOldLayoutReadsUnchanged(t *testing.T) {
	dir := t.TempDir()
	big, small := trajectory(2000), []byte(`{"states":["x"],"runs":[]}`)
	bigKey, smallKey := blobKey, "0ddba11"+blobKey[7:]
	sibling := Deflate(big)
	files := map[string][]byte{
		blobPath(dir, bigKey):         big,
		blobPath(dir, bigKey) + ".gz": sibling,
		blobPath(dir, smallKey):       small,
	}
	for path, data := range files {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := mustOpen(t, dir, Options{})
	defer s.Close()

	for key, want := range map[string][]byte{bigKey: big, smallKey: small} {
		if got, err := s.GetResult(key); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("GetResult(%s…): %d B, err %v, want %d B", key[:7], len(got), err, len(want))
		}
		rc, size, err := s.GetResultReader(key)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(rc)
		_ = rc.Close()
		if err != nil || size != int64(len(want)) || !bytes.Equal(got, want) {
			t.Fatalf("reader(%s…): size %d, %d B, err %v, want %d B", key[:7], size, len(got), err, len(want))
		}
	}
	b, size, err := s.OpenResult(bigKey)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(b)
	_ = b.Close()
	if err != nil || size != int64(len(big)) || !bytes.Equal(got, big) {
		t.Fatalf("open of an identity blob with a sibling: size %d, %d B, err %v, want its own %d B", size, len(got), err, len(big))
	}
	for path, data := range files {
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s changed under reads: %d B, err %v", path, len(got), err)
		}
	}
	if st := s.Stats(); st.ResultsWritten != 0 {
		t.Fatalf("reading an old directory wrote %d results", st.ResultsWritten)
	}
}

// TestBlobReadsShareInflaters: concurrent reads of compressed blobs, buffered
// and streamed, through the pooled inflate states (run under -race).
func TestBlobReadsShareInflaters(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	blobs := make(map[string][]byte)
	for i := 1; i <= 4; i++ {
		key := fmt.Sprintf("%064x", i)
		blobs[key] = trajectory(500 * i)
		if err := s.PutResult(key, blobs[key]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				for key, want := range blobs {
					got, err := s.GetResult(key)
					if err != nil || !bytes.Equal(got, want) {
						t.Errorf("GetResult: %d B, err %v, want %d B", len(got), err, len(want))
					}
					rc, _, err := s.GetResultReader(key)
					if err != nil {
						t.Error(err)
						continue
					}
					got, err = io.ReadAll(rc)
					_ = rc.Close()
					if err != nil || !bytes.Equal(got, want) {
						t.Errorf("reader: %d B, err %v, want %d B", len(got), err, len(want))
					}
				}
			}
		}()
	}
	wg.Wait()
}
