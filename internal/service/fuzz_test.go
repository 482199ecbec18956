package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"odeproto/internal/ode"
)

// The header parsers and the result scanner read bytes a client or a disk
// chose. Tier-1 runs the f.Add seeds and any committed corpus under
// testdata/fuzz; CI also fuzzes each target for a few seconds:
//
//	go test -run '^$' -fuzz '^FuzzAcceptsGzip$' -fuzztime 10s ./internal/service

// swapASCIICase flips the case of every ASCII letter and leaves every
// other byte alone.
func swapASCIICase(s string) string {
	b := []byte(s)
	for i, c := range b {
		switch {
		case 'a' <= c && c <= 'z':
			b[i] = c - 'a' + 'A'
		case 'A' <= c && c <= 'Z':
			b[i] = c - 'A' + 'a'
		}
	}
	return string(b)
}

func requestWith(name, value string) *http.Request {
	r := httptest.NewRequest(http.MethodGet, "/", nil)
	r.Header[name] = []string{value}
	return r
}

// FuzzAcceptsGzip: the answer does not depend on letter case, on
// whitespace around the header, or on an identity coding appended to it.
func FuzzAcceptsGzip(f *testing.F) {
	for _, h := range []string{"", "gzip", "GZIP;Q=0", "x-gzip;q=0.5", "br, gzip;q=0", "deflate;q=1, gzip ;q=0.001", "gzip;q=1e-3", "gzip;q=0x0p0", "gzip;q=NaN", "gzip;q=", ",,;"} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		want := acceptsGzip(requestWith("Accept-Encoding", h))
		for _, v := range []string{swapASCIICase(h), " \t" + h + "\t ", h + ", identity"} {
			if got := acceptsGzip(requestWith("Accept-Encoding", v)); got != want {
				t.Fatalf("Accept-Encoding %q: %v, but %q: %v", h, want, v, got)
			}
		}
	})
}

// FuzzIfNoneMatch: a header that lists the ETag, weak or strong, or "*"
// always matches; one that names neither never does.
func FuzzIfNoneMatch(f *testing.F) {
	for _, tc := range [][2]string{{"", "k"}, {`"k"`, "k"}, {`W/"a", "b"`, "b"}, {"*", "k"}, {`"k`, "k"}, {` , ,W/`, ""}} {
		f.Add(tc[0], tc[1])
	}
	f.Fuzz(func(t *testing.T, h, key string) {
		if strings.Contains(key, ",") {
			t.Skip("a comma splits the ETag itself")
		}
		etag := etagForKey(key)
		if !strings.Contains(h, etag) && !strings.Contains(h, "*") && ifNoneMatchHit(requestWith("If-None-Match", h), etag) {
			t.Fatalf("If-None-Match %q matched %s, which it does not name", h, etag)
		}
		for _, listed := range []string{etag, "W/" + etag, "*"} {
			for _, v := range []string{listed, h + "," + listed, listed + " , " + h, h + ", " + listed + "\t," + h} {
				if !ifNoneMatchHit(requestWith("If-None-Match", v), etag) {
					t.Fatalf("If-None-Match %q does not match %s", v, etag)
				}
			}
		}
	})
}

// FuzzScanResult: scanResult never panics on arbitrary bytes, and on
// encodeResult's own output it visits every run, in order, with its seed
// and every row. The second input shapes that result: its bytes pick the
// state count, the runs and their row counts.
func FuzzScanResult(f *testing.F) {
	f.Add([]byte(`{"states":["x","y"],"runs":[{"seed":1,"killed":0,"rows":[{"period":0,"counts":[3,4]}]}]}`), []byte{2, 1, 3})
	f.Add([]byte(`{"states":[],"runs":[]}`), []byte{5, 3, 0, 200, 7})
	f.Add([]byte(`{"states":["],\"runs\":["],"runs":[]}`), []byte{})
	f.Fuzz(func(t *testing.T, data, shape []byte) {
		_ = scanResult(data, func(int, int64, []byte) {})

		states := []ode.Var{"x", "y", "z", "w"}[:1+int(byteAt(shape, 0))%4]
		seeds := make([]int64, 1+int(byteAt(shape, 1))%4)
		rows := make([][][]int, len(seeds))
		for run := range seeds {
			seeds[run] = int64(byteAt(shape, 2+run)) - 128
			for k := range 1 + int(byteAt(shape, 6+run))%300 {
				row := []int{k}
				for i := range states {
					row = append(row, int(byteAt(shape, 10+k+i))*(run+1))
				}
				rows[run] = append(rows[run], row)
			}
		}
		log := fillLog(states, seeds, rows)
		var got []string
		err := (&resultBlob{stored: encodeResult(log, make([]int, len(seeds)))}).canonical(func(data []byte) error {
			return scanResult(data, func(run int, seed int64, body []byte) {
				got = append(got, fmt.Sprint(run, seed, string(body)))
			})
		})
		if err != nil {
			t.Fatalf("scanResult refused encodeResult's output: %v", err)
		}
		var want []string
		for run, rs := range rows {
			for _, row := range rs {
				want = append(want, fmt.Sprint(run, seeds[run], string(appendRowBody(nil, row))))
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("scanResult visited %v, recorded %v", got, want)
		}
	})
}

// byteAt is shape[i], or 0 past its end.
func byteAt(shape []byte, i int) byte {
	if i < len(shape) {
		return shape[i]
	}
	return 0
}
