package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"odeproto/internal/store"
)

// The wire encodings of recorded rows, written by hand with
// strconv.AppendInt: the canonical result body, byte for byte what
// json.Marshal(JobResult) produces (results persisted by earlier versions
// stay valid under the same keys and ETags), and the NDJSON stream line,
// byte for byte json.Marshal(StreamRow) plus '\n'. A row's body —
// `"period":P,"counts":[a,b,…]` — is the same text in both, so a replay
// copies bodies out of the canonical bytes (scanResult) where a live
// stream renders them from the slab.

// appendRowBody renders a slab row: the period, then one count per state.
func appendRowBody(dst []byte, row []int) []byte {
	dst = append(dst, `"period":`...)
	dst = strconv.AppendInt(dst, int64(row[0]), 10)
	dst = append(dst, `,"counts":[`...)
	for i, c := range row[1:] {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(c), 10)
	}
	return append(dst, ']')
}

// appendLineHead opens an NDJSON stream line; the row body and lineEnd
// complete it.
func appendLineHead(dst []byte, run int, seed int64) []byte {
	dst = append(dst, `{"run":`...)
	dst = strconv.AppendInt(dst, int64(run), 10)
	dst = append(dst, `,"seed":`...)
	dst = strconv.AppendInt(dst, seed, 10)
	return append(dst, ',')
}

const lineEnd = "}\n"

// appendTerminalRow renders the line that ends every stream: no run, no
// counts, the job's terminal status as the event.
func appendTerminalRow(dst []byte, status Status) []byte {
	dst = append(dst, `{"run":0,"seed":0,"period":-1,"counts":null,"event":"`...)
	dst = append(dst, status...)
	return append(dst, `"`+lineEnd...)
}

// appendResult renders a finished sweep's canonical result from its row
// log; killed holds each run's crash-stop total. Every run of a finished
// sweep has recorded at least its final period, so the `null` json.Marshal
// writes for a nil slice cannot occur.
func appendResult(dst []byte, log *rowLog, killed []int) []byte {
	dst = append(dst, `{"states":[`...)
	for i, s := range log.states {
		if i > 0 {
			dst = append(dst, ',')
		}
		// json.Marshal keeps the string escaping rules (there are a handful
		// of states per result, not per row).
		name, _ := json.Marshal(string(s))
		dst = append(dst, name...)
	}
	dst = append(dst, `],"runs":[`...)
	for run, slab := range log.slabs {
		if run > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"seed":`...)
		dst = strconv.AppendInt(dst, log.seeds[run], 10)
		dst = append(dst, `,"killed":`...)
		dst = strconv.AppendInt(dst, int64(killed[run]), 10)
		dst = append(dst, `,"rows":[`...)
		for off := 0; off < len(slab); off += log.width {
			if off > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '{')
			dst = appendRowBody(dst, slab[off:off+log.width])
			dst = append(dst, '}')
		}
		dst = append(dst, "]}"...)
	}
	return append(dst, "]}"...)
}

// scratch recycles render buffers — the one appendResult grows into and
// each stream response's line buffer — so neither is reallocated, slack
// and all, per job or per request.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// encodeResult is the one encode of a finished sweep, returned in its stored
// form (store.StoredForm): the bytes the store persists and the LRU holds.
func encodeResult(log *rowLog, killed []int) []byte {
	buf := scratch.Get().(*[]byte)
	*buf = appendResult((*buf)[:0], log, killed)
	stored := store.StoredForm(*buf)
	scratch.Put(buf)
	return stored
}

// scanResult walks canonical result bytes run by run, in recorded order,
// handing fn every row's body as a view into data. Stored blobs are only
// known to be valid JSON, so any departure from the canonical shape is an
// error, never a panic. A body is checked only as far as its closing
// brace: it is copied out, not parsed.
func scanResult(data []byte, fn func(run int, seed int64, body []byte)) error {
	pos := 0
	// eat consumes lit if the input continues with it.
	eat := func(lit string) bool {
		ok := pos+len(lit) <= len(data) && string(data[pos:pos+len(lit)]) == lit
		if ok {
			pos += len(lit)
		}
		return ok
	}
	// upTo consumes through the next lit and returns what came before it.
	upTo := func(lit string) ([]byte, bool) {
		n := bytes.Index(data[pos:], []byte(lit))
		if n < 0 {
			return nil, false
		}
		head := data[pos : pos+n]
		pos += n + len(lit)
		return head, true
	}
	bad := func() error {
		return fmt.Errorf("result bytes: not a canonical result near offset %d", pos)
	}

	// A JSON string cannot hold a bare quote, so the second literal only
	// matches the real end of the states array.
	if _, ok := upTo(`],"runs":[`); !ok || !bytes.HasPrefix(data, []byte(`{"states":[`)) {
		return bad()
	}
	for run := 0; !eat("]"); run++ {
		if run > 0 && !eat(",") || !eat(`{"seed":`) {
			return bad()
		}
		digits, _ := upTo(`,"killed":`)
		seed, err := strconv.ParseInt(string(digits), 10, 64)
		if _, ok := upTo(`,"rows":[`); !ok || err != nil {
			return bad()
		}
		for n := 0; !eat("]"); n++ {
			if n > 0 && !eat(",") || !eat("{") {
				return bad()
			}
			body, ok := upTo("}")
			if !ok {
				return bad()
			}
			fn(run, seed, body)
		}
		if !eat("}") {
			return bad()
		}
	}
	if !eat("}") || pos != len(data) {
		return bad()
	}
	return nil
}
