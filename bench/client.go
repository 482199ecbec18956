package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"odeproto/internal/obs"
	"odeproto/internal/service"
)

// client is one keep-alive connection to the daemon plus everything the
// generator records on it: per-class round-trip samples and, in a traced
// phase, the spans of the op in flight. A client belongs to one goroutine.
type client struct {
	base string
	hc   *http.Client
	body bytes.Buffer // the last response body; valid until the next request
	gz   bytes.Buffer // the last gzip body, decompressed
	zr   *gzip.Reader

	class        [numClasses][]time.Duration
	lastResponse time.Time // when the last response body had been read in full

	// Trace state of the op in flight (rec == nil in untraced phases).
	rec   *recorder
	seed  int64
	trace string
	root  int
	busy  time.Time   // since when the generator itself has held the op (marshalling, verifying)
	jobs  []tracedJob // daemon jobs whose stage spans are fetched after the phase
}

// tracedJob ties a daemon job to the op span that caused it.
type tracedJob struct {
	id, trace string
	root      int
}

func newClient(addr string) *client {
	return &client{
		base: "http://" + addr,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true, // gzip is requested and checked explicitly
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// beginOp opens the op's root span at its due instant. Its children
// account for all of it: odeload.wait is the time the op waited for its
// connection, odeload.client the generator's own work between responses
// (building requests, verifying bodies), http.<class> each round trip.
func (c *client) beginOp(i int, due, begin time.Time) {
	if c.rec == nil {
		return
	}
	c.trace = traceID(c.seed, i)
	c.root = c.rec.add(c.trace, 0, "op", due, begin)
	if begin.After(due) {
		c.rec.add(c.trace, c.root, "odeload.wait", due, begin)
	}
	c.busy = begin
}

func (c *client) endOp(end time.Time) { c.rec.setEnd(c.root, end) }

// observe records one sample of a class that spans several requests (a
// whole job of a sweep-sim campaign).
func (c *client) observe(cls int, start time.Time) {
	c.class[cls] = append(c.class[cls], c.lastResponse.Sub(start))
}

// do sends one request, reads the whole response body into c.body, and
// records the round trip under cls. 429 and 5xx are failures: a refused
// request misses any latency limit.
func (c *client) do(cls int, method, path string, reqBody []byte, hdr ...string) (*http.Response, error) {
	var rd io.Reader
	if reqBody != nil {
		rd = bytes.NewReader(reqBody)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	for k := 0; k+1 < len(hdr); k += 2 {
		req.Header.Set(hdr[k], hdr[k+1])
	}
	if c.rec != nil {
		req.Header.Set(obs.TraceHeader, c.trace)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	c.lastResponse = time.Now()
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	c.class[cls] = append(c.class[cls], c.lastResponse.Sub(start))
	if c.rec != nil {
		c.rec.add(c.trace, c.root, "odeload.client", c.busy, start)
		c.rec.add(c.trace, c.root, "http."+classNames[cls], start, c.lastResponse)
		c.busy = c.lastResponse
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
		return nil, fmt.Errorf("%s %s: refused with %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(c.body.Bytes()))
	}
	return resp, nil
}

// submitted is the part of a POST /v1/jobs answer the generator reads.
type submitted struct {
	ID       string         `json:"id"`
	Status   service.Status `json:"status"`
	CacheKey string         `json:"cache_key"`
	Cached   bool           `json:"cached"`
	Trace    string         `json:"trace"`
}

// submit POSTs a job. The daemon answers 202 for a queued job and 200 for
// one that is already done — which a fresh tiny job can be by the time the
// handler snapshots it — so fresh and duplicate submits are told apart by
// the cached field, never by the status code.
func (c *client) submit(cls int, spec []byte, wantCached bool) (submitted, error) {
	var st submitted
	resp, err := c.do(cls, http.MethodPost, "/v1/jobs", spec)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return st, fmt.Errorf("submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(c.body.Bytes()))
	}
	if err := json.Unmarshal(c.body.Bytes(), &st); err != nil {
		return st, fmt.Errorf("submit: %w", err)
	}
	if st.Cached != wantCached {
		return st, fmt.Errorf("submit: job %s cached=%v, want %v", st.ID, st.Cached, wantCached)
	}
	if c.rec != nil {
		if st.Trace != c.trace {
			return st, fmt.Errorf("submit: job %s carries trace %q, sent %q", st.ID, st.Trace, c.trace)
		}
		c.jobs = append(c.jobs, tracedJob{id: st.ID, trace: c.trace, root: c.root})
	}
	return st, nil
}

// stream reads GET /v1/jobs/{id}/stream to EOF and checks it: wantRows
// recorded rows, each summing to n processes, then the terminal "done".
func (c *client) stream(cls int, id string, n, wantRows int) error {
	resp, err := c.do(cls, http.MethodGet, "/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream %s: status %d", id, resp.StatusCode)
	}
	data := c.body.Bytes()
	if !bytes.HasSuffix(data, []byte(`"event":"done"}`+"\n")) {
		return fmt.Errorf("stream %s: no terminal done row (tail %q)", id, tail(data, 80))
	}
	return checkCounts(data, n, wantRows)
}

// result GETs a result by key, optionally negotiating gzip, checks the
// validators, and returns the identity bytes (valid until the client's
// next request).
func (c *client) result(cls int, key string, gzipped bool) ([]byte, error) {
	hdr := []string{"Accept-Encoding", "identity"}
	if gzipped {
		hdr[1] = "gzip"
	}
	resp, err := c.do(cls, http.MethodGet, "/v1/results/"+key, nil, hdr...)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result %s: status %d", key[:12], resp.StatusCode)
	}
	if got := resp.Header.Get("ETag"); got != `"`+key+`"` {
		return nil, fmt.Errorf("result %s: ETag %q", key[:12], got)
	}
	if cl, _ := strconv.Atoi(resp.Header.Get("Content-Length")); cl != c.body.Len() {
		return nil, fmt.Errorf("result %s: Content-Length %d, body %d", key[:12], cl, c.body.Len())
	}
	if !gzipped {
		return c.body.Bytes(), nil
	}
	if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
		return nil, fmt.Errorf("result %s: asked for gzip, got Content-Encoding %q", key[:12], enc)
	}
	if c.zr == nil {
		c.zr = new(gzip.Reader)
	}
	if err := c.zr.Reset(bytes.NewReader(c.body.Bytes())); err != nil {
		return nil, fmt.Errorf("result %s: gzip header: %w", key[:12], err)
	}
	c.gz.Reset()
	if _, err := c.gz.ReadFrom(c.zr); err != nil {
		return nil, fmt.Errorf("result %s: gunzip: %w", key[:12], err)
	}
	return c.gz.Bytes(), nil
}

// notModified revalidates a result: the answer must be a bodiless 304
// carrying the same strong ETag.
func (c *client) notModified(key string) error {
	etag := `"` + key + `"`
	resp, err := c.do(clsResult304, http.MethodGet, "/v1/results/"+key, nil, "If-None-Match", etag)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusNotModified || c.body.Len() != 0 || resp.Header.Get("ETag") != etag {
		return fmt.Errorf("revalidate %s: status %d, %d body bytes, ETag %q",
			key[:12], resp.StatusCode, c.body.Len(), resp.Header.Get("ETag"))
	}
	return nil
}

// status GETs a finished job: it must be done and carry the canonical
// result bytes spliced in verbatim.
func (c *client) status(id string, canonical []byte) error {
	resp, err := c.do(clsStatus, http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s: %d", id, resp.StatusCode)
	}
	data := c.body.Bytes()
	if !bytes.Contains(data, []byte(`"status":"done"`)) || !bytes.Contains(data, canonical) {
		return fmt.Errorf("status %s: not done or result bytes differ from the canonical encoding", id)
	}
	return nil
}

// checkCounts scans data — a result body or an NDJSON stream — for every
// "counts":[…] array and checks that there are wantRows of them and that
// each sums to n: no process is lost or invented in any recorded period.
// A hand scan, not encoding/json: sweep-rows reads 20 000 rows an op, and
// a decoder would cost the generator more CPU than the engine costs the
// daemon.
func checkCounts(data []byte, n, wantRows int) error {
	marker := []byte(`"counts":[`)
	rows := 0
	for {
		k := bytes.Index(data, marker)
		if k < 0 {
			break
		}
		data = data[k+len(marker):]
		sum, v, digits, closed := 0, 0, false, false
	scan:
		for j, ch := range data {
			switch {
			case ch >= '0' && ch <= '9':
				v, digits = v*10+int(ch-'0'), true
			case ch == ',' || ch == ']':
				if !digits {
					return fmt.Errorf("row %d: malformed counts", rows)
				}
				sum, v, digits = sum+v, 0, false
				if ch == ']' {
					data, closed = data[j:], true
					break scan
				}
			default:
				return fmt.Errorf("row %d: unexpected %q in counts", rows, ch)
			}
		}
		if !closed {
			return fmt.Errorf("row %d: counts array is cut short", rows)
		}
		if sum != n {
			return fmt.Errorf("row %d: counts sum to %d, want %d", rows, sum, n)
		}
		rows++
	}
	if rows != wantRows {
		return fmt.Errorf("%d rows, want %d", rows, wantRows)
	}
	return nil
}

func tail(data []byte, n int) []byte {
	if len(data) > n {
		return data[len(data)-n:]
	}
	return data
}
