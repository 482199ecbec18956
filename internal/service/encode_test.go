package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"odeproto/internal/ode"
)

// The encoders the append encoder replaced, kept as oracles: build the
// struct form and hand it to encoding/json.

// oracleResult is the old completion encode, json.Marshal(JobResult).
func oracleResult(t testing.TB, log *rowLog, killed []int) []byte {
	t.Helper()
	res := JobResult{Runs: make([]RunResult, len(log.slabs))}
	for _, s := range log.states {
		res.States = append(res.States, string(s))
	}
	for i, slab := range log.slabs {
		run := &res.Runs[i]
		run.Seed, run.Killed = log.seeds[i], killed[i]
		for off := 0; off < len(slab); off += log.width {
			run.Rows = append(run.Rows, PeriodRow{Period: slab[off], Counts: slab[off+1 : off+log.width]})
		}
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// oracleStreamRow is the old per-row render: json.Marshal(StreamRow) plus
// the newline.
func oracleStreamRow(t testing.TB, row StreamRow) []byte {
	t.Helper()
	data, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// fillLog records rows[run] (each a period followed by counts) into a
// fresh log the way buildSweep's hook does.
func fillLog(states []ode.Var, seeds []int64, rows [][][]int) *rowLog {
	log := newRowLog(states, seeds)
	most := 0
	for _, rs := range rows {
		most = max(most, len(rs))
	}
	log.reserve(most)
	for run, rs := range rows {
		slab := log.slabs[run]
		for _, row := range rs {
			slab = append(slab, row...)
			log.publish(run, slab)
		}
	}
	return log
}

// TestAppendEncodersMatchJSON pins the append encoders to encoding/json
// byte for byte on hand-built logs: 2 to 6 states, counts of 0 and of the
// largest group the service admits, negative and extreme seeds, killed
// zero and nonzero, one run and several of unequal length.
func TestAppendEncodersMatchJSON(t *testing.T) {
	maxN := defaultLimits.MaxN
	names := []ode.Var{"x", "y", "z", "w_1", "averse", "s6"}
	for s := 2; s <= len(names); s++ {
		for _, runs := range []int{1, 3} {
			t.Run(fmt.Sprintf("S=%d/runs=%d", s, runs), func(t *testing.T) {
				seeds := []int64{7, -3, 1<<63 - 1}[:runs]
				killed := []int{0, 12345, maxN}[:runs]
				rows := make([][][]int, runs)
				for run := range rows {
					for k := 0; k < 4+run; k++ {
						row := make([]int, 1+s)
						row[0] = k * 7 // record_every 7
						for i := 1; i <= s; i++ {
							row[i] = (k*131 + i*977 + run) % 1000
						}
						row[1+k%s] = 0
						row[1+(k+1)%s] = maxN
						rows[run] = append(rows[run], row)
					}
				}
				log := fillLog(names[:s], seeds, rows)

				got := appendResult(nil, log, killed)
				if want := oracleResult(t, log, killed); !bytes.Equal(got, want) {
					t.Fatalf("canonical bytes differ from json.Marshal(JobResult):\n got %s\nwant %s", got, want)
				}
				if enc := encodeResult(log, killed); !bytes.Equal(canonicalOf(t, &resultBlob{stored: enc}), got) || cap(enc) > len(enc)+len(enc)/8+64 {
					t.Fatalf("encodeResult: %d bytes in a %d-byte buffer, want the stored form of the same bytes, exactly sized", len(enc), cap(enc))
				}
				for run, rs := range rows {
					for _, row := range rs {
						line := append(appendRowBody(appendLineHead(nil, run, seeds[run]), row), lineEnd...)
						want := oracleStreamRow(t, StreamRow{Run: run, Seed: seeds[run], Period: row[0], Counts: row[1:]})
						if !bytes.Equal(line, want) {
							t.Fatalf("stream line %q, json.Marshal gives %q", line, want)
						}
					}
				}

				// The row iterator hands back the body of every recorded row.
				var bodies, want []string
				err := scanResult(got, func(run int, seed int64, body []byte) {
					if seed != seeds[run] {
						t.Fatalf("run %d scanned with seed %d, want %d", run, seed, seeds[run])
					}
					bodies = append(bodies, fmt.Sprint(run, string(body)))
				})
				if err != nil {
					t.Fatal(err)
				}
				for run, rs := range rows {
					for _, row := range rs {
						want = append(want, fmt.Sprint(run, string(appendRowBody(nil, row))))
					}
				}
				if fmt.Sprint(bodies) != fmt.Sprint(want) {
					t.Fatalf("scanResult gave rows %v, recorded %v", bodies, want)
				}
			})
		}
	}
	for _, status := range []Status{StatusDone, StatusCancelled, StatusFailed} {
		got := appendTerminalRow(nil, status)
		if want := oracleStreamRow(t, StreamRow{Event: string(status), Period: -1}); !bytes.Equal(got, want) {
			t.Fatalf("terminal row %q, json.Marshal gives %q", got, want)
		}
	}
}

// TestScanResultRejectsNonCanonical: stored blobs are only checked with
// json.Valid, so the iterator must turn any other shape into an error
// without panicking.
func TestScanResultRejectsNonCanonical(t *testing.T) {
	good := `{"states":["x","y"],"runs":[{"seed":1,"killed":0,"rows":[{"period":0,"counts":[3,4]},{"period":1,"counts":[2,5]}]}]}`
	n := 0
	if err := scanResult([]byte(good), func(int, int64, []byte) { n++ }); err != nil || n != 2 {
		t.Fatalf("canonical input: %d rows, err %v", n, err)
	}
	bad := []string{
		``, `{}`, `null`, `[]`, `{"states":["x"]}`,
		`{"states":["x","y"],"runs":null}`,
		`{"states":["x","y"],"runs":[{"seed":1,"killed":0,"rows":null}]}`,
		`{"states":["x","y"],"runs":[{"seed":1,"killed":0,"rows":[{"period":0,"counts":[3,4]}{"period":1,"counts":[3,4]}]}]}`,
		`{"states":["x","y"],"runs":[{"seed":1,"killed":0,"rows":[{"period":0,"counts":{"x":3}}]}]}`,
		`{"states":["x","y"],"runs":[{"seed":"1","killed":0,"rows":[]}]}`,
		`{"states":["x","y"],"runs":[{"killed":0,"seed":1,"rows":[]}]}`,
		`{"states": ["x","y"], "runs": []}`,
		good + " ", good[:len(good)-1], good[:len(good)/2],
	}
	for _, in := range bad {
		if err := scanResult([]byte(in), func(int, int64, []byte) {}); err == nil {
			t.Errorf("scanResult accepted %q", in)
		}
	}
}

// readStream follows GET /v1/jobs/{id}/stream to EOF and returns its
// lines, newline included.
func readStream(t testing.TB, base, id string) [][]byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Error(err)
		return nil
	}
	defer resp.Body.Close()
	var lines [][]byte
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadBytes('\n')
		if len(line) > 0 {
			lines = append(lines, line)
		}
		if err != nil {
			return lines
		}
	}
}

// sortedLines is the multiset of stream lines in a comparable form.
func sortedLines(lines [][]byte) string {
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = string(l)
	}
	sort.Strings(out)
	return strings.Join(out, "")
}

// TestServedBytesMatchJSON runs real jobs — all four engines, one seed and
// three, a record_every that does not divide periods, kill events, a state
// that stays at 0 beside one holding the whole maximal group — and checks
// what the service serves against encoding/json: the result body equals
// json.Marshal of its own decoding, every stream line equals
// json.Marshal(StreamRow)+"\n", and the stream (followed from submission,
// then replayed after completion) carries exactly the result's rows.
func TestServedBytesMatchJSON(t *testing.T) {
	endemic := "x' = -4*x*y + 0.01*z\ny' = 4*x*y - y\nz' = y - 0.01*z"
	specs := map[string]JobSpec{
		"agent":          {Source: epidemicSource, N: 400, Initial: map[string]int{"x": 380, "y": 20}, Periods: 23, RecordEvery: 4},
		"agent-kill":     {Source: endemic, N: 300, Periods: 12, Seeds: 3, Events: []EventSpec{{At: 5, Kind: "kill", Proc: 7}}},
		"sharded":        {Source: endemic, Engine: EngineSharded, Shards: 3, N: 600, Periods: 10, RecordEvery: 3, Seeds: 3},
		"aggregate-kill": {Source: endemic, Engine: EngineAggregate, N: 90000, Periods: 50, RecordEvery: 7, Seeds: 3, Events: []EventSpec{{At: 20, Kind: "kill-fraction", Frac: 0.25}}},
		"aggregate-maxn": {Source: epidemicSource, Engine: EngineAggregate, N: defaultLimits.MaxN, Initial: map[string]int{"x": defaultLimits.MaxN}, Periods: 9, RecordEvery: 2},
		"asyncnet":       {Source: epidemicSource, Engine: EngineAsyncnet, N: 200, Initial: map[string]int{"x": 190, "y": 10}, Periods: 7, RecordEvery: 3, Seeds: 3},
	}
	_, ts := newTestServer(t, Config{Workers: 2})
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", spec)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: %d %s", resp.StatusCode, data)
			}
			id := decodeStatus(t, data).ID
			live := readStream(t, ts.URL, id)
			done := waitStatus(t, ts.URL, id, StatusDone, 30*time.Second)
			replay := readStream(t, ts.URL, id)

			_, canonical := rawGet(t, ts.URL+"/v1/results/"+done.CacheKey, nil)
			var res JobResult
			dec := json.NewDecoder(bytes.NewReader(canonical))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatal(err)
			}
			if reenc, _ := json.Marshal(res); !bytes.Equal(reenc, canonical) {
				t.Fatalf("result body is not json.Marshal(JobResult):\n got %s\nwant %s", canonical, reenc)
			}
			seeds := max(spec.Seeds, 1)
			var want [][]byte
			for ri, run := range res.Runs {
				if strings.HasSuffix(name, "-kill") != (run.Killed > 0) {
					t.Fatalf("run %d killed = %d", ri, run.Killed)
				}
				for _, row := range run.Rows {
					want = append(want, oracleStreamRow(t, StreamRow{Run: ri, Seed: run.Seed, Period: row.Period, Counts: row.Counts}))
				}
			}
			if len(res.Runs) != seeds || len(want) != done.Rows || done.Rows != seeds*len(res.Runs[0].Rows) {
				t.Fatalf("%d runs, %d rows in the result, status says %d rows", len(res.Runs), len(want), done.Rows)
			}
			if name == "aggregate-maxn" && !bytes.Contains(canonical, []byte(`"counts":[5000000,0]`)) {
				t.Fatalf("no [MaxN,0] row in %s", canonical)
			}
			want = append(want, oracleStreamRow(t, StreamRow{Event: "done", Period: -1}))
			for what, lines := range map[string][][]byte{"live": live, "replay": replay} {
				if len(lines) == 0 || !bytes.Equal(lines[len(lines)-1], want[len(want)-1]) {
					t.Fatalf("%s stream does not end with the terminal row: %q", what, lines)
				}
				if sortedLines(lines) != sortedLines(want) {
					t.Fatalf("%s stream lines differ from json.Marshal of the result's rows:\n got %q\nwant %q", what, lines, want)
				}
			}
			// A replay is the result in run order.
			if !bytes.Equal(bytes.Join(replay, nil), bytes.Join(want, nil)) {
				t.Fatal("replayed stream is not in run order")
			}
		})
	}
}
