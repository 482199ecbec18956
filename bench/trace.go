package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Spans of one op share its trace ID — the
// X-Odeproto-Trace value the client minted and the daemon journals — and
// form a tree through parent (0 marks the op's root span).
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // Unix nanoseconds
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing: the untraced phases pass nil and pay one nil check a
// call.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its ID.
func (r *recorder) add(trace string, parent int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// setEnd closes a span that was opened before its end was known (an op's
// root span is recorded first so that its children can name it).
func (r *recorder) setEnd(id int, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = end.UnixNano()
	r.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children may overlap each other
// (a client-side stream read and the daemon stage it waits on) and may
// stick out of the parent; the covered part is the union of the children
// clipped to the parent.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// rootCoverage is the median, over the op root spans, of the share of the
// root's duration that the self times of its descendants add up to: one
// minus the root's own self time over its duration. A value near one says
// the child spans account for the op.
func rootCoverage(spans []span) float64 {
	self := selfTimes(spans)
	var shares []float64
	for _, s := range spans {
		if s.Parent == 0 && s.End > s.Start {
			shares = append(shares, 1-float64(self[s.ID])/float64(s.End-s.Start))
		}
	}
	if len(shares) == 0 {
		return 0
	}
	sort.Float64s(shares)
	return shares[len(shares)/2]
}

// traceFile is the layout of bench/out/<workload>.trace.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(path, workload string, seed int64, rec *recorder) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: rec.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
