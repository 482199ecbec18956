package service

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"odeproto/internal/obs"
)

// scrapeMetrics fetches and parses GET /metrics.
func scrapeMetrics(t *testing.T, base string) map[string]*obs.MetricFamily {
	t.Helper()
	resp, data := doJSON(t, http.MethodGet, base+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	fams, err := obs.ParseExposition(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("malformed exposition: %v\n%s", err, data)
	}
	return fams
}

func sampleValue(t *testing.T, fams map[string]*obs.MetricFamily, name string, labels map[string]string) float64 {
	t.Helper()
	fam, ok := fams[strings.TrimSuffix(strings.TrimSuffix(name, "_count"), "_sum")]
	if !ok {
		fam, ok = fams[name]
	}
	if !ok {
		t.Fatalf("family %s not exposed", name)
	}
	v, ok := fam.Value(name, labels)
	if !ok {
		t.Fatalf("no sample %s%v in family %s", name, labels, fam.Name)
	}
	return v
}
