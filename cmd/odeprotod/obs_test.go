package main

import (
	"bytes"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"odeproto/internal/obs"
)

// TestRecoveringHandler pins the readiness distinction: until the real
// mux is swapped in, every endpoint — healthz included — answers 503
// {"status":"recovering"}, so cluster probers (which require a 200)
// keep the node marked down while WAL replay and cache warming run.
func TestRecoveringHandler(t *testing.T) {
	sw := newSwitchHandler(recoveringHandler())
	for _, path := range []string{"/v1/healthz", "/v1/jobs", "/metrics"} {
		rec := httptest.NewRecorder()
		sw.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("GET %s while recovering: %d, want 503", path, rec.Code)
		}
		if body := rec.Body.String(); !strings.Contains(body, `"recovering"`) {
			t.Fatalf("recovering body %q does not say so", body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("recovering content type %q", ct)
		}
	}

	sw.swap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{"status":"ok"}`))
	}))
	rec := httptest.NewRecorder()
	sw.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz after swap: %d, want 200", rec.Code)
	}
}

// TestDebugListener boots the daemon with -debug-addr and checks that
// pprof and expvar answer there — and only there: the public listener
// must not expose them.
func TestDebugListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dbgAddr := ln.Addr().String()
	ln.Close()

	base := startDaemon(t, "-debug-addr", dbgAddr)

	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("http://" + dbgAddr + "/debug/vars"); code != http.StatusOK ||
		!strings.Contains(body, "memstats") {
		t.Fatalf("expvar on the debug listener: %d %.80s", code, body)
	}
	if code, body := get("http://" + dbgAddr + "/debug/pprof/"); code != http.StatusOK ||
		!strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index on the debug listener: %d %.80s", code, body)
	}

	// The public listener serves the API, never the debug surface.
	if code, _ := get(base + "/debug/vars"); code != http.StatusNotFound {
		t.Fatalf("expvar leaked onto the public listener: %d", code)
	}
	if code, _ := get(base + "/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("pprof leaked onto the public listener: %d", code)
	}
}

// TestLogLevelContract pins the -log-level surface: the flag's "info"
// default maps to slog.LevelInfo (so debug lines stay off unless asked
// for), every documented level parses, and anything else is an error
// the daemon refuses to start on.
func TestLogLevelContract(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"warn": slog.LevelWarn, "error": slog.LevelError,
		"INFO": slog.LevelInfo, // case-insensitive
	}
	for in, want := range cases {
		got, err := obs.ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := obs.ParseLevel("verbose"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}

	// The default level suppresses debug records and passes info.
	var buf bytes.Buffer
	level, _ := obs.ParseLevel("info")
	logger := obs.NewLeveledLogger(&buf, "n1", level)
	logger.Debug("hidden")
	logger.Info("shown")
	out := buf.String()
	if strings.Contains(out, "hidden") || !strings.Contains(out, "shown") {
		t.Fatalf("info-level logger output:\n%s", out)
	}

	buf.Reset()
	level, _ = obs.ParseLevel("error")
	logger = obs.NewLeveledLogger(&buf, "n1", level)
	logger.Warn("hidden")
	logger.Error("shown")
	out = buf.String()
	if strings.Contains(out, "hidden") || !strings.Contains(out, "shown") {
		t.Fatalf("error-level logger output:\n%s", out)
	}
}
