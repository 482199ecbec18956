// Command odeprotod serves the full paper pipeline — parse ODEs, rewrite
// to mappable form (§7), translate to a distributed protocol (§3/§6), and
// simulate at scale (§5) — as a long-running HTTP/JSON daemon with a
// bounded job queue, a worker pool, and a content-addressed result cache
// (see internal/service).
//
// Usage:
//
//	odeprotod -addr :8080
//	odeprotod -addr 127.0.0.1:9090 -workers 4 -queue 128 -cache 512
//	odeprotod -data /var/lib/odeprotod -resume-interrupted
//
// With -data, job lifecycle transitions are journaled to a segmented,
// CRC-checksummed WAL and completed results are persisted as
// content-addressed blobs (internal/store), so a restarted daemon
// recovers its job list, warms the result cache from disk, and serves
// previously computed sweeps without re-simulating (see README.md
// "Durability"). The WAL compacts itself as jobs age out past
// -retain-jobs, so what a restart replays is bounded by that flag, not by
// uptime. -cache and -retain-jobs bound the daemon's memory (see
// README.md "Memory model"): result bytes live only in the LRU, and
// terminal jobs age out of the job table beyond -retain-jobs.
// While recovery runs, every endpoint — including GET /v1/healthz —
// answers 503 {"status":"recovering"}, so cluster probers don't route to
// a node that can't serve results yet.
//
// With -peers, the daemon joins a static cluster: every node runs the
// identical peer list, any node accepts any request, and a
// consistent-hash ring over the job's content address routes each
// request to its owner (see internal/cluster and README.md "Running a
// cluster"):
//
//	odeprotod -addr :8080 -peers host1:8080,host2:8080,host3:8080 -self host1:8080
//
// Observability (README.md "Observability"): Prometheus-format metrics
// with per-bucket trace-ID exemplars at GET /metrics, per-job lifecycle
// traces at GET /v1/jobs/{id}/trace (rendered as a waterfall SVG at
// /trace.svg), burn-rate SLO evaluation at GET /v1/slo (one compiled-in
// policy: job latency and job error rate), JSON structured logs on
// stderr filtered by -log-level, and — with -debug-addr — net/http/pprof
// and expvar on a separate listener kept off the public port.
//
// Quick tour (see README.md "Running the service" for the full schema):
//
//	curl -s localhost:8080/v1/healthz
//	curl -s localhost:8080/v1/compile -d '{"source": "x'"'"' = -x*y\ny'"'"' = x*y"}'
//	curl -s localhost:8080/v1/jobs -d '{"source": "x'"'"' = -x*y\ny'"'"' = x*y", "n": 10000, "periods": 50}'
//	curl -s localhost:8080/v1/jobs/j000001
//	curl -s localhost:8080/v1/jobs/j000001/trace
//	curl -s localhost:8080/v1/jobs/j000001/figure.svg
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"odeproto/internal/cluster"
	"odeproto/internal/obs"
	"odeproto/internal/service"
	"odeproto/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "odeprotod:", err)
		os.Exit(1)
	}
}

// switchHandler is an atomically swappable http.Handler. The daemon
// serves it from the first moment the listener is open: a "recovering"
// handler answers 503 while WAL replay and cache warming run, then the
// real mux is swapped in before ready is signaled. Cluster probers treat
// the 503 as down and keep routing around the node until it can serve.
type switchHandler struct {
	h atomic.Value // http.Handler
}

func newSwitchHandler(initial http.Handler) *switchHandler {
	sw := &switchHandler{}
	sw.h.Store(&initial)
	return sw
}

func (sw *switchHandler) swap(h http.Handler) { sw.h.Store(&h) }

func (sw *switchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*sw.h.Load().(*http.Handler)).ServeHTTP(w, r)
}

// recoveringHandler answers every request — healthz included — with 503
// so load balancers and peers back off until recovery finishes.
func recoveringHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"status":"recovering"}` + "\n"))
	})
}

// debugHandler serves pprof and expvar. It is only ever mounted on the
// -debug-addr listener, never the public one: profiles can stall the
// process and expvar exposes memory internals.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// run starts the daemon and blocks until the context is cancelled or the
// listener fails. When ready is non-nil, the bound address is sent on it
// once the server is accepting connections and recovery has finished
// (the end-to-end tests listen on 127.0.0.1:0 and need the resolved
// port).
func run(ctx context.Context, args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("odeprotod", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "HTTP listen address")
		workers      = fs.Int("workers", 2, "jobs simulated concurrently")
		queue        = fs.Int("queue", 64, "bounded job-queue depth (full queue = 503)")
		cacheSize    = fs.Int("cache", 256, "in-memory result cache (LRU), the only holder of result bytes: at most this many results and this many × 256 KiB")
		retainJobs   = fs.Int("retain-jobs", 65536, "terminal jobs kept in the job table and the store's index; older ones age out (410 Gone; results stay addressable by cache_key)")
		maxN         = fs.Int("max-n", 0, "per-job group-size limit (0 = service default)")
		maxPeriods   = fs.Int("max-periods", 0, "per-job period limit (0 = service default)")
		dataDir      = fs.String("data", "", "durable data directory: WAL-journaled jobs + persisted results (empty = in-memory only)")
		resumeInterr = fs.Bool("resume-interrupted", false, "resubmit jobs the previous process left queued or mid-run (specs are recovered from the WAL)")
		peersFlag    = fs.String("peers", "", "comma-separated static cluster peer list (host:port, this node included); every node must be started with the identical list")
		selfFlag     = fs.String("self", "", "this node's entry in -peers (default: inferred from the bound listen address)")
		debugAddr    = fs.String("debug-addr", "", "serve net/http/pprof and expvar on this separate address (empty = off); never expose it publicly")
		logLevel     = fs.String("log-level", "info", "minimum structured-log level: debug, info, warn, or error")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; exit 0 like the old flag.Parse behavior
		}
		return err
	}

	if *retainJobs <= *queue+*workers {
		// Everything in flight can finish after the newest job does; with
		// room for all of it the highest ID issued never ages out, so a
		// compacted WAL always tells a restart where to continue numbering.
		return fmt.Errorf("-retain-jobs %d must exceed -queue + -workers (%d)", *retainJobs, *queue+*workers)
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}

	// Listen before building the service: cluster membership infers this
	// node's identity from the bound port (":0" in tests resolves here).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close() // idempotent; Serve/Shutdown normally close it first

	var peerList []string
	self, idPrefix := "", ""
	if *peersFlag != "" {
		peerList, err = cluster.NormalizePeers(strings.Split(*peersFlag, ","))
		if err != nil {
			return err
		}
		self = *selfFlag
		if self == "" {
			if self, err = inferSelf(peerList, ln.Addr()); err != nil {
				return err
			}
		}
		if idPrefix, err = cluster.NodePrefix(peerList, self); err != nil {
			return err
		}
	}

	// One registry and one logger for the whole process: service, store,
	// and cluster record into the same /metrics namespace, and every log
	// line carries the node name.
	node := self
	if node == "" {
		node = ln.Addr().String()
	}
	reg := obs.NewRegistry()
	logger := obs.NewLeveledLogger(os.Stderr, node, level)

	// Accept connections immediately, answering 503 "recovering" until
	// the store has replayed its WAL and the service is built; then the
	// real handler is swapped in. A restarted node is thus always
	// reachable (healthz answers) but never serves half-recovered state.
	sw := newSwitchHandler(recoveringHandler())
	httpSrv := &http.Server{Handler: sw}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fail := func(err error) error {
		httpSrv.Close()
		return err
	}

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fail(fmt.Errorf("debug listener: %w", err))
		}
		dbgSrv := &http.Server{Handler: debugHandler()}
		go func() { _ = dbgSrv.Serve(dln) }()
		defer dbgSrv.Close()
		logger.Info("debug listener serving pprof and expvar", "debug_addr", dln.Addr().String())
	}

	var backend store.Store
	if *dataDir != "" {
		fst, err := store.Open(*dataDir, store.Options{})
		if err != nil {
			return fail(fmt.Errorf("opening data dir %s: %w", *dataDir, err))
		}
		defer fst.Close() // after srv.Close below: shutdown journals queued-job cancellations
		st := fst.Stats()
		logger.Info("recovered store", "dir", *dataDir, "jobs", st.RecoveredJobs,
			"wal_records", st.LogRecords, "wal_segments", st.WALSegments, "tail_truncations", st.TailTruncations)
		backend = fst
	}

	srv := service.New(service.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		CacheSize:         *cacheSize,
		RetainJobs:        *retainJobs,
		Limits:            service.Limits{MaxN: *maxN, MaxPeriods: *maxPeriods},
		Store:             backend,
		ResumeInterrupted: *resumeInterr,
		JobIDPrefix:       idPrefix,
		Metrics:           reg,
		Logger:            logger,
		Node:              node,
	})
	defer srv.Close()

	handler := http.Handler(srv.Handler())
	if len(peerList) > 0 {
		router, err := cluster.New(cluster.Config{
			Peers: peerList, Self: self, Service: srv,
			Metrics: reg, Logger: logger,
		})
		if err != nil {
			return fail(err)
		}
		defer router.Close()
		handler = router
	}

	sw.swap(handler)
	logger.Info("serving", "addr", ln.Addr().String(),
		"workers", *workers, "queue", *queue, "cache", *cacheSize, "retain_jobs", *retainJobs)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	return waitShutdown(ctx, errc, httpSrv, srv, logger)
}

// waitShutdown blocks until the listener fails or the context is
// cancelled, then drains in-flight work in dependency order.
func waitShutdown(ctx context.Context, errc <-chan error, httpSrv *http.Server, srv *service.Server, logger *slog.Logger) error {
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Cancel in-flight jobs first so open /stream responses terminate,
		// then drain the HTTP server.
		srv.Close()
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shCtx); err != nil {
			return err
		}
		logger.Info("shut down")
		return nil
	}
}

// inferSelf picks this node's entry in the normalized peer list by
// matching the bound listener's port — and host, when both sides commit
// to one — so single-host clusters (distinct ports on loopback) need no
// -self flag. Ambiguity (several peers sharing the bound port, the
// normal shape for a multi-host cluster) is an error directing the
// operator to -self rather than a guess.
func inferSelf(peers []string, bound net.Addr) (string, error) {
	tcp, ok := bound.(*net.TCPAddr)
	if !ok {
		return "", fmt.Errorf("cannot infer -self from listener address %v; pass -self", bound)
	}
	boundPort := strconv.Itoa(tcp.Port)
	var matches []string
	for _, p := range peers {
		host, port, err := net.SplitHostPort(p)
		if err != nil || port != boundPort {
			continue
		}
		ip := net.ParseIP(host)
		switch {
		case tcp.IP.IsUnspecified():
			// Bound to all interfaces: any host with this port could be us.
			matches = append(matches, p)
		case ip != nil && ip.Equal(tcp.IP):
			matches = append(matches, p)
		case host == "localhost" && tcp.IP.IsLoopback():
			matches = append(matches, p)
		}
	}
	switch len(matches) {
	case 1:
		return matches[0], nil
	case 0:
		return "", fmt.Errorf("no -peers entry matches the bound address %s; pass -self", bound)
	default:
		return "", fmt.Errorf("bound address %s matches %d -peers entries (%s); pass -self",
			bound, len(matches), strings.Join(matches, ", "))
	}
}
