// Package lint implements odelint, the in-house static-analysis suite
// that enforces this repository's determinism, error-checking and
// concurrency contracts at compile time.
//
// The suite is self-contained: it is built on go/ast, go/types, and the
// gc export-data importer from the standard library only (the vendored
// golang.org/x/tools analysis framework is deliberately not a
// dependency), with a loader that shells out to `go list -export` to
// resolve stdlib and sibling-package type information. The public
// surface mirrors the x/tools framework — Analyzer, Pass, Diagnostic —
// so analyzers could migrate to it mechanically if the dependency ever
// lands.
//
// # Contracts enforced
//
// determinism — the simulation core (internal/sim, internal/harness,
// internal/asyncnet, internal/mt19937, internal/stats) must be a pure
// function of the job spec and seed. Wall-clock reads (time.Now,
// time.Since), the process-global math/rand source, map iteration whose
// order can reach output (slice appends, RNG draws, stream writes,
// float accumulation, early returns naming the key), and goroutine
// fan-in that merges results in completion order are all flagged. The
// sorted-keys idiom (collect keys, sort, range the slice) and
// indexed-slot fan-in (results[i] = ...) are the blessed alternatives.
//
// closecheck — errors from Close/Sync on writable *os.File handles and
// Close/Flush on buffered writers must be checked: the kernel and the
// buffer are allowed to defer the failing write into exactly those
// calls. Unchecked http.ResponseWriter writes inside streaming loops
// are flagged in the serving packages. Assigning to _ is the accepted
// explicit-discard idiom for error-path cleanup. Its first run found
// eight unchecked store Closes, among them the flock release that
// FileStore.Close now reports.
//
// noblocklock — the request-serving packages (internal/service,
// internal/cluster) must not perform network/disk I/O, store calls, or
// blocking channel operations while holding a mutex. Select-with-default
// try-sends are allowed; function literals are assumed to run outside
// the lock hold. No finding of its own is on record; nothing else guards
// this contract.
//
// Cache-key completeness and fsync ordering are behavioural tests, not
// analyzers: TestCacheKeyCoversEverySpecField in internal/service;
// TestCrashAtEveryOperation in internal/store (a crash before every
// filesystem call, a failure at every write, sync, close and rename) and
// TestEveryTerminalPath in internal/service (a result's blob is stored
// before its done record).
//
// # Suppression
//
// A finding is suppressed by a directive on the flagged line or the
// line above:
//
//	//lint:ignore <analyzer>[,<analyzer>|*] <reason>
//
// The reason is mandatory; a directive without one is itself reported.
// There is no blanket off switch — every exemption is a reviewable,
// justified line in the diff.
//
// The suite runs via cmd/odelint (go run ./cmd/odelint ./...) and is a
// required CI step next to go vet.
package lint
