// Package odeproto is a Go reproduction of "On the Design of Distributed
// Protocols from Differential Equations" (Indranil Gupta, ACM PODC 2004).
//
// The library translates systems of polynomial differential equations into
// executable distributed protocols (internal/core), provides the paper's
// equation taxonomy and rewriting techniques (internal/ode,
// internal/rewrite), the nonlinear-dynamics analysis toolkit
// (internal/dynamics, internal/linalg, internal/solver), the two case-study
// protocols — endemic migratory replication (internal/endemic) and
// Lotka–Volterra majority selection (internal/lv) — the epidemic motivating
// example (internal/epidemic), the simulation substrates needed to
// regenerate every figure of the paper's evaluation (internal/sim;
// internal/asyncnet, whose asynchronous system model runs by default on
// a deterministic virtual-time discrete-event scheduler with the
// goroutine-per-process wallclock runtime kept as its validation oracle;
// internal/churn, internal/replica, internal/mt19937, internal/stats,
// internal/plot), and
// the engine-agnostic experiment harness that fans those experiments out
// across cores deterministically and cancellably (internal/harness), and
// the HTTP compile-and-simulate service that exposes the whole pipeline as
// a long-running daemon with a content-addressed result cache and
// single-flight deduplication (internal/service, served by cmd/odeprotod),
// and the durable persistence layer behind it — a segmented checksummed
// WAL for job lifecycles plus fsync'd content-addressed result blobs,
// with crash recovery that truncates torn tails and re-serves completed
// sweeps across restarts (internal/store, enabled by odeprotod -data).
//
// See README.md for a package tour, a quickstart, harness usage, and the
// service's endpoint and cache semantics. The benchmarks in bench_test.go
// regenerate each experiment at reduced scale; cmd/figures regenerates
// them at paper scale.
package odeproto
