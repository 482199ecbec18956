package main

import (
	"fmt"
	"math/rand"

	"odeproto/internal/service"
)

// Every input the daemon sees is generated here from the run's -seed: the
// same seed gives the same requests in the same order, and the daemon
// receives nothing but the generated requests.

// system is one entry of the tiny-job catalogue submit-small draws from.
type system struct {
	name   string
	source string
	// grid names the parameter drawn from the 4096-value grid over
	// (lo, hi]; fixed holds the remaining parameters.
	grid   string
	lo, hi float64
	fixed  map[string]float64
	// vars and fracs give the starting fractions of the source variables;
	// a slack state added by the §7 rewrite starts empty.
	vars  []string
	fracs []float64
}

const endemicSource = "x' = -beta*x*y + alpha*z\ny' = beta*x*y - gamma*y\nz' = gamma*y - alpha*z"

// catalogue holds the four systems of submit-small. The first two are
// mappable as written; lv and pool are incomplete, so every submit of
// them runs the §7 rewrite (rewrite.MakeMappable) before translation.
// pool is the recruit/retire model of examples/custom-ode made
// homogeneous: that example's constant term needs rewrite.ExpandConstants,
// which the daemon's compile pipeline does not apply (it answers 400).
var catalogue = []system{
	{name: "epidemic", source: "x' = -b*x*y\ny' = b*x*y", grid: "b", lo: 0.5, hi: 1,
		vars: []string{"x", "y"}, fracs: []float64{0.9, 0.1}},
	{name: "endemic", source: endemicSource, grid: "beta", lo: 2, hi: 4,
		fixed: map[string]float64{"gamma": 1, "alpha": 0.01},
		vars:  []string{"x", "y"}, fracs: []float64{0.9, 0.1}},
	{name: "lv", source: "x' = r*x - r*x^2 - 2*r*x*y\ny' = r*y - r*y^2 - 2*r*x*y", grid: "r", lo: 1.5, hi: 3,
		vars: []string{"x", "y"}, fracs: []float64{0.6, 0.4}},
	{name: "pool", source: "a' = -d*a*w + 0.1*w\nw' = d*a*w - 0.15*w", grid: "d", lo: 0.2, hi: 0.6,
		vars: []string{"a", "w"}, fracs: []float64{0.8, 0.2}},
}

const gridSize = 4096

// mix is the splitmix64 finaliser over (seed, i): op i of a run draws its
// inputs from this hash, so an op's request does not depend on which
// connection happens to send it.
func mix(seed int64, i int) uint64 {
	z := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// jobSeed gives op i (job j of it) an RNG seed no other job of the run
// shares, so every generated job misses the daemon's result cache.
func jobSeed(seed int64, i, j int) int64 {
	return (seed%1000+1)*1_000_000_000 + int64(i)*8 + int64(j) + 1
}

// initial splits n processes over vars by fracs, remainder on the first.
func initial(vars []string, fracs []float64, n int) map[string]int {
	out := make(map[string]int, len(vars))
	left := n
	for k, v := range vars {
		c := int(fracs[k] * float64(n))
		out[v] = c
		left -= c
	}
	out[vars[0]] += left
	return out
}

// tinySpec is op i of submit-small: N=300, 20 periods, a catalogue system
// with one parameter drawn from the grid, so the daemon's compile memo
// (256 entries) misses on nearly every submit.
func tinySpec(seed int64, i int) service.JobSpec {
	h := mix(seed, i)
	sys := catalogue[h%uint64(len(catalogue))]
	k := (h >> 8) % gridSize
	params := map[string]float64{sys.grid: sys.lo + (sys.hi-sys.lo)*float64(k+1)/gridSize}
	for name, v := range sys.fixed {
		params[name] = v
	}
	const n = 300
	return service.JobSpec{
		Source: sys.source, Params: params,
		N: n, Periods: 20, Initial: initial(sys.vars, sys.fracs, n),
		Seed: jobSeed(seed, i, 0),
	}
}

// endemicSpec is the paper's endemic protocol (β=4, γ=1, α=0.01, 90/10/0 %
// start) on the given engine; the sweep workloads and the read-mix preload
// vary only engine, size and seed.
func endemicSpec(engine string, n, periods int, seed int64) service.JobSpec {
	return service.JobSpec{
		Source:  endemicSource,
		Params:  map[string]float64{"beta": 4, "gamma": 1, "alpha": 0.01},
		Engine:  engine,
		N:       n,
		Periods: periods,
		Initial: initial([]string{"x", "y"}, []float64{0.9, 0.1}, n),
		Seed:    seed,
	}
}

// Sizes of the sweep workloads, frozen here: changing one changes what
// sweep-sim and sweep-rows measure and restarts their trajectory.
const (
	simN             = 100_000
	simAgentPeriods  = 12 // job A, seeds=2
	simShardPeriods  = 20 // job B, shards=4
	simAsyncN        = 5_000
	simAsyncPeriods  = 12 // job C
	rowsN            = 1_000_000
	rowsPeriods      = 20_000
	readKeys         = 1024 // 4 × the daemon's default -cache 256
	readPreloadN     = 2000
	readPreloadSteps = 400
)

// simJobs is one sweep-sim campaign: the three engines back to back.
func simJobs(seed int64, i int) [3]service.JobSpec {
	a := endemicSpec(service.EngineAgent, simN, simAgentPeriods, jobSeed(seed, i, 0))
	a.Seeds = 2
	b := endemicSpec(service.EngineAgent, simN, simShardPeriods, jobSeed(seed, i, 1))
	b.Shards = 4
	c := endemicSpec(service.EngineAsyncnet, simAsyncN, simAsyncPeriods, jobSeed(seed, i, 2))
	return [3]service.JobSpec{a, b, c}
}

// rowsSpec is op i of sweep-rows: 20 000 recorded rows from the aggregate
// engine, whose own work is about a microsecond a period.
func rowsSpec(seed int64, i int) service.JobSpec {
	return endemicSpec(service.EngineAggregate, rowsN, rowsPeriods, jobSeed(seed, i, 0))
}

// preloadSpec is key k of the read-mix working set (≈15 KB of result).
func preloadSpec(seed int64, k int) service.JobSpec {
	return endemicSpec(service.EngineAggregate, readPreloadN, readPreloadSteps, jobSeed(seed, k, 0))
}

// Request classes: the per-class latency split of the generator.
const (
	clsSubmit = iota
	clsStream
	clsResult
	clsResultGzip
	clsResult304
	clsStatus
	clsStreamReplay
	clsDupSubmit
	clsJobAgent
	clsJobSharded
	clsJobAsyncnet
	numClasses
)

var classNames = [numClasses]string{
	"submit", "stream", "result", "result_gzip", "result_304", "status",
	"stream_replay", "dup_submit", "job_agent", "job_sharded", "job_asyncnet",
}

// readCycle is the read-mix class mix in twentieths: 35 % plain result
// GET, 15 % gzip, 20 % If-None-Match, 15 % status, 5 % stream replay,
// 10 % duplicate POST. A fixed cycle (shuffled by the seed) instead of
// independent draws makes each class's share exact, so fsyncs_per_op — one
// WAL record per duplicate POST — repeats exactly across seeds.
var readCycle = [20]int{
	clsResult, clsResult, clsResult, clsResult, clsResult, clsResult, clsResult,
	clsResultGzip, clsResultGzip, clsResultGzip,
	clsResult304, clsResult304, clsResult304, clsResult304,
	clsStatus, clsStatus, clsStatus,
	clsStreamReplay,
	clsDupSubmit, clsDupSubmit,
}

// readReq is one read-mix request: a class and the index of its key.
type readReq struct {
	class int
	key   int
}

// replayWindow: a stream replay targets one of this many newest preloaded
// jobs. The restarted daemon re-attaches a result only to the 256 jobs
// whose blobs it warmed; for any older recovered job it replays just the
// terminal row (service.rowBuffer.replayBlob with a nil blob), so a replay
// of a cold job would carry no rows to check.
const replayWindow = 128

// readPlan draws n read-mix requests: keys Zipf(s=1.1) over a seeded
// permutation of the nKeys preloaded results, classes from the shuffled
// cycle. With the working set 4 × the daemon's LRU the head of the
// distribution is served from memory and the tail streams from disk.
func readPlan(seed int64, nKeys, n int) []readReq {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(nKeys)
	cycle := readCycle
	rng.Shuffle(len(cycle), func(a, b int) { cycle[a], cycle[b] = cycle[b], cycle[a] })
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(nKeys-1))
	plan := make([]readReq, n)
	for i := range plan {
		plan[i] = readReq{class: cycle[i%len(cycle)], key: perm[zipf.Uint64()]}
		if plan[i].class == clsStreamReplay {
			plan[i].key = nKeys - 1 - plan[i].key%replayWindow
		}
	}
	return plan
}

// traceID mints the client-side trace ID of op i: 32 lowercase hex
// digits, the shape the daemon accepts in X-Odeproto-Trace.
func traceID(seed int64, i int) string {
	return fmt.Sprintf("%016x%016x", uint64(seed), uint64(i)+1)
}
