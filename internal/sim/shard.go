package sim

import (
	"math/rand"
	"runtime"
	"sync"

	"odeproto/internal/mt19937"
)

// Sharded execution (Config.Shards = K > 1): the deferred mode of the
// interpreter in engine.go.
//
// The N processes are partitioned into K contiguous shards. Each shard
// owns a Mersenne Twister stream derived from (Config.Seed, shard index)
// with mt19937.DeriveSeed, so the K streams are decorrelated and depend
// only on the configuration — never on scheduling. A period then runs in
// two phases:
//
//  1. Action phase, parallel across a worker pool of min(K, GOMAXPROCS)
//     goroutines: every shard runs the interpreter over its own processes
//     against the shared period-start snapshot. Observations (sampling contacts) read the snapshot, which
//     is immutable during the phase, so any process may be observed.
//     Mutations are confined to shard-owned memory: a shard writes
//     state/moved only for its own index range and accumulates count
//     deltas, transition tallies, and message counters in its own context.
//     Effects that would cross a shard boundary — a Push landing on
//     another shard's process, or a token (whose candidate pool spans the
//     whole group) — are recorded as intents instead of applied.
//
//  2. Barrier, serial: shard accumulators merge in shard order, buffered
//     cross-shard pushes are re-checked against the live state and
//     applied, and token intents are delivered by the ordinary oracle
//     (or TTL random walk) using a dedicated barrier stream, again in
//     shard order. OnTransition hooks recorded during the action phase
//     replay here, so user hooks always run on one goroutine.
//
// Because phase 1 shards touch disjoint memory and phase 2 is a fixed
// serial order, the result for a given (Seed, Shards) is byte-identical at
// any GOMAXPROCS — the same contract harness.Sweep gives jobs.
//
// Intra-shard pushes see in-period state as an inline period does, while
// cross-shard pushes draw their coin against the snapshot and are applied
// at the barrier, and all tokens resolve at the barrier; pinned
// expectations must be regenerated per K.

// pushIntent is a Push that fired against a process of another shard; the
// coin has already been drawn, eligibility is re-checked at the barrier.
type pushIntent struct {
	target   int
	from, to int16
}

// tokenIntent is a token action that fired; delivery (which needs the
// group-wide candidate pool) happens at the barrier.
type tokenIntent struct {
	from, to int16
}

type hookEvent struct {
	proc     int
	from, to int16
}

// initShards builds the K shard contexts on their derived streams and
// moves the inline context onto the barrier stream (derived with index K,
// one past the last shard).
func (e *Engine) initShards() {
	k := e.cfg.Shards
	size := (e.cfg.N + k - 1) / k
	states := len(e.tbl.States)
	e.shards = make([]execContext, k)
	for s := range e.shards {
		lo := min(s*size, e.cfg.N)
		e.shards[s] = execContext{
			lo:          lo,
			hi:          min(lo+size, e.cfg.N),
			rng:         rand.New(mt19937.New(mt19937.DeriveSeed(e.cfg.Seed, s))),
			counts:      make([]int, states),
			transitions: make([]int, states*states),
			deferred:    true,
		}
	}
	e.inline.rng = rand.New(mt19937.New(mt19937.DeriveSeed(e.cfg.Seed, k)))
	e.shardWorkers = min(runtime.GOMAXPROCS(0), k)
}

// runShards is phase 1: the action phase fans the shards across the worker
// pool. Shards are independent, so which worker runs which shard (and in
// what order) cannot affect the outcome.
func (e *Engine) runShards() {
	if e.shardWorkers <= 1 {
		for s := range e.shards {
			e.runActions(&e.shards[s])
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(e.shardWorkers)
	for w := 0; w < e.shardWorkers; w++ {
		go func() {
			defer wg.Done()
			for s := range idx {
				e.runActions(&e.shards[s])
			}
		}()
	}
	for s := range e.shards {
		idx <- s
	}
	close(idx)
	wg.Wait()
}

// barrier is phase 2: it folds what the shards accumulated and recorded
// into the engine, through the inline context.
func (e *Engine) barrier() {
	// Merge shard accumulators and replay hooks in shard order.
	for s := range e.shards {
		sh := &e.shards[s]
		for i, d := range sh.counts {
			e.counts[i] += d
		}
		for i, c := range sh.transitions {
			e.transitions[i] += c
		}
		e.inline.messages += sh.messages
		clear(sh.counts)
		clear(sh.transitions)
		sh.messages = 0
		for _, h := range sh.hooks {
			e.cfg.OnTransition(h.proc, e.tbl.States[h.from], e.tbl.States[h.to], e.period)
		}
		sh.hooks = sh.hooks[:0]
	}

	// Cross-shard pushes: the sender's coin already fired; the landing is
	// valid only if the target is still in the pushed-from state, unmoved,
	// and not frozen — the same conditions an intra-shard push checks.
	for s := range e.shards {
		sh := &e.shards[s]
		for _, pi := range sh.pushes {
			if e.state[pi.target] == pi.from && !e.moved[pi.target] && !e.frozen[pi.target] {
				e.transition(&e.inline, pi.target, pi.from, pi.to)
			}
		}
		sh.pushes = sh.pushes[:0]
	}

	// Tokens: delivered against the post-merge live state through the
	// ordinary delivery machinery, randomized by the barrier stream.
	for s := range e.shards {
		sh := &e.shards[s]
		for _, ti := range sh.tokens {
			e.deliverToken(ti.from, ti.to)
		}
		sh.tokens = sh.tokens[:0]
	}
}
