// Package sim provides the simulation substrate the paper's evaluation
// (§5) runs on: an agent-based synchronous-round engine that executes a
// compiled protocol over N simulated processes (the paper tops out at
// 100,000 hosts; sharded execution takes the same engine to millions), and
// a fast aggregate (count-based) engine for large sweeps.
//
// The agent engine reproduces the paper's experimental environment —
// "multiple instances running synchronously over a simulated network, all
// on a single machine" — with the Mersenne Twister generator the paper
// uses, and supports the evaluation's failure modes: message loss per
// connection attempt, crash-stop and crash-recovery process failures,
// massive correlated failures (Figures 5 and 12), and trace-driven churn
// (Figures 9 and 10).
//
// One interpreter (Engine.runActions) executes every agent period. It is
// parameterised by an execution context — an index range, a Mersenne
// Twister stream and accumulators — and runs in one of two modes, chosen
// from Config.Shards:
//
//   - Inline (Shards ≤ 1): a single context spans [0, N) on the engine's
//     main stream and its accumulators are the engine's own, so every
//     effect is immediate — a pushed process moves, a token is delivered
//     and OnTransition fires at the point in the period where the action
//     fired. A hook may therefore observe and perturb the engine (freeze a
//     process, say) mid-period, and later actions of the period see it.
//
//   - Deferred (Shards = K > 1): K contexts own contiguous ranges, each on
//     its own derived stream, and run in parallel. Effects inside a
//     context's own range are immediate; pushes landing outside it, all
//     tokens and all hook calls are recorded and applied at a serial
//     barrier (shard.go).
//
// The two modes are different, equally valid simulations of the same
// protocol — mean-field drift is identical, the random streams are not —
// and each is byte-reproducible from (Seed, Shards).
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"odeproto/internal/core"
	"odeproto/internal/mt19937"
	"odeproto/internal/ode"
)

// Down marks a crashed or departed process in StateOf.
const Down = ode.Var("")

// Config configures an agent-based engine.
type Config struct {
	// N is the group size.
	N int
	// Protocol is the compiled protocol to execute.
	Protocol *core.Protocol
	// Initial gives the starting count per state; counts must sum to N.
	Initial map[ode.Var]int
	// Seed seeds the engine's Mersenne Twister.
	Seed int64
	// MessageLoss is the probability f that any single connection attempt
	// (sample, push contact, or token hop) fails. Lost attempts see no
	// state (they never match).
	MessageLoss float64
	// TokenTTL, when positive, delivers tokens by TTL-bounded random walk
	// instead of membership-directed routing (§6 "Limitations of
	// Tokenizing").
	TokenTTL int
	// InitiallyDown starts that many processes (the highest indices) in
	// the crashed state; they can later be brought in with Revive, which
	// is how open-group joins are modelled. Initial counts must then sum
	// to N − InitiallyDown.
	InitiallyDown int
	// ViewSize, when positive, replaces the paper's maximal-membership
	// assumption with uniform partial views: every process samples targets
	// only from a fixed random view of this many distinct peers. The
	// paper's footnote 1 notes that "well-known results can be used to
	// reduce this size to logarithmic in group size"; setting ViewSize to
	// O(log N) exercises exactly that reduction (see the view-size
	// ablation bench). Zero keeps full membership.
	ViewSize int
	// Shards selects the execution mode described in the package comment:
	// 0 and 1 run the period inline on the main stream, K > 1 partitions
	// the processes into K contiguous shards with their own derived
	// streams and runs the action phase in parallel. Results depend only
	// on (Seed, Shards), never on the worker count or scheduling, and
	// different shard counts are different streams.
	Shards int
	// OnTransition, when non-nil, is invoked for every state transition
	// with the process index, the states involved, and the period number.
	// Crash/revive events are not transitions.
	OnTransition func(proc int, from, to ode.Var, period int)
}

// Engine is an agent-based synchronous-round simulator.
type Engine struct {
	cfg Config
	tbl *Table
	rng *rand.Rand // main stream: views, KillFraction, Rand; the inline period too

	state    []int16 // current state per process, -1 = down
	snapshot []int16 // state at period start
	moved    []bool  // transition already applied this period
	counts   []int   // alive processes per state
	alive    int
	period   int

	// transitions tallies the last period's transitions densely: entry
	// from·S + to for S states.
	transitions []int

	// inline is the context whose accumulators are the engine's own and
	// whose effects apply immediately: it runs the whole period when
	// Shards ≤ 1 (on the main stream) and the barrier when Shards > 1 (on
	// the barrier stream). Its messages and tokensLost are the period's
	// totals.
	inline execContext
	// shards are the deferred contexts of Shards > 1 (empty otherwise);
	// see shard.go.
	shards       []execContext
	shardWorkers int

	// tokenPool holds, per target state, a shuffled list of candidate
	// processes for directed token delivery, built lazily once per period
	// and consumed by a cursor — keeping delivery O(1) amortized per
	// token instead of O(N).
	tokenPool   [][]int
	tokenCursor []int
	tokenBuilt  []bool

	// views holds each process's partial membership view (row-major,
	// ViewSize entries per process) when Config.ViewSize > 0.
	views []int32

	// frozen marks processes that hold their state and execute no
	// actions (they still answer contacts). Models the paper's
	// "chronically averse" heterogeneous hosts (§5.1).
	frozen []bool
}

// execContext is what the interpreter runs against: the range of
// processes whose actions it executes, the stream it draws from, and where
// its bookkeeping goes.
type execContext struct {
	lo, hi int // owned process range [lo, hi)
	rng    *rand.Rand

	counts      []int // per-state population (inline) or delta (deferred)
	transitions []int // dense from·S + to tallies
	messages    int
	tokensLost  int

	// deferred marks a shard of a K > 1 engine: effects outside [lo, hi)
	// are recorded below instead of applied, for the barrier to resolve.
	deferred bool
	pushes   []pushIntent
	tokens   []tokenIntent
	hooks    []hookEvent // recorded only when Config.OnTransition != nil
}

// New builds an engine. The protocol must validate and the initial counts
// must sum to N minus InitiallyDown.
func New(cfg Config) (*Engine, error) {
	if cfg.N <= 1 {
		// N = 1 would make pickPeer's rng.Intn(N-1) panic: every contact
		// action needs at least one peer other than self to sample.
		return nil, fmt.Errorf("sim: group size %d too small (peer sampling needs N >= 2)", cfg.N)
	}
	if cfg.MessageLoss < 0 || cfg.MessageLoss >= 1 {
		return nil, fmt.Errorf("sim: message loss %v outside [0,1)", cfg.MessageLoss)
	}
	if cfg.InitiallyDown < 0 || cfg.InitiallyDown >= cfg.N {
		return nil, fmt.Errorf("sim: InitiallyDown %d outside [0, N)", cfg.InitiallyDown)
	}
	if cfg.Shards < 0 || cfg.Shards > cfg.N {
		return nil, fmt.Errorf("sim: shard count %d outside [0, N = %d]", cfg.Shards, cfg.N)
	}
	if cfg.ViewSize >= cfg.N {
		return nil, fmt.Errorf("sim: view size %d must be below N = %d", cfg.ViewSize, cfg.N)
	}
	tbl, err := Compile(cfg.Protocol, cfg.Initial, cfg.N-cfg.InitiallyDown)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	states := len(tbl.States)
	e := &Engine{
		cfg:         cfg,
		tbl:         tbl,
		rng:         rand.New(mt19937.New(cfg.Seed)),
		state:       tbl.Layout(cfg.N), // deterministic layout in state order
		snapshot:    make([]int16, cfg.N),
		moved:       make([]bool, cfg.N),
		counts:      append([]int(nil), tbl.Initial...),
		alive:       cfg.N - cfg.InitiallyDown,
		transitions: make([]int, states*states),
		frozen:      make([]bool, cfg.N),
		tokenPool:   make([][]int, states),
		tokenCursor: make([]int, states),
		tokenBuilt:  make([]bool, states),
	}
	e.inline = execContext{lo: 0, hi: cfg.N, rng: e.rng, counts: e.counts, transitions: e.transitions}
	if cfg.Shards > 1 {
		e.initShards()
	}

	if cfg.ViewSize > 0 {
		e.views = make([]int32, cfg.N*cfg.ViewSize)
		seen := make(map[int32]bool, cfg.ViewSize)
		for p := 0; p < cfg.N; p++ {
			clear(seen)
			row := e.views[p*cfg.ViewSize : (p+1)*cfg.ViewSize]
			for i := 0; i < cfg.ViewSize; {
				t := int32(e.rng.Intn(cfg.N))
				if int(t) == p || seen[t] {
					continue
				}
				seen[t] = true
				row[i] = t
				i++
			}
		}
	}
	return e, nil
}

// N returns the configured group size.
func (e *Engine) N() int { return e.cfg.N }

// Period returns the number of completed protocol periods.
func (e *Engine) Period() int { return e.period }

// Alive returns the number of non-crashed processes.
func (e *Engine) Alive() int { return e.alive }

// Count returns the number of alive processes in the given state.
func (e *Engine) Count(s ode.Var) int { return e.tbl.count(e.counts, s) }

// Counts returns the alive count of every state.
func (e *Engine) Counts() map[ode.Var]int { return e.tbl.countMap(e.counts) }

// Fractions returns state occupancy as fractions of alive processes.
func (e *Engine) Fractions() map[ode.Var]float64 {
	out := make(map[ode.Var]float64, len(e.tbl.States))
	if e.alive == 0 {
		for _, s := range e.tbl.States {
			out[s] = 0
		}
		return out
	}
	for i, s := range e.tbl.States {
		out[s] = float64(e.counts[i]) / float64(e.alive)
	}
	return out
}

// StateOf returns the state of process p, or Down if it has crashed.
func (e *Engine) StateOf(p int) ode.Var {
	if e.state[p] < 0 {
		return Down
	}
	return e.tbl.States[e.state[p]]
}

// ProcessesIn returns the indices of alive processes currently in state s.
func (e *Engine) ProcessesIn(s ode.Var) []int {
	si, ok := e.tbl.Index[s]
	if !ok {
		return nil
	}
	if e.counts[si] == 0 {
		return nil
	}
	out := make([]int, 0, e.counts[si])
	for p, st := range e.state {
		if int(st) == si {
			out = append(out, p)
		}
	}
	return out
}

// TransitionsLastPeriod returns the per-edge transition counts of the most
// recent period: a fresh map holding the edges that fired.
func (e *Engine) TransitionsLastPeriod() map[[2]ode.Var]int {
	out := make(map[[2]ode.Var]int)
	states := e.tbl.States
	for i, c := range e.transitions {
		if c != 0 {
			out[[2]ode.Var{states[i/len(states)], states[i%len(states)]}] = c
		}
	}
	return out
}

// MessagesLastPeriod returns the number of connection attempts (sampling
// contacts, push contacts, and token hops) of the most recent period — the
// §3 message-complexity measure, observed.
func (e *Engine) MessagesLastPeriod() int { return e.inline.messages }

// TokensLostLastPeriod returns tokens dropped in the most recent period
// (no process in the target state, or TTL expiry).
func (e *Engine) TokensLostLastPeriod() int { return e.inline.tokensLost }

// Freeze pins process p in its current state: it executes no actions and
// cannot be moved by pushes or tokens, but remains alive and keeps
// answering contact probes. This models the paper's heterogeneous
// "chronically averse" hosts (§5.1: behaviour "characteristic of a
// heterogeneous setting, where half the hosts are chronically averse to
// storing the file or even perhaps to running the protocol").
func (e *Engine) Freeze(p int) { e.frozen[p] = true }

// Unfreeze releases a frozen process.
func (e *Engine) Unfreeze(p int) { e.frozen[p] = false }

// Frozen reports whether process p is frozen.
func (e *Engine) Frozen(p int) bool { return e.frozen[p] }

// Kill crash-stops process p. Killing an already-down process is a no-op.
func (e *Engine) Kill(p int) {
	if e.state[p] < 0 {
		return
	}
	e.counts[e.state[p]]--
	e.state[p] = -1
	e.alive--
}

// KillFraction crash-stops a uniformly random fraction of the alive
// processes (the paper's massive-failure experiments kill 50%). The target
// count is frac·alive rounded to nearest (killing 50% of 101 alive
// processes kills 51, where truncation would under-kill with 50) and the
// exact number killed is returned.
func (e *Engine) KillFraction(frac float64) int {
	target := int(math.Round(frac * float64(e.alive)))
	killed := 0
	// Reservoir-style: walk alive processes, kill with adjusted probability.
	remaining := e.alive
	for p := range e.state {
		if e.state[p] < 0 {
			continue
		}
		need := target - killed
		if need <= 0 {
			break
		}
		if e.rng.Intn(remaining) < need {
			e.Kill(p)
			killed++
		}
		remaining--
	}
	return killed
}

// Revive restarts a down process in the given state (crash-recovery or
// churn rejoin). Reviving an alive process is an error.
func (e *Engine) Revive(p int, s ode.Var) error {
	if e.state[p] >= 0 {
		return fmt.Errorf("sim: process %d is already alive", p)
	}
	si, ok := e.tbl.Index[s]
	if !ok {
		return fmt.Errorf("sim: unknown state %q", s)
	}
	e.state[p] = int16(si)
	e.counts[si]++
	e.alive++
	return nil
}

// pickPeer draws a uniform contact target for self: from the whole group
// under maximal membership, or from self's partial view when ViewSize is
// configured.
func (e *Engine) pickPeer(cx *execContext, self int) int {
	if e.views != nil {
		k := e.cfg.ViewSize
		return int(e.views[self*k+cx.rng.Intn(k)])
	}
	t := cx.rng.Intn(e.cfg.N - 1)
	if t >= self {
		t++
	}
	return t
}

// samplePeer contacts a target other than self and returns it with the
// state index observed, or -1 when nothing was observed. Crashed targets
// are legitimate picks (the connection is simply fruitless, as in the
// paper's massive-failure analysis), and a message-loss coin may void the
// attempt. Observations read the period-start snapshot.
func (e *Engine) samplePeer(cx *execContext, self int) (int, int16) {
	cx.messages++
	t := e.pickPeer(cx, self)
	if e.cfg.MessageLoss > 0 && cx.rng.Float64() < e.cfg.MessageLoss {
		return t, -1
	}
	return t, e.snapshot[t]
}

// sampleTarget is samplePeer for actions that only need the observation.
func (e *Engine) sampleTarget(cx *execContext, self int) int16 {
	_, observed := e.samplePeer(cx, self)
	return observed
}

// sampledAll contacts one target per entry of a.Samples, in order, and
// reports whether each was observed in the wanted state; it stops at the
// first mismatch, as the One-Time-Sampling action does.
func (e *Engine) sampledAll(cx *execContext, self int, a *Action) bool {
	for _, want := range a.Samples {
		if e.sampleTarget(cx, self) != want {
			return false
		}
	}
	return true
}

// transition moves process p from state index `from` to `to`. The hook
// fires here when the context is inline and at the barrier otherwise.
func (e *Engine) transition(cx *execContext, p int, from, to int16) {
	e.state[p] = to
	e.moved[p] = true
	cx.counts[from]--
	cx.counts[to]++
	cx.transitions[int(from)*len(e.tbl.States)+int(to)]++
	if e.cfg.OnTransition == nil {
		return
	}
	if cx.deferred {
		cx.hooks = append(cx.hooks, hookEvent{proc: p, from: from, to: to})
		return
	}
	e.cfg.OnTransition(p, e.tbl.States[from], e.tbl.States[to], e.period)
}

// deliverToken routes a token targeting state `from`; on success some
// process in that state transitions to `to`. Delivery needs the live state
// of the whole group, so only the inline context delivers.
func (e *Engine) deliverToken(from, to int16) {
	cx := &e.inline
	if e.cfg.TokenTTL > 0 {
		// Random-walk delivery: hop until a matching process is found or
		// the TTL expires. Each hop is a connection attempt.
		for ttl := e.cfg.TokenTTL; ttl > 0; ttl-- {
			cx.messages++
			t := cx.rng.Intn(e.cfg.N)
			if e.cfg.MessageLoss > 0 && cx.rng.Float64() < e.cfg.MessageLoss {
				continue
			}
			if e.state[t] == from && !e.moved[t] && !e.frozen[t] {
				e.transition(cx, t, from, to)
				return
			}
		}
		cx.tokensLost++
		return
	}
	// Directed delivery via membership: pick uniformly among current
	// holders of the state. §6 allows maintaining this knowledge through a
	// membership protocol; the engine models it as an oracle. The shuffled
	// candidate pool is built once per period per target state.
	cx.messages++
	if !e.tokenBuilt[from] {
		pool := e.tokenPool[from][:0]
		for p, st := range e.state {
			if st == from && !e.moved[p] && !e.frozen[p] {
				pool = append(pool, p)
			}
		}
		cx.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		e.tokenPool[from] = pool
		e.tokenCursor[from] = 0
		e.tokenBuilt[from] = true
	}
	pool := e.tokenPool[from]
	for e.tokenCursor[from] < len(pool) {
		p := pool[e.tokenCursor[from]]
		e.tokenCursor[from]++
		// Re-check eligibility at consume time with exactly the conditions
		// the pool was built with: a process frozen after the pool was
		// built (e.g. by an OnTransition hook mid-period) must not be moved
		// by a token, just as a process that moved since cannot be.
		if e.state[p] == from && !e.moved[p] && !e.frozen[p] {
			e.transition(cx, p, from, to)
			return
		}
	}
	cx.tokensLost++
}

// Step executes one protocol period: every alive process runs the actions
// of its state, with all observations made against the period-start
// snapshot (transitions take effect for the next period, matching the
// analysis assumption that variables change continuously on period scale).
// A process transitions at most once per period; the first firing action
// wins.
func (e *Engine) Step() {
	copy(e.snapshot, e.state)
	clear(e.transitions)
	clear(e.tokenBuilt)
	clear(e.moved)
	e.inline.messages, e.inline.tokensLost = 0, 0
	if len(e.shards) == 0 {
		e.runActions(&e.inline)
	} else {
		e.runShards()
		e.barrier()
	}
	e.period++
}

// runActions is the action interpreter: it executes the period's actions
// for the processes cx owns. It may read the snapshot, views and frozen
// flags of any process; it writes state/moved only inside [cx.lo, cx.hi)
// and otherwise only cx's own accumulators, which is what lets deferred
// contexts run in parallel.
func (e *Engine) runActions(cx *execContext) {
	for p := cx.lo; p < cx.hi; p++ {
		si := e.snapshot[p]
		if si < 0 || e.frozen[p] {
			continue
		}
		actions := e.tbl.Actions[si]
		for i := range actions {
			a := &actions[i]
			if e.moved[p] && a.Kind != core.Push && a.Kind != core.Token {
				// Owner already transitioned this period; push/token
				// actions still run because they move other processes.
				continue
			}
			switch a.Kind {
			case core.Flip:
				if cx.rng.Float64() < a.Coin {
					e.transition(cx, p, si, a.To)
				}
			case core.Sample:
				if e.sampledAll(cx, p, a) && cx.rng.Float64() < a.Coin {
					e.transition(cx, p, si, a.To)
				}
			case core.Token:
				if e.sampledAll(cx, p, a) && cx.rng.Float64() < a.Coin {
					if cx.deferred {
						cx.tokens = append(cx.tokens, tokenIntent{from: a.From, to: a.To})
					} else {
						e.deliverToken(a.From, a.To)
					}
				}
			case core.SampleAny:
				// All len(samples) contacts are attempted, as in the
				// paper's action (iii); the process fires if any target
				// matches.
				hit := false
				for _, want := range a.Samples {
					if e.sampleTarget(cx, p) == want {
						hit = true
					}
				}
				if hit && cx.rng.Float64() < a.Coin {
					e.transition(cx, p, si, a.To)
				}
			case core.Push:
				for range a.Samples {
					t, observed := e.samplePeer(cx, p)
					if observed != a.From || e.frozen[t] {
						continue
					}
					if cx.lo <= t && t < cx.hi {
						// The target's live state is this context's to
						// read and write: land the push now.
						if e.state[t] == a.From && !e.moved[t] {
							if a.Coin >= 1 || cx.rng.Float64() < a.Coin {
								e.transition(cx, t, a.From, a.To)
							}
						}
					} else if a.Coin >= 1 || cx.rng.Float64() < a.Coin {
						// The target belongs to another shard, so the coin
						// is drawn against the snapshot observation
						// (keeping this stream's consumption independent of
						// the other shards) and the landing re-checked at
						// the barrier.
						cx.pushes = append(cx.pushes, pushIntent{target: t, from: a.From, to: a.To})
					}
				}
			}
		}
	}
}

// Run executes the given number of periods.
func (e *Engine) Run(periods int) {
	for i := 0; i < periods; i++ {
		e.Step()
	}
}

// Rand exposes the engine's random source for experiment drivers that need
// auxiliary randomness (e.g. churn schedules) reproducible from the same
// seed.
func (e *Engine) Rand() *rand.Rand { return e.rng }
