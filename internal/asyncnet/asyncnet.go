// Package asyncnet executes a compiled protocol on the paper's true
// asynchronous system model (§1): protocol periods start at arbitrary
// offsets, per-process clocks drift within a bound, and messages cross a
// lossy, delaying network — "an asynchronous network … protocol periods
// start at arbitrary times at different processes … our analysis holds
// for the average period across the group".
//
// The model is captured entirely by the *interleaving* of events — period
// firings, message deliveries, timeouts — not by real elapsed time, so the
// package offers two execution substrates behind one protocol logic:
//
//   - ModeVirtual (the default) runs a discrete-event scheduler over
//     virtual time: every occurrence is a timestamped event in a priority
//     queue, timestamps are drawn from the same drift/delay/drop
//     distributions as wallclock mode, and equal timestamps are ordered by
//     a seeded splitmix-derived sequence number assigned at schedule time.
//     A run is a pure function of its Config — bit-reproducible across
//     executions and GOMAXPROCS settings — and executes as fast as the
//     hardware allows (no 2ms-per-period floor, no goroutine-per-process
//     ceiling), which is what makes asyncnet results content-addressable
//     and cacheable in internal/service.
//
//   - ModeWallclock runs one goroutine per process against real timers
//     and channels. It is nondeterministic and real-time-bound, and is
//     kept as the validation oracle: integration tests run the same
//     protocols on genuine goroutine interleavings and observe the same
//     limiting behaviour as the virtual scheduler and the synchronous
//     engines in internal/sim.
package asyncnet

import (
	"fmt"
	"math"
	"slices"
	"time"

	"odeproto/internal/core"
	"odeproto/internal/mt19937"
	"odeproto/internal/ode"
	"odeproto/internal/sim"
)

// Mode selects the asyncnet execution substrate.
type Mode string

const (
	// ModeVirtual is the virtual-time discrete-event scheduler:
	// deterministic for a fixed Config, runs at CPU speed.
	ModeVirtual Mode = "virtual"
	// ModeWallclock is the goroutine-per-process runtime against real
	// timers: nondeterministic, real-time-bound, kept as the oracle that
	// validates the virtual scheduler against true asynchrony.
	ModeWallclock Mode = "wallclock"
)

// Normalize maps the empty mode to the virtual default and rejects
// anything that is not a known mode.
func (m Mode) Normalize() (Mode, error) {
	switch m {
	case "":
		return ModeVirtual, nil
	case ModeVirtual, ModeWallclock:
		return m, nil
	default:
		return "", fmt.Errorf("asyncnet: unknown mode %q (want %q or %q)", string(m), ModeVirtual, ModeWallclock)
	}
}

// message is the transport envelope. Exactly one field group is used per
// kind. Fields are deliberately narrow: the virtual scheduler keeps
// millions of these inside heap events, so envelope size is heap memory
// traffic.
type message struct {
	from int32
	seq  int32 // query/reply correlation
	inst int32 // instance sequence for timeouts

	kind      messageKind
	state     int16 // reply payload / convert precondition
	convertTo int16 // convert/token destination
	ttl       int16 // token hops remaining
}

type messageKind uint8

const (
	msgQuery messageKind = iota + 1
	msgReply
	msgTimeout
	msgConvert
	msgToken
)

// transport is what the protocol logic needs from its substrate: message
// sends (to which the network's loss/delay model applies) and local
// timeout scheduling (which is lossless — a timer is not a network
// message). The wallclock network and the virtual event scheduler both
// implement it.
type transport interface {
	send(to int, m message)
	timeout(owner int, d time.Duration, m message)
}

// Config configures an asynchronous run.
type Config struct {
	N        int
	Protocol *core.Protocol
	Initial  map[ode.Var]int
	Seed     int64
	// Periods is how many protocol periods each process executes.
	Periods int
	// Mode selects the execution substrate: ModeVirtual (default) or
	// ModeWallclock.
	Mode Mode
	// BasePeriod is the nominal protocol period duration (default 2ms;
	// real deployments use minutes — the dynamics only depend on the
	// period count). In virtual mode it is a unit of virtual time and has
	// no bearing on how long the run takes.
	BasePeriod time.Duration
	// Drift is the relative clock drift bound: each process draws its
	// period duration uniformly from BasePeriod·(1 ± Drift). Default 0.1.
	Drift float64
	// DropProb is the probability a message is lost in transit.
	DropProb float64
	// MaxDelay bounds the uniform random network delay (default
	// BasePeriod/4).
	MaxDelay time.Duration
	// TokenTTL bounds token random walks (default 8).
	TokenTTL int
}

// Result summarizes an asynchronous run.
type Result struct {
	// Counts is the final per-state population.
	Counts map[ode.Var]int
	// Transitions counts state transitions across the whole run.
	Transitions sim.Transitions
	// MessagesSent counts transport sends (before drops).
	MessagesSent int
}

// instance is one in-flight sampling action. Its query seqs are inst+1 …
// inst+len(results), so a reply is routed exactly while its instance is
// in flight and its position is still -2.
type instance struct {
	action  *sim.Action
	results []int16 // observed state per sample position; -2 = missing
	inst    int32
	waiting int32
}

// process is one asynchronous protocol participant. The protocol logic
// below is substrate-agnostic: it talks to the run through the transport
// interface and its own rng, so the wallclock goroutine loop and the
// virtual event loop drive the exact same code.
type process struct {
	id  int
	cfg *Config
	tr  transport
	rng prng       // per-process stream (wallclock) or the run's shared stream (virtual)
	tbl *sim.Table // the compiled protocol, shared by the whole group

	state int16
	left  int32 // periods not yet started
	seq   int
	// inflight lists the undecided instances (with Drift > 0.5, periods'
	// instances overlap); past its end lies retired instances' storage.
	inflight []instance
	// trans counts transitions from×to by state index: one table per
	// virtual group, one per wallclock process (allocated on first use).
	trans []int
}

// prng exposes the draw helpers the protocol logic needs directly on the
// Mersenne Twister: math/rand's *Rand pays an interface dispatch per
// draw, which is measurable with millions of draws on the virtual
// scheduler's hot path. Int63n uses the same rejection sampling as
// math/rand, so draws stay exactly uniform.
type prng struct{ mt *mt19937.MT19937 }

func (r prng) Float64() float64 { return r.mt.Float64() }

func (r prng) Intn(n int) int { return int(r.Int63n(int64(n))) }

func (r prng) Int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return r.mt.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.mt.Int63()
	for v > max {
		v = r.mt.Int63()
	}
	return v % n
}

func (p *process) transitionTo(to int16) {
	from := p.state
	if from == to {
		return
	}
	p.state = to
	s := len(p.tbl.States)
	if p.trans == nil {
		p.trans = make([]int, s*s)
	}
	p.trans[int(from)*s+int(to)]++
}

func (p *process) randomPeer() int {
	t := p.rng.Intn(p.cfg.N - 1)
	if t >= p.id {
		t++
	}
	return t
}

// periodFor draws this process's next period duration from the drifting
// clock model: uniform in BasePeriod·(1 ± Drift).
func (p *process) periodFor() time.Duration {
	f := 1 + p.cfg.Drift*(2*p.rng.Float64()-1)
	return time.Duration(float64(p.cfg.BasePeriod) * f)
}

// startOffset draws the arbitrary offset of this process's first period
// (paper: "protocol periods start at arbitrary times at different
// processes").
func (p *process) startOffset() time.Duration {
	return time.Duration(p.rng.Int63n(int64(p.cfg.BasePeriod) + 1))
}

// startPeriod launches this period's actions.
func (p *process) startPeriod() {
	actions := p.tbl.Actions[p.state]
	for i := range actions {
		a := &actions[i]
		switch a.Kind {
		case core.Flip:
			if p.rng.Float64() < a.Coin {
				p.transitionTo(a.To)
			}
		case core.Push:
			for range a.Samples {
				if a.Coin >= 1 || p.rng.Float64() < a.Coin {
					p.tr.send(p.randomPeer(), message{
						kind: msgConvert, from: int32(p.id), state: a.From, convertTo: a.To,
					})
				}
			}
		case core.Sample, core.SampleAny, core.Token:
			// Put an instance in flight, every position missing, reusing
			// the storage a retired one left past the list's end.
			n := len(p.inflight)
			if n == cap(p.inflight) {
				p.inflight = append(p.inflight, instance{})
			}
			p.inflight = p.inflight[:n+1]
			p.seq++
			in := &p.inflight[n]
			in.action, in.inst, in.waiting, in.results = a, int32(p.seq), int32(len(a.Samples)), in.results[:0]
			for range a.Samples {
				in.results = append(in.results, -2)
				p.seq++
				p.tr.send(p.randomPeer(), message{kind: msgQuery, from: int32(p.id), seq: int32(p.seq)})
			}
			p.tr.timeout(p.id, p.cfg.BasePeriod/2, message{kind: msgTimeout, inst: in.inst})
		}
	}
}

// evaluate decides in-flight instance idx, complete or timed out, after
// retiring it past the list's end (no send re-enters the process, so its
// results stay intact). Sample and Token draw the coin only when every
// sample matches, SampleAny only on a hit.
func (p *process) evaluate(idx int) {
	last := len(p.inflight) - 1
	in := p.inflight[idx]
	p.inflight[idx], p.inflight[last] = p.inflight[last], in
	p.inflight = p.inflight[:last]
	a := in.action
	switch a.Kind {
	case core.Sample, core.Token:
		for i, want := range a.Samples {
			if in.results[i] != want {
				return
			}
		}
		if p.rng.Float64() >= a.Coin {
			return
		}
		if a.Kind == core.Sample {
			if p.state == a.From {
				p.transitionTo(a.To)
			}
			return
		}
		p.tr.send(p.randomPeer(), message{
			kind: msgToken, from: int32(p.id), state: a.From, convertTo: a.To,
			ttl: int16(p.cfg.TokenTTL),
		})
	case core.SampleAny:
		hit := false
		for i, want := range a.Samples {
			if in.results[i] == want {
				hit = true
				break
			}
		}
		if hit && p.rng.Float64() < a.Coin && p.state == a.From {
			p.transitionTo(a.To)
		}
	}
}

func (p *process) handle(m message) {
	switch m.kind {
	case msgQuery:
		p.tr.send(int(m.from), message{kind: msgReply, from: int32(p.id), seq: m.seq, state: p.state})
	case msgReply:
		for i := range p.inflight {
			in := &p.inflight[i]
			if pos := int(m.seq - in.inst - 1); pos >= 0 && pos < len(in.results) && in.results[pos] == -2 {
				in.results[pos] = m.state
				if in.waiting--; in.waiting == 0 {
					p.evaluate(i)
				}
				return
			}
		}
	case msgTimeout:
		for i := range p.inflight {
			if p.inflight[i].inst == m.inst {
				p.evaluate(i)
				return
			}
		}
	case msgConvert:
		if p.state == m.state {
			p.transitionTo(m.convertTo)
		}
	case msgToken:
		if p.state == m.state {
			p.transitionTo(m.convertTo)
			return
		}
		if m.ttl > 1 {
			m.ttl--
			p.tr.send(p.randomPeer(), m)
		}
	}
}

// validate applies defaults in place and compiles the protocol and the
// initial population into the table the group executes from.
func (cfg *Config) validate() (*sim.Table, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("asyncnet: group size %d too small", cfg.N)
	}
	tbl, err := sim.Compile(cfg.Protocol, cfg.Initial, cfg.N)
	if err != nil {
		return nil, fmt.Errorf("asyncnet: %w", err)
	}
	if cfg.Periods <= 0 {
		return nil, fmt.Errorf("asyncnet: periods must be positive")
	}
	if cfg.Mode, err = cfg.Mode.Normalize(); err != nil {
		return nil, err
	}
	if cfg.BasePeriod <= 0 {
		cfg.BasePeriod = 2 * time.Millisecond
	}
	if cfg.Drift == 0 {
		cfg.Drift = 0.1
	}
	if cfg.Drift < 0 || cfg.Drift >= 1 {
		return nil, fmt.Errorf("asyncnet: drift %v outside [0,1)", cfg.Drift)
	}
	if cfg.MaxDelay == 0 {
		cfg.MaxDelay = cfg.BasePeriod / 4
	}
	if cfg.TokenTTL <= 0 {
		cfg.TokenTTL = 8
	}
	if cfg.TokenTTL > math.MaxInt16 {
		// The transport envelope carries the TTL as an int16; a larger
		// bound would silently wrap and kill tokens after one hop.
		return nil, fmt.Errorf("asyncnet: token TTL %d exceeds the transport bound %d", cfg.TokenTTL, math.MaxInt16)
	}
	return tbl, nil
}

// newGroup allocates n processes with in-flight storage carved from two
// slabs: two instances each, each with room for the table's widest sample.
// A process whose instances overlap further grows its own list.
func newGroup(n int, tbl *sim.Table) []process {
	width := 0
	for _, actions := range tbl.Actions {
		for _, a := range actions {
			width = max(width, len(a.Samples))
		}
	}
	procs, slots, results := make([]process, n), make([]instance, 2*n), make([]int16, 2*n*width)
	for i := range slots {
		slots[i].results = results[i*width : i*width : (i+1)*width]
	}
	for i := range procs {
		procs[i].inflight = slots[2*i : 2*i : 2*i+2]
	}
	return procs
}

// layoutProcesses (re)starts the group state by state in protocol order on
// one rng stream, keeping each process's (empty) in-flight storage; trans
// is the group's transition table, or nil for one per process.
func layoutProcesses(procs []process, cfg *Config, tr transport, rng prng, tbl *sim.Table, trans []int) {
	for i, state := range tbl.Layout(len(procs)) {
		p := &procs[i]
		*p = process{id: i, cfg: cfg, tr: tr, rng: rng, tbl: tbl, state: state, left: int32(cfg.Periods),
			inflight: p.inflight[:0], trans: trans}
	}
}

// collectResult assembles the run summary from the final process states
// and a copy of the group's transition table (a virtual group reuses its
// table from segment to segment).
func collectResult(states []ode.Var, procs []process, trans []int, sent int) *Result {
	res := &Result{
		Counts:       make(map[ode.Var]int, len(states)),
		Transitions:  sim.Transitions{States: states, Counts: slices.Clone(trans)},
		MessagesSent: sent,
	}
	for _, s := range states {
		res.Counts[s] = 0
	}
	for i := range procs {
		res.Counts[states[procs[i].state]]++
	}
	return res
}

// Run executes the protocol asynchronously and returns the final counts.
// Virtual-mode runs are deterministic: a fixed Config reproduces the exact
// Result on any machine at any GOMAXPROCS. Wallclock-mode runs schedule
// real goroutines and are not reproducible.
func Run(cfg Config) (*Result, error) {
	tbl, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	if cfg.Mode == ModeWallclock {
		return runWallclock(&cfg, tbl), nil
	}
	return newVirtualRunner(cfg, tbl).drain(), nil
}
