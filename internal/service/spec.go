package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"odeproto/internal/asyncnet"
	"odeproto/internal/harness"
	"odeproto/internal/ode"
)

// Engine names accepted by JobSpec.Engine. "sharded" is the agent engine
// with Shards ≥ 2 (the two spellings normalize to one cache identity).
const (
	EngineAgent     = "agent"
	EngineSharded   = "sharded"
	EngineAggregate = "aggregate"
	EngineAsyncnet  = "asyncnet"
)

// ModeVirtual is the asyncnet execution mode the service runs, and the only
// value JobSpec.Mode accepts besides "" (asyncnet jobs only).
const ModeVirtual = string(asyncnet.ModeVirtual)

// EventSpec schedules one perturbation, applied before the Step of period
// At (harness.Event semantics: At must lie in [0, periods)).
type EventSpec struct {
	At   int     `json:"at"`
	Kind string  `json:"kind"` // kill-fraction | kill | revive | freeze | unfreeze
	Frac float64 `json:"frac,omitempty"`
	Proc int     `json:"proc,omitempty"`
	// State is the rejoin state for revive events.
	State string `json:"state,omitempty"`
}

// perturbation converts the wire form to a harness perturbation.
func (e EventSpec) perturbation() (harness.Perturbation, error) {
	switch e.Kind {
	case harness.KillFraction.String():
		if e.Frac < 0 || e.Frac > 1 {
			return harness.Perturbation{}, fmt.Errorf("kill-fraction frac %v outside [0,1]", e.Frac)
		}
		return harness.Perturbation{Kind: harness.KillFraction, Frac: e.Frac}, nil
	case harness.Kill.String():
		return harness.Perturbation{Kind: harness.Kill, Proc: e.Proc}, nil
	case harness.Revive.String():
		if e.State == "" {
			return harness.Perturbation{}, fmt.Errorf("revive event needs a state")
		}
		return harness.Perturbation{Kind: harness.Revive, Proc: e.Proc, State: ode.Var(e.State)}, nil
	case harness.Freeze.String():
		return harness.Perturbation{Kind: harness.Freeze, Proc: e.Proc}, nil
	case harness.Unfreeze.String():
		return harness.Perturbation{Kind: harness.Unfreeze, Proc: e.Proc}, nil
	default:
		return harness.Perturbation{}, fmt.Errorf("unknown event kind %q", e.Kind)
	}
}

// JobSpec is the body of POST /v1/jobs: the compile prefix (same fields as
// CompileRequest, minus the flow point) plus the sweep to run on the
// compiled protocol.
type JobSpec struct {
	Source      string             `json:"source"`
	Params      map[string]float64 `json:"params,omitempty"`
	P           float64            `json:"p,omitempty"`
	FailureRate float64            `json:"failure_rate,omitempty"`
	NoRewrite   bool               `json:"no_rewrite,omitempty"`
	Slack       string             `json:"slack,omitempty"`

	// Engine selects the simulation substrate: agent, sharded (agent with
	// Shards ≥ 2), aggregate, or asyncnet. Default agent.
	Engine string `json:"engine,omitempty"`
	// Mode names the asyncnet execution substrate: "virtual", also the
	// default — the deterministic virtual-time discrete-event scheduler.
	// It is the only one the service runs ("wallclock", the goroutine-and-
	// timer oracle, is a 400: its output is no function of the spec), but
	// the field stays and is hashed, so existing keys hold. Only
	// meaningful with engine "asyncnet".
	Mode string `json:"mode,omitempty"`
	// N is the group size.
	N int `json:"n"`
	// Initial gives starting counts per state; keys must be protocol
	// states and values must sum to N (missing states default to 0). An
	// empty map selects a uniform split with the remainder on the first
	// state.
	Initial map[string]int `json:"initial,omitempty"`
	// Periods is the protocol-period horizon.
	Periods int `json:"periods"`
	// Seed is the base RNG seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Seeds replicates the run across this many seeds (default 1). With
	// Seeds > 1, run i uses harness.DeriveSeed(Seed, i); with Seeds == 1
	// the base seed is used directly.
	Seeds int `json:"seeds,omitempty"`
	// Shards is the agent engine's RNG shard count K. The shard count is
	// part of the determinism contract — results are byte-identical for a
	// fixed (seed, K) at any worker count, and K is therefore part of the
	// cache key. 0 normalizes to 1 (serial).
	Shards int `json:"shards,omitempty"`
	// RecordEvery samples the per-period counts every this many periods
	// (default 1; the final period is always recorded).
	RecordEvery int `json:"record_every,omitempty"`
	// Events are the perturbation schedule, shared by every run.
	Events []EventSpec `json:"events,omitempty"`
}

// compileRequest extracts the compile prefix of the spec.
func (s *JobSpec) compileRequest() CompileRequest {
	return CompileRequest{
		Source:      s.Source,
		Params:      s.Params,
		P:           s.P,
		FailureRate: s.FailureRate,
		NoRewrite:   s.NoRewrite,
		Slack:       s.Slack,
	}
}

// seedFor returns the seed of run i under the spec's replication rule.
func (s *JobSpec) seedFor(i int) int64 {
	if s.Seeds <= 1 {
		return s.Seed
	}
	return harness.DeriveSeed(s.Seed, i)
}

// rowsPerRun is how many rows the recording rule yields for one run: every
// RecordEvery-th period from 0, plus the final period when that is not one
// of them. The row log is sized from it.
func (s *JobSpec) rowsPerRun() int {
	if s.Periods < 1 {
		return 0 // a recovered job whose spec the WAL lost
	}
	every := s.RecordEvery
	rows := (s.Periods + every - 1) / every
	if (s.Periods-1)%every != 0 {
		rows++
	}
	return rows
}

// recordedRows is the row count of the job's finished result, all runs.
func (s *JobSpec) recordedRows() int { return s.rowsPerRun() * s.Seeds }

// Limits bound what a single job may ask of the service.
type Limits struct {
	MaxN       int
	MaxPeriods int
	MaxSeeds   int
	MaxShards  int
	// MaxRows bounds the total recorded observations of one job
	// (JobSpec.recordedRows). A running job holds every row in its row
	// log and a finished one in its canonical bytes, so without this cap
	// a single request within the other limits could still exhaust the
	// daemon's memory.
	MaxRows int
}

// defaultLimits are applied when a Config leaves Limits zero.
var defaultLimits = Limits{
	MaxN:       5_000_000,
	MaxPeriods: 1_000_000,
	MaxSeeds:   1024,
	MaxShards:  1024,
	MaxRows:    2_000_000,
}

// normalize applies defaults in place so that equivalent specs share one
// canonical form (and therefore one cache key), then validates the spec
// against the compiled protocol and the limits. It returns the compile
// output so submission does not compile twice.
func (s *JobSpec) normalize(lim Limits) (*compiled, error) {
	if s.Slack == "" {
		s.Slack = "z"
	}
	if s.Engine == "" {
		s.Engine = EngineAgent
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Seeds <= 0 {
		s.Seeds = 1
	}
	if s.RecordEvery <= 0 {
		s.RecordEvery = 1
	}
	switch s.Engine {
	case EngineAgent:
		if s.Shards <= 0 {
			s.Shards = 1
		}
	case EngineSharded:
		if s.Shards < 2 {
			return nil, fmt.Errorf("engine %q needs shards >= 2 (got %d)", EngineSharded, s.Shards)
		}
		s.Engine = EngineAgent // one cache identity for agent-with-K and sharded
	case EngineAggregate, EngineAsyncnet:
		if s.Shards != 0 {
			return nil, fmt.Errorf("engine %q does not shard", s.Engine)
		}
	default:
		return nil, fmt.Errorf("unknown engine %q (want agent, sharded, aggregate, or asyncnet)", s.Engine)
	}
	switch {
	case s.Engine != EngineAsyncnet:
		if s.Mode != "" {
			return nil, fmt.Errorf("mode %q is only meaningful for engine %q", s.Mode, EngineAsyncnet)
		}
	case s.Mode == "" || s.Mode == ModeVirtual:
		s.Mode = ModeVirtual
	case s.Mode == string(asyncnet.ModeWallclock):
		return nil, fmt.Errorf("mode %q is not served: its results are not a function of the spec; run it with odeproto -engine asyncnet -async-mode wallclock", s.Mode)
	default:
		return nil, fmt.Errorf("unknown mode %q (want %q)", s.Mode, ModeVirtual)
	}
	if len(s.Params) == 0 {
		s.Params = nil
	}
	if s.N < 1 {
		return nil, fmt.Errorf("n must be >= 1 (got %d)", s.N)
	}
	if s.Periods < 1 {
		return nil, fmt.Errorf("periods must be >= 1 (got %d)", s.Periods)
	}
	if lim.MaxN > 0 && s.N > lim.MaxN {
		return nil, fmt.Errorf("n %d exceeds the service limit %d", s.N, lim.MaxN)
	}
	if lim.MaxPeriods > 0 && s.Periods > lim.MaxPeriods {
		return nil, fmt.Errorf("periods %d exceeds the service limit %d", s.Periods, lim.MaxPeriods)
	}
	if lim.MaxSeeds > 0 && s.Seeds > lim.MaxSeeds {
		return nil, fmt.Errorf("seeds %d exceeds the service limit %d", s.Seeds, lim.MaxSeeds)
	}
	if lim.MaxShards > 0 && s.Shards > lim.MaxShards {
		return nil, fmt.Errorf("shards %d exceeds the service limit %d", s.Shards, lim.MaxShards)
	}
	if s.Shards > s.N {
		return nil, fmt.Errorf("shards %d exceeds the group size %d", s.Shards, s.N)
	}
	if lim.MaxRows > 0 {
		if rows := s.recordedRows(); rows > lim.MaxRows {
			return nil, fmt.Errorf("job would record %d rows (periods/record_every × seeds), exceeding the service limit %d; raise record_every or lower seeds/periods", rows, lim.MaxRows)
		}
	}

	comp, err := compilePipeline(s.compileRequest())
	if err != nil {
		return nil, err
	}

	// Initial counts: keys must be protocol states, values sum to N.
	// Zero entries are dropped so that {"x":100} and {"x":100,"y":0}
	// share one canonical form.
	if len(s.Initial) > 0 {
		sum := 0
		for k, v := range s.Initial {
			if v < 0 {
				return nil, fmt.Errorf("initial count for %q is negative", k)
			}
			if !comp.proto.HasState(ode.Var(k)) {
				return nil, fmt.Errorf("initial state %q is not a protocol state %v", k, comp.proto.States)
			}
			if v == 0 {
				delete(s.Initial, k)
			}
			sum += v
		}
		if sum != s.N {
			return nil, fmt.Errorf("initial counts sum to %d, want n = %d", sum, s.N)
		}
	}
	if len(s.Initial) == 0 {
		s.Initial = nil
	}

	for i, e := range s.Events {
		if e.At < 0 || e.At >= s.Periods {
			return nil, fmt.Errorf("event %d at period %d outside [0, %d)", i, e.At, s.Periods)
		}
		p, err := e.perturbation()
		if err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		switch s.Engine {
		case EngineAggregate:
			if p.Kind != harness.KillFraction {
				return nil, fmt.Errorf("event %d: the aggregate engine only supports kill-fraction", i)
			}
		case EngineAsyncnet:
			return nil, fmt.Errorf("event %d: the asyncnet engine supports no perturbations", i)
		}
		if p.Kind == harness.Revive && !comp.proto.HasState(p.State) {
			return nil, fmt.Errorf("event %d: revive state %q is not a protocol state", i, p.State)
		}
		// Per-process events index into the engine's process table; an
		// out-of-range index would panic a worker goroutine.
		switch p.Kind {
		case harness.Kill, harness.Revive, harness.Freeze, harness.Unfreeze:
			if p.Proc < 0 || p.Proc >= s.N {
				return nil, fmt.Errorf("event %d: proc %d outside the group [0, %d)", i, p.Proc, s.N)
			}
		}
	}
	if len(s.Events) == 0 {
		s.Events = nil
	}
	return comp, nil
}

// cacheKeySpec is the canonical content the cache key hashes. The system
// field is the parsed input's canonical rendering, so formatting and
// comment differences in the DSL source do not split the cache (parameter
// values are folded into the rendered coefficients at parse time); maps
// marshal with sorted keys (encoding/json's documented behavior).
type cacheKeySpec struct {
	Version     int            `json:"v"`
	System      string         `json:"system"`
	P           float64        `json:"p"`
	FailureRate float64        `json:"failure_rate"`
	NoRewrite   bool           `json:"no_rewrite"`
	Slack       string         `json:"slack"`
	Engine      string         `json:"engine"`
	Mode        string         `json:"mode"`
	N           int            `json:"n"`
	Initial     map[string]int `json:"initial"`
	Periods     int            `json:"periods"`
	Seed        int64          `json:"seed"`
	Seeds       int            `json:"seeds"`
	Shards      int            `json:"shards"`
	RecordEvery int            `json:"record_every"`
	Events      []EventSpec    `json:"events"`
}

// cacheKey derives the content address of a normalized spec: the SHA-256
// of the canonical JSON encoding of everything that determines the job's
// output. The shard count K is deliberately part of the key — output is
// byte-identical for a fixed (seed, K) but different K are different RNG
// streams. The asyncnet mode stays in the key although only "virtual" is
// served, so keys issued before wallclock mode left the service hold.
// Version 2 added the mode field.
func (s *JobSpec) cacheKey(comp *compiled) string {
	ks := cacheKeySpec{
		Version:     2,
		System:      comp.input.String(),
		P:           s.P,
		FailureRate: s.FailureRate,
		NoRewrite:   s.NoRewrite,
		Slack:       s.Slack,
		Engine:      s.Engine,
		Mode:        s.Mode,
		N:           s.N,
		Initial:     s.Initial,
		Periods:     s.Periods,
		Seed:        s.Seed,
		Seeds:       s.Seeds,
		Shards:      s.Shards,
		RecordEvery: s.RecordEvery,
		Events:      s.Events,
	}
	data, err := json.Marshal(ks)
	if err != nil {
		// cacheKeySpec contains only marshalable types; this is unreachable.
		panic(fmt.Sprintf("service: cache key marshal: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
