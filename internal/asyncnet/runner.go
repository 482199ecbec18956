package asyncnet

import (
	"fmt"

	"odeproto/internal/harness"
	"odeproto/internal/ode"
	"odeproto/internal/sim"
)

// Runner adapts the asynchronous runtime to the harness.Runner interface,
// so sweeps can execute on the paper's true system model (§1) through the
// same scheduler as the synchronous engines. A run ends at quiescence, so
// the adapter executes periods in segments: each Run(k) call launches a
// fresh asynchronous execution of k periods whose initial population is
// the previous segment's final population, seeded deterministically from
// the base seed and the segment index. Population counts are continuous
// across segments; per-process identity is not (asyncnet processes carry
// no addressable identity anyway).
//
// The config's Mode carries through to every segment. In ModeVirtual
// (the default) the whole segment sequence is deterministic — a fixed
// (config, call sequence) reproduces byte-identical counts, transitions,
// and message totals — which is what lets internal/service cache and
// persist virtual asyncnet jobs. Virtual segments share one group, reset
// per segment to exactly a fresh group's state, so a per-period Step pays
// for its events, not for a new group. Wallclock segments are one-shot.
type Runner struct {
	cfg   Config
	group *virtualRunner // nil before the first virtual segment

	counts      map[ode.Var]int
	period      int
	segment     int
	transitions sim.Transitions // cumulative across segments
	messages    int
	err         error
}

// NewRunner builds an asynchronous harness Runner. The config's Periods
// field is ignored; periods are supplied per Run call.
func NewRunner(cfg Config) (*Runner, error) {
	var err error
	if cfg.Mode, err = cfg.Mode.Normalize(); err != nil {
		return nil, err
	}
	tbl, err := sim.Compile(cfg.Protocol, cfg.Initial, cfg.N)
	if err != nil {
		return nil, fmt.Errorf("asyncnet: %w", err)
	}
	counts := make(map[ode.Var]int, len(tbl.States))
	for i, s := range tbl.States {
		counts[s] = tbl.Initial[i]
	}
	return &Runner{
		cfg:         cfg,
		counts:      counts,
		transitions: sim.Transitions{States: tbl.States, Counts: make([]int, len(tbl.States)*len(tbl.States))},
	}, nil
}

// Step executes one protocol period (one single-period segment).
func (r *Runner) Step() { r.Run(1) }

// Run executes the given number of periods as one asynchronous segment.
// On failure the adapter records a sticky error (see Err) and stops
// advancing; the harness surfaces it at the end of the job.
func (r *Runner) Run(periods int) {
	if r.err != nil || periods <= 0 {
		return
	}
	seed := harness.DeriveSeed(r.cfg.Seed, r.segment)
	var res *Result
	if r.group == nil {
		cfg := r.cfg
		cfg.Periods, cfg.Initial, cfg.Seed = periods, r.counts, seed
		tbl, err := cfg.validate()
		if err != nil {
			r.err = err
			return
		}
		if cfg.Mode == ModeWallclock {
			res = runWallclock(&cfg, tbl)
		} else {
			r.group = newVirtualRunner(cfg, tbl)
		}
	}
	if v := r.group; v != nil {
		v.cfg.Periods, v.cfg.Seed = periods, seed
		for i, s := range v.tbl.States {
			v.tbl.Initial[i] = r.counts[s]
		}
		res = v.drain()
	}
	r.counts = res.Counts
	for cell, n := range res.Transitions.Counts {
		r.transitions.Counts[cell] += n
	}
	r.messages += res.MessagesSent
	r.period += periods
	r.segment++
}

// Err returns the sticky error of a failed segment, if any.
func (r *Runner) Err() error { return r.err }

// Period returns the number of completed protocol periods.
func (r *Runner) Period() int { return r.period }

// Alive returns the population size (asyncnet models no crashes).
func (r *Runner) Alive() int {
	n := 0
	for _, c := range r.counts {
		n += c
	}
	return n
}

// Counts returns a copy of the per-state population.
func (r *Runner) Counts() map[ode.Var]int {
	out := make(map[ode.Var]int, len(r.counts))
	for k, v := range r.counts {
		out[k] = v
	}
	return out
}

// Count returns the population of one state.
func (r *Runner) Count(s ode.Var) int { return r.counts[s] }

// MessagesSent returns the cumulative transport sends across all segments.
func (r *Runner) MessagesSent() int { return r.messages }

// TransitionsTotal returns the cumulative per-edge transition counts
// across all segments. The table is the runner's own: do not write it.
func (r *Runner) TransitionsTotal() sim.Transitions { return r.transitions }

// Perturb is unsupported: the asynchronous runtime models no process
// failures (its loss model is per-message).
func (r *Runner) Perturb(p harness.Perturbation) (int, error) {
	switch p.Kind {
	case harness.KillFraction, harness.Kill, harness.Revive, harness.Freeze, harness.Unfreeze:
		return 0, harness.ErrUnsupported
	default:
		return 0, fmt.Errorf("asyncnet: unknown perturbation kind %v", p.Kind)
	}
}
