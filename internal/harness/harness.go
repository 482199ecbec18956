// Package harness is the repository's unified experiment orchestration
// layer. Every experiment of the paper's evaluation (§5) is a matrix of
// sweeps — initial points × group sizes × seeds × failure schedules — and
// before this package existed each sweep was a hand-rolled sequential loop
// duplicated across the experiment, benchmark, and CLI layers, with each
// simulation engine exposing a slightly different API.
//
// The harness unifies all of that behind two concepts:
//
//   - Runner: the engine-agnostic execution interface. The agent engine
//     (sim.Engine), the count-based engine (sim.Aggregate), and the
//     asynchronous runtime (asyncnet) all run behind it, via the adapters
//     in runner.go and asyncnet.Runner (which lives with its engine).
//     Perturbations — crash-stop kills, massive correlated
//     failures, crash-recovery revives, and freezes — go through a single
//     Perturb hook instead of engine-specific method sets.
//
//   - Sweep: a deterministic parallel scheduler. A []Job fans out across a
//     worker pool (GOMAXPROCS workers by default); each job owns its
//     seed, its Runner, its perturbation schedule, and its observation
//     hooks, so the results are byte-identical at any worker count. Seeds
//     are either given explicitly per job (the figure experiments keep the
//     paper's historical seed formulas) or derived with DeriveSeed, a
//     splitmix64 derivation that decorrelates consecutive job indices.
//
// The determinism contract is load-bearing: the test suite verifies that
// sweeps of the Figure 2 phase portrait at GOMAXPROCS 1, 4 and the
// machine's default produce byte-identical trajectories, and that those
// match the pre-harness sequential loop.
package harness

import (
	"fmt"

	"odeproto/internal/mt19937"
	"odeproto/internal/ode"
)

// PerturbKind enumerates the perturbation events a Runner may support.
type PerturbKind int

const (
	// KillFraction crash-stops a uniformly random fraction of the alive
	// processes (the paper's massive-failure experiments kill 50%).
	KillFraction PerturbKind = iota + 1
	// Kill crash-stops one process (identified by Proc).
	Kill
	// Revive restarts a crashed process (Proc) in state State —
	// crash-recovery, or a churn rejoin.
	Revive
	// Freeze pins a process in its current state: it answers contacts but
	// executes no actions (the paper's §5.1 "chronically averse" hosts).
	Freeze
	// Unfreeze releases a frozen process.
	Unfreeze
)

// String returns the perturbation kind's name.
func (k PerturbKind) String() string {
	switch k {
	case KillFraction:
		return "kill-fraction"
	case Kill:
		return "kill"
	case Revive:
		return "revive"
	case Freeze:
		return "freeze"
	case Unfreeze:
		return "unfreeze"
	default:
		return fmt.Sprintf("PerturbKind(%d)", int(k))
	}
}

// Perturbation is one kill/revive/freeze event applied to a Runner.
type Perturbation struct {
	Kind PerturbKind
	// Frac is the fraction killed by KillFraction.
	Frac float64
	// Proc identifies the process for Kill, Revive, Freeze, and Unfreeze.
	Proc int
	// State is the rejoin state for Revive.
	State ode.Var
}

// ErrUnsupported is returned by Perturb when the engine behind the Runner
// cannot express the requested perturbation (e.g. the count-based engine
// has no per-process identity, so it supports KillFraction only).
var ErrUnsupported = fmt.Errorf("harness: perturbation not supported by this engine")

// Runner is the engine-agnostic execution interface: what a job's period
// loop and its hooks call. sim.Engine, sim.Aggregate, and the asyncnet
// runtime implement it via the adapters in this package.
type Runner interface {
	// Step executes one protocol period.
	Step()
	// Alive returns the number of non-crashed processes.
	Alive() int
	// Count returns the alive population of one state.
	Count(s ode.Var) int
	// Perturb applies a kill/revive/freeze event, returning the number of
	// processes affected. Engines return ErrUnsupported for events they
	// cannot express.
	Perturb(p Perturbation) (int, error)
}

// TransitionCounter is implemented by Runners that can report the per-edge
// transition counts of the most recent period (the agent engine does; the
// experiments behind Figures 6 and 10 need it).
type TransitionCounter interface {
	TransitionsLastPeriod() map[[2]ode.Var]int
}

// ProcessLister is implemented by Runners with per-process identity (the
// agent engine); the Figure 8 untraceability scatter needs it.
type ProcessLister interface {
	ProcessesIn(s ode.Var) []int
}

// DeriveSeed derives the seed for job index idx from a base seed
// (mt19937.DeriveSeed, re-exported where sweeps are built).
func DeriveSeed(base int64, idx int) int64 { return mt19937.DeriveSeed(base, idx) }
