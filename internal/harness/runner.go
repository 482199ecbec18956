package harness

import (
	"fmt"

	"odeproto/internal/core"
	"odeproto/internal/ode"
	"odeproto/internal/sim"
)

// AgentRunner adapts the agent-based synchronous-round engine
// (sim.Engine) to the Runner interface. All engine observation methods
// (TransitionsLastPeriod, ProcessesIn, Fractions, ...) remain available
// through the embedded engine.
type AgentRunner struct {
	*sim.Engine
}

// NewAgent builds an agent-engine Runner; cfg.Shards selects the serial or
// the sharded engine as in sim.New.
func NewAgent(cfg sim.Config) (*AgentRunner, error) {
	e, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return &AgentRunner{Engine: e}, nil
}

// Perturb applies the event to the agent engine. Every perturbation kind
// is supported.
func (r *AgentRunner) Perturb(p Perturbation) (int, error) {
	switch p.Kind {
	case KillFraction:
		return r.Engine.KillFraction(p.Frac), nil
	case Kill:
		if r.Engine.StateOf(p.Proc) == sim.Down {
			return 0, nil
		}
		r.Engine.Kill(p.Proc)
		return 1, nil
	case Revive:
		// Idempotent, like Kill: perturbation schedules (e.g. compiled
		// churn traces) are applied blindly, so reviving an already-alive
		// process is a no-op rather than an error.
		if r.Engine.StateOf(p.Proc) != sim.Down {
			return 0, nil
		}
		if err := r.Engine.Revive(p.Proc, p.State); err != nil {
			return 0, err
		}
		return 1, nil
	case Freeze:
		r.Engine.Freeze(p.Proc)
		return 1, nil
	case Unfreeze:
		r.Engine.Unfreeze(p.Proc)
		return 1, nil
	default:
		return 0, fmt.Errorf("harness: unknown perturbation kind %v", p.Kind)
	}
}

// AggregateRunner adapts the count-based engine (sim.Aggregate) to the
// Runner interface. Processes have no identity in the aggregate engine, so
// only population-level perturbations (KillFraction) are supported.
type AggregateRunner struct {
	*sim.Aggregate
}

// NewAggregate builds a count-based Runner.
func NewAggregate(proto *core.Protocol, initial map[ode.Var]int, seed int64, messageLoss float64) (*AggregateRunner, error) {
	a, err := sim.NewAggregate(proto, initial, seed, messageLoss)
	if err != nil {
		return nil, err
	}
	return &AggregateRunner{Aggregate: a}, nil
}

// Perturb applies the event. Only KillFraction is expressible without
// per-process identity; everything else returns ErrUnsupported.
func (r *AggregateRunner) Perturb(p Perturbation) (int, error) {
	switch p.Kind {
	case KillFraction:
		return r.Aggregate.KillFraction(p.Frac), nil
	case Kill, Revive, Freeze, Unfreeze:
		return 0, ErrUnsupported
	default:
		return 0, fmt.Errorf("harness: unknown perturbation kind %v", p.Kind)
	}
}

// The third engine adapter — asyncnet.Runner, which adapts the
// asynchronous runtime to this interface — lives with its engine in
// package asyncnet, because asyncnet's own tests exercise experiment
// packages that are built on the harness and the adapter would otherwise
// close an import cycle.
