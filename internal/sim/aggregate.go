package sim

import (
	"fmt"
	"math/rand"

	"odeproto/internal/core"
	"odeproto/internal/mt19937"
	"odeproto/internal/ode"
)

// Aggregate is a count-based engine: instead of simulating N individual
// processes it evolves the per-state population counts with binomial draws
// (tau-leaping at protocol-period granularity). One period costs
// O(#actions) independent of N, which makes very large sweeps cheap; its
// trajectories agree with the agent engine in distribution, and the test
// suite cross-validates the two.
//
// Processes have no identity here, so experiments needing per-host data
// (Figure 8) must use the agent Engine.
type Aggregate struct {
	proto  *core.Protocol
	states []ode.Var
	rng    *rand.Rand

	counts map[ode.Var]int
	dead   int // crashed processes still absorbing contacts
	period int

	messageLoss float64
}

// NewAggregate builds a count-based engine with the given initial counts,
// legal by Compile's rule as for every other engine.
func NewAggregate(proto *core.Protocol, initial map[ode.Var]int, seed int64, messageLoss float64) (*Aggregate, error) {
	total := 0
	for _, c := range initial {
		total += c
	}
	tbl, err := Compile(proto, initial, total)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if messageLoss < 0 || messageLoss >= 1 {
		return nil, fmt.Errorf("sim: message loss %v outside [0,1)", messageLoss)
	}
	a := &Aggregate{
		proto:       proto,
		states:      proto.States,
		rng:         rand.New(mt19937.New(seed)),
		counts:      make(map[ode.Var]int, len(proto.States)),
		messageLoss: messageLoss,
	}
	for i, s := range tbl.States {
		a.counts[s] = tbl.Initial[i]
	}
	return a, nil
}

// N returns the total population (alive + crashed).
func (a *Aggregate) N() int {
	n := a.dead
	for _, c := range a.counts {
		n += c
	}
	return n
}

// Alive returns the alive population.
func (a *Aggregate) Alive() int { return a.N() - a.dead }

// Period returns the number of completed periods.
func (a *Aggregate) Period() int { return a.period }

// Count returns the alive population of one state.
func (a *Aggregate) Count(s ode.Var) int { return a.counts[s] }

// Counts returns a copy of all per-state counts.
func (a *Aggregate) Counts() map[ode.Var]int {
	out := make(map[ode.Var]int, len(a.counts))
	for k, v := range a.counts {
		out[k] = v
	}
	return out
}

// KillFraction crash-stops the given fraction of each state's population
// (massive correlated failure). Crashed processes keep absorbing contact
// attempts, as in the agent engine.
func (a *Aggregate) KillFraction(frac float64) int {
	killed := 0
	for _, s := range a.states {
		k := Binomial(a.rng, a.counts[s], frac)
		a.counts[s] -= k
		killed += k
	}
	a.dead += killed
	return killed
}

// contactFractions returns the probability that a uniform contact observes
// each state, accounting for crashed processes and message loss.
func (a *Aggregate) contactFractions() map[ode.Var]float64 {
	n := float64(a.N())
	out := make(map[ode.Var]float64, len(a.counts))
	if n == 0 {
		return out
	}
	for s, c := range a.counts {
		out[s] = (1 - a.messageLoss) * float64(c) / n
	}
	return out
}

// Step advances one protocol period.
func (a *Aggregate) Step() {
	point := a.contactFractions()
	delta := make(map[ode.Var]int, len(a.states))

	for _, s := range a.states {
		owners := a.counts[s]
		if owners == 0 {
			continue
		}
		remaining := owners
		for _, act := range a.proto.ActionsFor(s) {
			switch act.Kind {
			case core.Flip, core.Sample, core.SampleAny:
				p := fireProb(act, point)
				m := Binomial(a.rng, remaining, p)
				remaining -= m
				delta[act.From] -= m
				delta[act.To] += m
			case core.Push:
				// Each of the owner's contacts converts a From-process
				// with probability coin·(1−loss)·frac(From).
				contacts := owners * len(act.Samples)
				p := act.Coin * point[act.From]
				m := Binomial(a.rng, contacts, p)
				delta[act.From] -= m
				delta[act.To] += m
			case core.Token:
				p := fireProb(act, point)
				m := Binomial(a.rng, owners, p)
				delta[act.From] -= m
				delta[act.To] += m
			}
		}
	}

	// Apply, clamping states that were over-drained by push/token inflows
	// racing regular outflows (rare; mirrors the agent engine's
	// at-most-one-move rule).
	for _, s := range a.states {
		a.counts[s] += delta[s]
		if a.counts[s] < 0 {
			// Return the deficit to the state that received the excess:
			// proportional correction is unnecessary at population scale;
			// clamp and rebalance against the largest recipient.
			deficit := -a.counts[s]
			a.counts[s] = 0
			largest := s
			for _, t := range a.states {
				if a.counts[t] > a.counts[largest] {
					largest = t
				}
			}
			a.counts[largest] -= deficit
			if a.counts[largest] < 0 {
				a.counts[largest] = 0
			}
		}
	}
	a.period++
}

// fireProb mirrors core.Action.FireProbability with the per-contact loss
// already folded into point (the contact fractions); Flip needs the raw
// coin because it involves no contact.
func fireProb(act core.Action, point map[ode.Var]float64) float64 {
	if act.Kind == core.Flip {
		return act.Coin
	}
	return act.FireProbability(point)
}

// Run advances the given number of periods.
func (a *Aggregate) Run(periods int) {
	for i := 0; i < periods; i++ {
		a.Step()
	}
}
