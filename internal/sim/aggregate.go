package sim

import (
	"fmt"

	"odeproto/internal/core"
	"odeproto/internal/ode"
)

// Aggregate is a count-based engine: instead of simulating N individual
// processes it evolves the per-state population counts with binomial draws
// (tau-leaping at protocol-period granularity). One period draws one
// Binomial per action: O(#actions) when every action draws over more than
// 1024 processes, which makes very large sweeps cheap, and a Bernoulli draw
// per process and action below that (Binomial lists its branches). Its
// trajectories agree with the agent engine in distribution, and the test
// suite cross-validates the two.
//
// Processes have no identity here, so experiments needing per-host data
// (Figure 8) must use the agent Engine.
type Aggregate struct {
	tbl *Table
	rng Stream
	// owned holds, per owner state index, the source actions of
	// tbl.Actions in the same order; their FireProbability is the firing
	// chance of a period's draw.
	owned [][]core.Action

	counts []int // alive population per state, in state order
	delta  []int // the period's net change per state
	// frac is the probability that a uniform contact observes each state,
	// accounting for crashed processes and message loss; Step refreshes
	// it in place.
	frac   map[ode.Var]float64
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
		tbl:         tbl,
		rng:         NewStream(seed),
		owned:       make([][]core.Action, len(tbl.States)),
		counts:      append([]int(nil), tbl.Initial...),
		delta:       make([]int, len(tbl.States)),
		frac:        make(map[ode.Var]float64, len(tbl.States)),
		messageLoss: messageLoss,
	}
	for _, act := range proto.Actions {
		owner := tbl.Index[act.Owner]
		a.owned[owner] = append(a.owned[owner], act)
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
func (a *Aggregate) Count(s ode.Var) int { return a.tbl.count(a.counts, s) }

// Counts returns a copy of all per-state counts.
func (a *Aggregate) Counts() map[ode.Var]int { return a.tbl.countMap(a.counts) }

// KillFraction crash-stops the given fraction of each state's population
// (massive correlated failure). Crashed processes keep absorbing contact
// attempts, as in the agent engine.
func (a *Aggregate) KillFraction(frac float64) int {
	killed := 0
	for s, c := range a.counts {
		k := Binomial(a.rng, c, frac)
		a.counts[s] -= k
		killed += k
	}
	a.dead += killed
	return killed
}

// Step advances one protocol period.
func (a *Aggregate) Step() {
	n := float64(a.N())
	for s, c := range a.counts {
		f := 0.0
		if n > 0 {
			f = (1 - a.messageLoss) * float64(c) / n
		}
		a.frac[a.tbl.States[s]] = f
	}
	clear(a.delta)

	for s, owners := range a.counts {
		if owners == 0 {
			continue
		}
		remaining := owners
		for i, act := range a.tbl.Actions[s] {
			src := &a.owned[s][i]
			m := 0
			switch act.Kind {
			case core.Flip, core.Sample, core.SampleAny:
				m = Binomial(a.rng, remaining, src.FireProbability(a.frac))
				remaining -= m
			case core.Push:
				// Each of the owner's contacts converts a From-process
				// with probability coin·(1−loss)·frac(From).
				m = Binomial(a.rng, owners*len(act.Samples), src.Coin*a.frac[src.From])
			case core.Token:
				m = Binomial(a.rng, owners, src.FireProbability(a.frac))
			}
			a.delta[act.From] -= m
			a.delta[act.To] += m
		}
	}

	// Apply, clamping states that were over-drained by push/token inflows
	// racing regular outflows (rare; mirrors the agent engine's
	// at-most-one-move rule).
	for s := range a.counts {
		a.counts[s] += a.delta[s]
		if a.counts[s] < 0 {
			// Return the deficit to the state that received the excess:
			// proportional correction is unnecessary at population scale;
			// clamp and rebalance against the largest recipient.
			deficit := -a.counts[s]
			a.counts[s] = 0
			largest := s
			for t, c := range a.counts {
				if c > a.counts[largest] {
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

// Run advances the given number of periods.
func (a *Aggregate) Run(periods int) {
	for i := 0; i < periods; i++ {
		a.Step()
	}
}
