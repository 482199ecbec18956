// Package core implements the paper's primary contribution: the framework
// that translates systems of differential equations into distributed
// protocols (§3 and §6).
//
// A mappable equation system (polynomial and completely partitionable, §2)
// is compiled into a Protocol: a probabilistic state machine with one state
// per variable and one periodic action per zero-sum term pair. The three
// mapping techniques of the paper are implemented:
//
//   - Flipping for terms −c·x: a biased local coin with heads probability
//     p·c, flipped once per protocol period.
//   - One-Time-Sampling for terms −c·x^i·Π y^j with i ≥ 1: sample
//     (i−1) + Σj processes uniformly at random, require their states to
//     match the term's variables in lexicographic order, and flip a coin
//     with heads probability p·c.
//   - Tokenizing for negative terms that do not contain the equation's own
//     variable (§6): a process in a chosen witness state runs the sampling
//     action and, on success, emits a token that moves some process in the
//     term's home state.
//
// The package also defines two variant action kinds, SampleAny and Push,
// used by the paper's Figure-1 endemic protocol (the errata notes Figure 1
// is "a variant of that obtained through the methodology"); they are not
// produced by Translate but execute on the same engines and participate in
// the same mean-field analysis.
//
// ExpectedFlow computes the exact expected per-period population drift of a
// protocol, which is how the Theorem 1/5 equivalence (protocol ≡ p·f̄(X̄)
// in infinite groups) is verified mechanically throughout the repository.
package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"odeproto/internal/ode"
)

// ActionKind enumerates the kinds of periodic actions a protocol state can
// own.
type ActionKind int

const (
	// Flip is the paper's Flipping technique: a local biased coin, no
	// communication.
	Flip ActionKind = iota + 1
	// Sample is the paper's One-Time-Sampling technique: sample the
	// required sequence of states, then flip the coin.
	Sample
	// Token is the paper's Tokenizing technique (§6): the owner runs a
	// sampling action and on success emits a token that transitions some
	// process in state From.
	Token
	// SampleAny is a variant kind (endemic Figure 1, action (iii)): the
	// owner samples len(Samples) targets and fires if ANY of them is in
	// the state Samples[0]. All entries of Samples are identical.
	SampleAny
	// Push is a variant kind (endemic Figure 1, action (iv)): the owner
	// samples len(Samples) targets, and every sampled target currently in
	// state From transitions to To (the owner itself does not move).
	Push
)

// String returns the technique name.
func (k ActionKind) String() string {
	switch k {
	case Flip:
		return "flip"
	case Sample:
		return "sample"
	case Token:
		return "token"
	case SampleAny:
		return "sample-any"
	case Push:
		return "push"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// Action is one periodic probabilistic action. Every process in state Owner
// executes the action once at the beginning of every protocol period.
type Action struct {
	// Kind selects the technique.
	Kind ActionKind
	// Owner is the state whose occupants execute the action.
	Owner ode.Var
	// Coin is the heads probability of the local biased coin. For
	// framework-generated actions it equals p·c_T, scaled by the §3
	// failure-compensation factor when a failure rate is configured.
	Coin float64
	// Samples lists the states the sampled targets must occupy, in order
	// (lexicographic per §3.1). Empty for Flip.
	Samples []ode.Var
	// From is the state a process leaves when the action fires. It equals
	// Owner except for Token (the token's target state) and Push (the
	// pushed targets' state).
	From ode.Var
	// To is the destination state.
	To ode.Var
	// TermCoef is the source term's constant c_T (0 for hand-built
	// variant actions with no source term).
	TermCoef float64
}

// FireProbability returns the probability that one execution of the action
// fires, in an infinite group whose state occupancy fractions are given by
// point. For Push it returns the expected number of converted targets
// instead (which may exceed 1).
func (a Action) FireProbability(point map[ode.Var]float64) float64 {
	switch a.Kind {
	case Flip:
		return a.Coin
	case Sample, Token:
		p := a.Coin
		for _, s := range a.Samples {
			p *= point[s]
		}
		return p
	case SampleAny:
		if len(a.Samples) == 0 {
			return 0
		}
		miss := 1.0
		for _, s := range a.Samples {
			miss *= 1 - point[s]
		}
		return a.Coin * (1 - miss)
	case Push:
		return a.Coin * float64(len(a.Samples)) * point[a.From]
	default:
		panic(fmt.Sprintf("core: unknown action kind %v", a.Kind))
	}
}

// String renders the action in the style of the paper's Figure 3 captions.
func (a Action) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "state %s: ", a.Owner)
	switch a.Kind {
	case Flip:
		fmt.Fprintf(&sb, "flip coin(%.6g); on heads move %s->%s", a.Coin, a.From, a.To)
	case Sample:
		fmt.Fprintf(&sb, "sample %d target(s) requiring states %v and flip coin(%.6g); on success move %s->%s",
			len(a.Samples), a.Samples, a.Coin, a.From, a.To)
	case Token:
		if len(a.Samples) == 0 {
			fmt.Fprintf(&sb, "flip coin(%.6g); on heads send token moving some process %s->%s",
				a.Coin, a.From, a.To)
		} else {
			fmt.Fprintf(&sb, "sample %d target(s) requiring states %v and flip coin(%.6g); on success send token moving some process %s->%s",
				len(a.Samples), a.Samples, a.Coin, a.From, a.To)
		}
	case SampleAny:
		fmt.Fprintf(&sb, "sample %d target(s); if any is in state %s (coin %.6g) move %s->%s",
			len(a.Samples), a.Samples[0], a.Coin, a.From, a.To)
	case Push:
		fmt.Fprintf(&sb, "sample %d target(s); each target in state %s moves to %s (coin %.6g)",
			len(a.Samples), a.From, a.To, a.Coin)
	}
	return sb.String()
}

// Protocol is a compiled probabilistic protocol state machine.
type Protocol struct {
	// States are the machine's states, one per source variable, in the
	// source system's insertion order.
	States []ode.Var
	// Actions are the periodic actions, grouped by owner in state order.
	Actions []Action
	// P is the normalizing constant p (§3.1): one protocol period advances
	// the source equations by p time units, so smaller p means slower but
	// always-valid (coin ≤ 1) execution.
	P float64
	// FailureRate is the per-connection failure probability f compensated
	// for via the §3 multiplicative factor, or 0.
	FailureRate float64
	// Source is the equation system the protocol was generated from (nil
	// for hand-built protocols).
	Source *ode.System
}

// Options configure Translate.
type Options struct {
	// P fixes the normalizing constant. Zero selects the largest p ≤ 1
	// such that every action's coin probability is at most one.
	P float64
	// FailureRate is the group-wide failure rate f per connection attempt.
	// When non-zero, every sampling action's coin is scaled by
	// (1/(1−f))^(|T|−1) per §3 "The Effect of Failures", and the
	// auto-selected p shrinks accordingly.
	FailureRate float64
}

// Translate compiles a polynomial, completely partitionable equation system
// into a distributed protocol (Theorem 1 and, when Tokenizing is needed,
// Theorem 5 as corrected by the errata). It returns an error when the
// system is outside the mappable class; use the rewrite package to bring
// systems into mappable form first.
func Translate(sys *ode.System, opts Options) (*Protocol, error) {
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("core: system is not polynomial: %w", err)
	}
	if !sys.IsComplete() {
		return nil, fmt.Errorf("core: system is not complete (defect %v); apply rewrite.Complete", sys.CompletenessDefect())
	}
	pairs, err := sys.Partition()
	if err != nil {
		return nil, fmt.Errorf("core: system is not completely partitionable: %w", err)
	}
	if opts.FailureRate < 0 || opts.FailureRate >= 1 {
		return nil, fmt.Errorf("core: failure rate %v outside [0,1)", opts.FailureRate)
	}

	type draft struct {
		action Action
		comp   float64 // failure compensation factor for this action's term
	}
	var drafts []draft
	for _, pair := range pairs {
		x := pair.Neg.Var
		y := pair.Pos.Var
		if x == y {
			// A zero-sum pair inside one equation carries no net flow; it
			// induces no action.
			continue
		}
		t := pair.Neg.Term(sys)
		comp := 1.0
		if opts.FailureRate > 0 && t.Degree() > 1 {
			comp = math.Pow(1/(1-opts.FailureRate), float64(t.Degree()-1))
		}
		a := Action{
			Owner:    x,
			From:     x,
			To:       y,
			TermCoef: t.Coef,
		}
		switch {
		case t.Exponent(x) >= 1:
			a.Samples = sampleSequence(t, x)
			if len(a.Samples) == 0 {
				a.Kind = Flip
			} else {
				a.Kind = Sample
			}
		default:
			// Tokenizing (§6): the term lacks the home variable. Pick the
			// lexicographically smallest variable present as the witness.
			w, ok := witnessVar(t)
			if !ok {
				return nil, fmt.Errorf("core: constant term %s in equation for %q; apply rewrite.ExpandConstants first", t, x)
			}
			a.Kind = Token
			a.Owner = w
			a.Samples = sampleSequence(t, w)
		}
		drafts = append(drafts, draft{action: a, comp: comp})
	}

	// Choose the normalizing constant p.
	p := opts.P
	if p == 0 {
		p = 1
		for _, d := range drafts {
			if limit := 1 / (d.action.TermCoef * d.comp); limit < p {
				p = limit
			}
		}
	}
	if p <= 0 || p > 1 {
		return nil, fmt.Errorf("core: normalizing constant p = %v outside (0,1]", p)
	}

	proto := &Protocol{
		States:      append([]ode.Var(nil), sys.Vars()...),
		P:           p,
		FailureRate: opts.FailureRate,
		Source:      sys.Clone(),
	}
	for _, d := range drafts {
		a := d.action
		a.Coin = p * a.TermCoef * d.comp
		if a.Coin > 1+1e-12 {
			return nil, fmt.Errorf("core: action %v has coin probability %v > 1; decrease Options.P", a, a.Coin)
		}
		if a.Coin > 1 {
			a.Coin = 1
		}
		proto.Actions = append(proto.Actions, a)
	}
	sortActions(proto.Actions, proto.States)
	return proto, nil
}

// sampleSequence builds the ordered list of required sampled states for a
// One-Time-Sampling action owned by owner, per §3.1: (i_owner − 1) samples
// of the owner's own state followed by i_v samples of every other variable
// in lexicographic order.
func sampleSequence(t ode.Term, owner ode.Var) []ode.Var {
	var out []ode.Var
	for i := 0; i < t.Exponent(owner)-1; i++ {
		out = append(out, owner)
	}
	for _, v := range t.OrderedVars() {
		if v == owner {
			continue
		}
		for i := 0; i < t.Exponent(v); i++ {
			out = append(out, v)
		}
	}
	return out
}

// witnessVar picks the lexicographically smallest variable with a positive
// exponent, used as the Tokenizing witness state.
func witnessVar(t ode.Term) (ode.Var, bool) {
	vars := t.OrderedVars()
	if len(vars) == 0 {
		return "", false
	}
	return vars[0], true
}

// sortActions orders actions by owner (in state order), then kind, then
// destination, for deterministic output.
func sortActions(actions []Action, states []ode.Var) {
	pos := make(map[ode.Var]int, len(states))
	for i, s := range states {
		pos[s] = i
	}
	sort.SliceStable(actions, func(i, j int) bool {
		a, b := actions[i], actions[j]
		if pos[a.Owner] != pos[b.Owner] {
			return pos[a.Owner] < pos[b.Owner]
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.To < b.To
	})
}

// HasState reports whether the protocol contains the state.
func (p *Protocol) HasState(s ode.Var) bool {
	for _, st := range p.States {
		if st == s {
			return true
		}
	}
	return false
}

// Validate checks structural invariants of the protocol: states are
// distinct, every action references known states, and coins are
// probabilities.
func (p *Protocol) Validate() error {
	seen := make(map[ode.Var]bool, len(p.States))
	for _, s := range p.States {
		if seen[s] {
			return fmt.Errorf("core: duplicate state %q", s)
		}
		seen[s] = true
	}
	if p.P <= 0 || p.P > 1 {
		return fmt.Errorf("core: normalizing constant %v outside (0,1]", p.P)
	}
	for i, a := range p.Actions {
		if a.Coin < 0 || a.Coin > 1 {
			return fmt.Errorf("core: action %d coin %v outside [0,1]", i, a.Coin)
		}
		for _, s := range append([]ode.Var{a.Owner, a.From, a.To}, a.Samples...) {
			if !seen[s] {
				return fmt.Errorf("core: action %d references unknown state %q", i, s)
			}
		}
		switch a.Kind {
		case Flip:
			if len(a.Samples) != 0 {
				return fmt.Errorf("core: flip action %d must not sample", i)
			}
			if a.From != a.Owner {
				return fmt.Errorf("core: flip action %d must move its owner", i)
			}
		case Sample:
			if len(a.Samples) == 0 {
				return fmt.Errorf("core: sample action %d has no samples", i)
			}
			if a.From != a.Owner {
				return fmt.Errorf("core: sample action %d must move its owner", i)
			}
		case SampleAny:
			if len(a.Samples) == 0 {
				return fmt.Errorf("core: sample-any action %d has no samples", i)
			}
			for _, s := range a.Samples {
				if s != a.Samples[0] {
					return fmt.Errorf("core: sample-any action %d has mixed sample states", i)
				}
			}
		case Token, Push:
			// From may legitimately differ from Owner.
		default:
			return fmt.Errorf("core: action %d has unknown kind %v", i, a.Kind)
		}
		if a.From == a.To {
			return fmt.Errorf("core: action %d is a self-loop %q->%q", i, a.From, a.To)
		}
	}
	return nil
}

// ExpectedFlow returns the expected per-period drift of the fraction of
// processes in each state, at the given occupancy point, in an infinite
// group. For framework-generated protocols this equals p·f̄(X̄) — the
// content of Theorems 1 and 5 — and the repository's tests verify exactly
// that identity.
func (p *Protocol) ExpectedFlow(point map[ode.Var]float64) map[ode.Var]float64 {
	drift := make(map[ode.Var]float64, len(p.States))
	for _, s := range p.States {
		drift[s] = 0
	}
	for _, a := range p.Actions {
		rate := point[a.Owner] * a.FireProbability(point)
		drift[a.From] -= rate
		drift[a.To] += rate
	}
	return drift
}

// SamplingMessages returns the number of sampling messages a process in the
// given state sends per protocol period, the §3 message-complexity measure
// ("the sum of the number of occurrences of all variables in negative terms
// in fx, less the number of negative terms").
func (p *Protocol) SamplingMessages(state ode.Var) int {
	n := 0
	for _, a := range p.Actions {
		if a.Owner == state {
			n += len(a.Samples)
		}
	}
	return n
}

// TimeScale returns the factor converting protocol periods to source-
// equation time: one period advances the equations by TimeScale() time
// units.
func (p *Protocol) TimeScale() float64 { return p.P }

// EffectiveSystem returns the equation system the protocol actually
// executes per period: the source system with every term scaled by p (and,
// when a failure rate is configured, the §3 compensation restoring the
// original rates). Returns nil for hand-built protocols without a source.
func (p *Protocol) EffectiveSystem() *ode.System {
	if p.Source == nil {
		return nil
	}
	out := ode.NewSystem()
	for _, v := range p.Source.Vars() {
		eq, _ := p.Source.Equation(v)
		terms := make([]ode.Term, 0, len(eq.Terms))
		for _, t := range eq.Terms {
			nt := t.Clone()
			nt.Coef *= p.P
			terms = append(terms, nt)
		}
		out.MustAddEquation(v, terms...)
	}
	return out
}

// String renders the protocol: states, normalizing constant, and one line
// per action.
func (p *Protocol) String() string {
	var sb strings.Builder
	names := make([]string, len(p.States))
	for i, s := range p.States {
		names[i] = string(s)
	}
	fmt.Fprintf(&sb, "protocol over states {%s}, p = %.6g", strings.Join(names, ", "), p.P)
	if p.FailureRate > 0 {
		fmt.Fprintf(&sb, ", failure-compensated for f = %.3g", p.FailureRate)
	}
	sb.WriteByte('\n')
	for _, a := range p.Actions {
		sb.WriteString("  ")
		sb.WriteString(a.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
