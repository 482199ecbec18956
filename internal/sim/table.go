package sim

import (
	"fmt"
	"sort"

	"odeproto/internal/core"
	"odeproto/internal/ode"
)

// Table is a protocol compiled for execution: states replaced by their
// index in protocol order, actions grouped by the state that owns them,
// and the initial population validated and laid out in state order. The
// agent engine, the count-based engine and the asynchronous runtime
// (internal/asyncnet) all execute from one, so what a protocol compiles
// to and which initial populations are legal is decided here and nowhere
// else.
type Table struct {
	// States are the protocol's states; a state's index is its position.
	States []ode.Var
	// Index maps a state to its index.
	Index map[ode.Var]int
	// Actions holds, per owner state index, the actions its occupants run
	// each period, in protocol order.
	Actions [][]Action
	// Initial is the starting count of every state, in state order.
	Initial []int
}

// Action is a core.Action with its states resolved to indices.
type Action struct {
	Kind    core.ActionKind
	Coin    float64
	Samples []int16
	From    int16
	To      int16
}

// Compile validates the protocol and the initial counts — every key a
// protocol state, no count negative, the counts summing to total — and
// builds the table. Errors carry no package prefix; callers add their own.
func Compile(proto *core.Protocol, initial map[ode.Var]int, total int) (*Table, error) {
	if proto == nil {
		return nil, fmt.Errorf("nil protocol")
	}
	if err := proto.Validate(); err != nil {
		return nil, fmt.Errorf("invalid protocol: %w", err)
	}
	t := &Table{
		States:  proto.States,
		Index:   make(map[ode.Var]int, len(proto.States)),
		Actions: make([][]Action, len(proto.States)),
		Initial: make([]int, len(proto.States)),
	}
	for i, s := range t.States {
		t.Index[s] = i
	}
	for _, a := range proto.Actions {
		ca := Action{
			Kind: a.Kind,
			Coin: a.Coin,
			From: int16(t.Index[a.From]),
			To:   int16(t.Index[a.To]),
		}
		for _, s := range a.Samples {
			ca.Samples = append(ca.Samples, int16(t.Index[s]))
		}
		owner := t.Index[a.Owner]
		t.Actions[owner] = append(t.Actions[owner], ca)
	}

	// Validate in sorted-key order so which bad entry the error names is
	// deterministic, not map-iteration-ordered.
	names := make([]string, 0, len(initial))
	for s := range initial {
		names = append(names, string(s))
	}
	sort.Strings(names)
	sum := 0
	for _, name := range names {
		s := ode.Var(name)
		i, ok := t.Index[s]
		if !ok {
			return nil, fmt.Errorf("initial state %q not in protocol", s)
		}
		c := initial[s]
		if c < 0 {
			return nil, fmt.Errorf("negative initial count for %q", s)
		}
		t.Initial[i] = c
		sum += c
	}
	if sum != total {
		return nil, fmt.Errorf("initial counts sum to %d, want %d", sum, total)
	}
	return t, nil
}

// Layout assigns the initial population to n process slots state by state,
// in state order; slots past the population (n exceeds the counts' sum
// when some processes start down) hold -1.
func (t *Table) Layout(n int) []int16 {
	out := make([]int16, 0, n)
	for i, c := range t.Initial {
		for ; c > 0; c-- {
			out = append(out, int16(i))
		}
	}
	for len(out) < n {
		out = append(out, -1)
	}
	return out
}

// count returns the entry of counts (per state, in state order) for s; a
// state not in the table counts 0.
func (t *Table) count(counts []int, s ode.Var) int {
	i, ok := t.Index[s]
	if !ok {
		return 0
	}
	return counts[i]
}

// countMap returns counts (per state, in state order) as a fresh map.
func (t *Table) countMap(counts []int) map[ode.Var]int {
	out := make(map[ode.Var]int, len(t.States))
	for i, s := range t.States {
		out[s] = counts[i]
	}
	return out
}
