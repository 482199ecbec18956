package sim

import (
	"math"
	"testing"

	"odeproto/internal/core"
	"odeproto/internal/ode"
)

func mustTranslate(t *testing.T, src string, params map[string]float64, opts core.Options) *core.Protocol {
	t.Helper()
	sys, err := ode.Parse(src, params)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := core.Translate(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	return proto
}

func epidemicProto(t *testing.T) *core.Protocol {
	return mustTranslate(t, "x' = -x*y\ny' = x*y", nil, core.Options{})
}

func endemicProto(t *testing.T, beta, gamma, alpha float64) *core.Protocol {
	return mustTranslate(t, `
x' = -beta*x*y + alpha*z
y' = beta*x*y - gamma*y
z' = gamma*y - alpha*z
`, map[string]float64{"beta": beta, "gamma": gamma, "alpha": alpha}, core.Options{})
}

func TestNewValidation(t *testing.T) {
	proto := epidemicProto(t)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"tiny group", Config{N: 1, Protocol: proto, Initial: map[ode.Var]int{"x": 1}}},
		{"nil protocol", Config{N: 10}},
		{"bad counts", Config{N: 10, Protocol: proto, Initial: map[ode.Var]int{"x": 3, "y": 3}}},
		{"unknown state", Config{N: 10, Protocol: proto, Initial: map[ode.Var]int{"x": 9, "q": 1}}},
		{"negative count", Config{N: 10, Protocol: proto, Initial: map[ode.Var]int{"x": 11, "y": -1}}},
		{"bad loss", Config{N: 10, Protocol: proto, Initial: map[ode.Var]int{"x": 9, "y": 1}, MessageLoss: 1.0}},
		{"bad down", Config{N: 10, Protocol: proto, Initial: map[ode.Var]int{"x": 9, "y": 1}, InitiallyDown: 10}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestSingleProcessGroupRejected pins the N < 2 rejection: pickPeer draws
// rng.Intn(N-1), which panics at N = 1, so New must refuse the config with
// a clear error instead of handing back an engine that panics on Step.
func TestSingleProcessGroupRejected(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("New(N=1) panicked: %v", r)
		}
	}()
	for _, n := range []int{0, 1} {
		e, err := New(Config{N: n, Protocol: epidemicProto(t), Initial: map[ode.Var]int{"x": n}})
		if err == nil {
			e.Step() // would panic in pickPeer if New let N=1 through
			t.Fatalf("New accepted group size %d", n)
		}
		if n == 1 && err.Error() != "sim: group size 1 too small (peer sampling needs N >= 2)" {
			t.Fatalf("unhelpful rejection: %v", err)
		}
	}
}

func TestInitialLayout(t *testing.T) {
	e, err := New(Config{
		N:        100,
		Protocol: epidemicProto(t),
		Initial:  map[ode.Var]int{"x": 70, "y": 30},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Count("x") != 70 || e.Count("y") != 30 || e.Alive() != 100 {
		t.Fatalf("counts = %v alive = %d", e.Counts(), e.Alive())
	}
	fr := e.Fractions()
	if math.Abs(fr["x"]-0.7) > 1e-12 {
		t.Fatalf("fractions = %v", fr)
	}
}

func TestEpidemicInfectsEveryone(t *testing.T) {
	const n = 2000
	e, err := New(Config{
		N:        n,
		Protocol: epidemicProto(t),
		Initial:  map[ode.Var]int{"x": n - 1, "y": 1},
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for e.Count("x") > 0 && rounds < 200 {
		e.Step()
		rounds++
	}
	if e.Count("x") != 0 {
		t.Fatalf("epidemic did not complete after %d rounds (x = %d)", rounds, e.Count("x"))
	}
	// O(log N) rounds: log2(2000) ≈ 11; allow generous slack for the tail.
	if rounds > 60 {
		t.Fatalf("epidemic took %d rounds, want O(log N)", rounds)
	}
}

// TestOnePeriodDriftMatchesMeanField is the statistical half of the
// Theorem 1 check: transition counts over a single period from a fixed
// configuration match N·(expected flow) within sampling noise.
func TestOnePeriodDriftMatchesMeanField(t *testing.T) {
	const n = 200000
	proto := endemicProto(t, 4, 1.0, 0.01)
	initial := map[ode.Var]int{"x": n / 2, "y": n * 3 / 10, "z": n / 5}
	e, err := New(Config{N: n, Protocol: proto, Initial: initial, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	point := e.Fractions()
	e.Step()
	trans := e.TransitionsLastPeriod()

	for _, a := range proto.Actions {
		want := float64(n) * point[a.Owner] * a.FireProbability(point)
		got := float64(trans.Edge(a.From, a.To))
		// 6-sigma binomial tolerance.
		sigma := math.Sqrt(want * (1 - a.FireProbability(point)))
		if math.Abs(got-want) > 6*sigma+1 {
			t.Fatalf("edge %s->%s: got %v transitions, want %v ± %v", a.From, a.To, got, want, 6*sigma)
		}
	}
}

// TestEndemicEquilibriumMatchesAnalysis runs the protocol to steady state
// and compares the time-averaged stash population with the closed-form
// equilibrium (2) — the Figure 7 experiment at small scale.
func TestEndemicEquilibriumMatchesAnalysis(t *testing.T) {
	const n = 20000
	beta, gamma, alpha := 2.0, 0.1, 0.001
	proto := endemicProto(t, beta, gamma, alpha)
	e, err := New(Config{
		N:        n,
		Protocol: proto,
		Initial:  map[ode.Var]int{"x": n - n/10, "y": n / 10, "z": 0},
		Seed:     12345,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Equilibrium fractions.
	yInf := (1 - gamma/beta) / (1 + gamma/alpha)
	xInf := gamma / beta
	// Warm up, then time-average. The protocol time scale is p, so
	// relaxation takes ~1/(p·rate) periods.
	e.Run(4000)
	var ySum, xSum float64
	const samples = 2000
	for i := 0; i < samples; i++ {
		e.Step()
		ySum += float64(e.Count("y"))
		xSum += float64(e.Count("x"))
	}
	yAvg := ySum / samples
	xAvg := xSum / samples
	if math.Abs(yAvg-float64(n)*yInf) > 0.15*float64(n)*yInf {
		t.Fatalf("stash average %v, analysis %v", yAvg, float64(n)*yInf)
	}
	if math.Abs(xAvg-float64(n)*xInf) > 0.15*float64(n)*xInf {
		t.Fatalf("receptive average %v, analysis %v", xAvg, float64(n)*xInf)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *Engine {
		e, err := New(Config{
			N:        500,
			Protocol: endemicProto(t, 4, 1, 0.01),
			Initial:  map[ode.Var]int{"x": 400, "y": 100, "z": 0},
			Seed:     42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := mk(), mk()
	for i := 0; i < 50; i++ {
		a.Step()
		b.Step()
		for s, c := range a.Counts() {
			if b.Count(s) != c {
				t.Fatalf("diverged at period %d state %s", i, s)
			}
		}
	}
}

func TestKillFraction(t *testing.T) {
	e, err := New(Config{
		N:        10000,
		Protocol: epidemicProto(t),
		Initial:  map[ode.Var]int{"x": 5000, "y": 5000},
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	killed := e.KillFraction(0.5)
	if killed != 5000 {
		t.Fatalf("killed %d, want 5000", killed)
	}
	if e.Alive() != 5000 {
		t.Fatalf("alive = %d", e.Alive())
	}
	total := 0
	for _, c := range e.Counts() {
		total += c
	}
	if total != 5000 {
		t.Fatalf("state counts sum to %d after kill", total)
	}
	// Roughly half of each state should be gone (binomial, not exact).
	if e.Count("x") < 2200 || e.Count("x") > 2800 {
		t.Fatalf("x after 50%% kill = %d, want ≈ 2500", e.Count("x"))
	}
}

// TestKillFractionRoundsToNearest: the kill target is frac·alive rounded
// to nearest, not truncated — with 101 alive, "kill 50%" kills 51, as the
// figure captions imply, instead of the 50 truncation produced.
func TestKillFractionRoundsToNearest(t *testing.T) {
	mk := func(n int) *Engine {
		e, err := New(Config{
			N:        n,
			Protocol: epidemicProto(t),
			Initial:  map[ode.Var]int{"x": n, "y": 0},
			Seed:     3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	cases := []struct {
		alive  int
		frac   float64
		killed int
	}{
		{101, 0.5, 51},
		{100, 0.5, 50},
		{999, 0.1, 100}, // 99.9 rounds up
		{1001, 0.1, 100},
		{3, 0.5, 2}, // 1.5 rounds away from zero
	}
	for _, tc := range cases {
		e := mk(tc.alive)
		if got := e.KillFraction(tc.frac); got != tc.killed {
			t.Errorf("KillFraction(%v) of %d alive killed %d, want %d", tc.frac, tc.alive, got, tc.killed)
		} else if e.Alive() != tc.alive-tc.killed {
			t.Errorf("alive = %d after killing %d of %d", e.Alive(), tc.killed, tc.alive)
		}
	}
}

func TestKillAndReviveRoundTrip(t *testing.T) {
	e, err := New(Config{
		N:        100,
		Protocol: epidemicProto(t),
		Initial:  map[ode.Var]int{"x": 100, "y": 0},
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Kill(7)
	e.Kill(7) // idempotent
	if e.Alive() != 99 || e.StateOf(7) != Down {
		t.Fatalf("kill bookkeeping wrong: alive=%d state=%q", e.Alive(), e.StateOf(7))
	}
	if err := e.Revive(7, "y"); err != nil {
		t.Fatal(err)
	}
	if e.StateOf(7) != "y" || e.Count("y") != 1 || e.Alive() != 100 {
		t.Fatalf("revive bookkeeping wrong")
	}
	if err := e.Revive(7, "y"); err == nil {
		t.Fatal("expected error reviving alive process")
	}
}

func TestInitiallyDownAndOpenGroupJoin(t *testing.T) {
	// Open group: 100 members, 50 more join later.
	e, err := New(Config{
		N:             150,
		Protocol:      epidemicProto(t),
		Initial:       map[ode.Var]int{"x": 50, "y": 50},
		InitiallyDown: 50,
		Seed:          11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Alive() != 100 {
		t.Fatalf("alive = %d, want 100", e.Alive())
	}
	for p := 100; p < 150; p++ {
		if e.StateOf(p) != Down {
			t.Fatalf("process %d should start down", p)
		}
		if err := e.Revive(p, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if e.Alive() != 150 || e.Count("x") != 100 {
		t.Fatalf("join bookkeeping wrong: alive=%d x=%d", e.Alive(), e.Count("x"))
	}
	// New joiners get infected too.
	e.Run(100)
	if e.Count("y") != 150 {
		t.Fatalf("open group did not converge: %v", e.Counts())
	}
}

// TestCrashedContactsAreFruitless reproduces the paper's observation in
// Figure 5: contacts directed at crashed hosts never match, halving the
// effective contact rate after a 50% massive failure.
func TestCrashedContactsAreFruitless(t *testing.T) {
	const n = 100000
	proto := epidemicProto(t)
	e, err := New(Config{
		N:        n,
		Protocol: proto,
		Initial:  map[ode.Var]int{"x": n / 2, "y": n / 2},
		Seed:     21,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.KillFraction(0.5)
	aliveX := e.Count("x")
	aliveY := e.Count("y")
	e.Step()
	got := float64(e.TransitionsLastPeriod().Edge("x", "y"))
	// Each alive x contacts one uniform process; P(observe y) counts only
	// alive y relative to the full population: ≈ (N/4)/N = 0.25.
	want := float64(aliveX) * float64(aliveY) / float64(n)
	sigma := math.Sqrt(want)
	if math.Abs(got-want) > 8*sigma+1 {
		t.Fatalf("post-failure conversions %v, want ≈ %v", got, want)
	}
}

// TestMessageLossCompensation: with loss f and §3 compensation the drift
// still matches p·f̄; without compensation it is depressed by (1−f).
func TestMessageLossCompensation(t *testing.T) {
	const n = 200000
	const f = 0.3
	sys := "x' = -x*y\ny' = x*y"
	comp := mustTranslate(t, sys, nil, core.Options{FailureRate: f})
	e, err := New(Config{
		N:           n,
		Protocol:    comp,
		Initial:     map[ode.Var]int{"x": n / 2, "y": n / 2},
		Seed:        31,
		MessageLoss: f,
	})
	if err != nil {
		t.Fatal(err)
	}
	point := e.Fractions()
	e.Step()
	got := float64(e.TransitionsLastPeriod().Edge("x", "y"))
	want := float64(n) * comp.P * point["x"] * point["y"]
	sigma := math.Sqrt(want)
	if math.Abs(got-want) > 8*sigma+1 {
		t.Fatalf("compensated drift %v, want %v ± %v", got, want, 6*sigma)
	}
}

func TestMessagesPerPeriod(t *testing.T) {
	const n = 1000
	e, err := New(Config{
		N:        n,
		Protocol: epidemicProto(t),
		Initial:  map[ode.Var]int{"x": 600, "y": 400},
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	// Every susceptible sends exactly one sampling message; infectives
	// send none. Converted processes still sent their message first.
	if got := e.MessagesLastPeriod(); got != 600 {
		t.Fatalf("messages = %d, want 600", got)
	}
}

// TestTokenDirectedDelivery: token protocol x' = -y^2, y' = y^2 drains x
// through tokens and the mean-field drift matches.
func TestTokenDirectedDelivery(t *testing.T) {
	const n = 100000
	proto := mustTranslate(t, "x' = -y^2\ny' = y^2", nil, core.Options{})
	e, err := New(Config{
		N:        n,
		Protocol: proto,
		Initial:  map[ode.Var]int{"x": n / 2, "y": n / 2},
		Seed:     17,
	})
	if err != nil {
		t.Fatal(err)
	}
	point := e.Fractions()
	e.Step()
	got := float64(e.TransitionsLastPeriod().Edge("x", "y"))
	want := float64(n) * proto.P * point["y"] * point["y"]
	sigma := math.Sqrt(want)
	if math.Abs(got-want) > 8*sigma+1 {
		t.Fatalf("token drift %v, want %v", got, want)
	}
	if e.TokensLostLastPeriod() != 0 {
		t.Fatalf("tokens lost with plentiful targets: %d", e.TokensLostLastPeriod())
	}
}

func TestTokenDroppedWithoutTargets(t *testing.T) {
	const n = 1000
	proto := mustTranslate(t, "x' = -y^2\ny' = y^2", nil, core.Options{})
	e, err := New(Config{
		N:        n,
		Protocol: proto,
		Initial:  map[ode.Var]int{"x": 0, "y": n}, // nobody in x
		Seed:     19,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	if e.TokensLostLastPeriod() == 0 {
		t.Fatal("expected dropped tokens with empty target state")
	}
	if e.Count("y") != n {
		t.Fatalf("counts changed despite empty target: %v", e.Counts())
	}
}

// TestTokenCannotMoveFrozenProcess: directed delivery filters frozen
// processes when the per-period candidate pool is built AND when the pool
// is consumed. A process frozen after the pool was built — here by an
// OnTransition hook firing mid-period — must not be moved by later tokens
// of the same period.
func TestTokenCannotMoveFrozenProcess(t *testing.T) {
	const n = 2000
	proto := mustTranslate(t, "x' = -y^2\ny' = y^2", nil, core.Options{})
	var e *Engine
	var frozen []int
	froze := false
	cfg := Config{
		N:        n,
		Protocol: proto,
		Initial:  map[ode.Var]int{"x": n / 2, "y": n / 2},
		Seed:     37,
		OnTransition: func(proc int, from, to ode.Var, period int) {
			if froze {
				return
			}
			// First token of the period landed (and built the candidate
			// pool); freeze everything still in x so the stale pool is full
			// of now-frozen processes.
			froze = true
			for p := 0; p < n; p++ {
				if e.StateOf(p) == "x" && p != proc {
					e.Freeze(p)
					frozen = append(frozen, p)
				}
			}
		},
	}
	var err error
	e, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	if !froze {
		t.Fatal("no token delivered; the scenario never armed")
	}
	for _, p := range frozen {
		if e.StateOf(p) != "x" {
			t.Fatalf("token moved frozen process %d to %q", p, e.StateOf(p))
		}
	}
}

// TestTokenRandomWalkTTL: with a TTL-bounded random walk, tokens still
// deliver when targets are plentiful, and expire when targets are rare
// (§6 "Limitations of Tokenizing").
func TestTokenRandomWalkTTL(t *testing.T) {
	const n = 10000
	proto := mustTranslate(t, "x' = -y^2\ny' = y^2", nil, core.Options{})
	plentiful, err := New(Config{
		N:        n,
		Protocol: proto,
		Initial:  map[ode.Var]int{"x": n / 2, "y": n / 2},
		Seed:     23,
		TokenTTL: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	plentiful.Step()
	moved := plentiful.TransitionsLastPeriod().Edge("x", "y")
	if moved == 0 {
		t.Fatal("random-walk tokens never delivered")
	}
	scarce, err := New(Config{
		N:        n,
		Protocol: proto,
		Initial:  map[ode.Var]int{"x": 1, "y": n - 1},
		Seed:     29,
		TokenTTL: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	scarce.Run(3)
	if scarce.TokensLostLastPeriod() == 0 {
		t.Fatal("expected TTL expiries with scarce targets")
	}
}

func TestTransitionHook(t *testing.T) {
	var hooked int
	e, err := New(Config{
		N:        1000,
		Protocol: epidemicProto(t),
		Initial:  map[ode.Var]int{"x": 500, "y": 500},
		Seed:     4,
		OnTransition: func(proc int, from, to ode.Var, period int) {
			if from != "x" || to != "y" {
				t.Errorf("unexpected transition %s->%s", from, to)
			}
			hooked++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	if hooked != e.TransitionsLastPeriod().Edge("x", "y") {
		t.Fatalf("hook fired %d times, transitions %d", hooked, e.TransitionsLastPeriod().Edge("x", "y"))
	}
	if hooked == 0 {
		t.Fatal("no transitions at all")
	}
}

// TestTransitionsEdge: the table is row-major from × to in state order, and
// an edge naming a state outside it counts 0.
func TestTransitionsEdge(t *testing.T) {
	tr := Transitions{States: []ode.Var{"x", "y"}, Counts: []int{1, 2, 3, 4}}
	for _, c := range []struct {
		from, to ode.Var
		want     int
	}{{"x", "x", 1}, {"x", "y", 2}, {"y", "x", 3}, {"y", "y", 4}, {"x", "w", 0}, {"w", "y", 0}} {
		if got := tr.Edge(c.from, c.to); got != c.want {
			t.Errorf("Edge(%s, %s) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

func TestProcessesIn(t *testing.T) {
	e, err := New(Config{
		N:        10,
		Protocol: epidemicProto(t),
		Initial:  map[ode.Var]int{"x": 4, "y": 6},
		Seed:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	xs := e.ProcessesIn("x")
	if len(xs) != 4 {
		t.Fatalf("ProcessesIn(x) = %v", xs)
	}
	if got := e.ProcessesIn("nope"); got != nil {
		t.Fatalf("unknown state should give nil, got %v", got)
	}
}

// TestConservationUnderStress: counts always sum to alive, across steps,
// kills and revives, with a push-augmented protocol.
func TestConservationUnderStress(t *testing.T) {
	proto := endemicProto(t, 4, 1, 0.01)
	proto.Actions = append(proto.Actions, core.Action{
		Kind: core.Push, Owner: "y", From: "x", To: "y", Coin: 1,
		Samples: []ode.Var{"x", "x"},
	})
	e, err := New(Config{
		N:        5000,
		Protocol: proto,
		Initial:  map[ode.Var]int{"x": 4000, "y": 900, "z": 100},
		Seed:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := e.Rand()
	for i := 0; i < 100; i++ {
		e.Step()
		if i%10 == 3 {
			e.KillFraction(0.05)
		}
		if i%10 == 7 {
			for p := 0; p < e.N(); p++ {
				if e.StateOf(p) == Down && rng.Float64() < 0.5 {
					if err := e.Revive(p, "x"); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		total := 0
		for _, c := range e.Counts() {
			total += c
		}
		if total != e.Alive() {
			t.Fatalf("period %d: counts sum %d != alive %d", i, total, e.Alive())
		}
	}
}

// TestValidationErrorDeterministic pins that New validates Initial in
// sorted-key order: with several bad entries, the error always names the
// lexicographically first one instead of whichever map iteration
// surfaces first.
func TestValidationErrorDeterministic(t *testing.T) {
	proto := epidemicProto(t)
	want := `sim: initial state "q" not in protocol`
	for i := 0; i < 50; i++ {
		cfg := Config{N: 10, Protocol: proto, Initial: map[ode.Var]int{"x": 8, "w": 1, "q": 1}}
		_, err := New(cfg)
		if err == nil || err.Error() != want {
			t.Fatalf("run %d: err = %v, want %q", i, err, want)
		}
	}
}
