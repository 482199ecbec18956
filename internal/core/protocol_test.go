package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"odeproto/internal/ode"
	"odeproto/internal/rewrite"
)

func mustParse(t *testing.T, src string, params map[string]float64) *ode.System {
	t.Helper()
	s, err := ode.Parse(src, params)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func epidemic(t *testing.T) *ode.System {
	return mustParse(t, "x' = -x*y\ny' = x*y", nil)
}

func endemic(t *testing.T, beta, gamma, alpha float64) *ode.System {
	return mustParse(t, `
x' = -beta*x*y + alpha*z
y' = beta*x*y - gamma*y
z' = gamma*y - alpha*z
`, map[string]float64{"beta": beta, "gamma": gamma, "alpha": alpha})
}

func lv(t *testing.T) *ode.System {
	return mustParse(t, `
x' = 3*x*z - 3*x*y
y' = 3*y*z - 3*x*y
z' = -3*x*z - 3*y*z + 3*x*y + 3*x*y
`, nil)
}

// randomSimplexPoint returns uniform fractions over the given variables.
func randomSimplexPoint(rng *rand.Rand, vars []ode.Var) map[ode.Var]float64 {
	cuts := make([]float64, len(vars)-1)
	for i := range cuts {
		cuts[i] = rng.Float64()
	}
	point := make(map[ode.Var]float64, len(vars))
	remaining := 1.0
	for i, v := range vars {
		if i == len(vars)-1 {
			point[v] = remaining
			break
		}
		share := remaining * cuts[i]
		point[v] = share
		remaining -= share
	}
	return point
}

func TestTranslateEpidemicIsCanonicalPull(t *testing.T) {
	proto, err := Translate(epidemic(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := proto.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(proto.Actions) != 1 {
		t.Fatalf("epidemic should compile to one action, got %d: %v", len(proto.Actions), proto.Actions)
	}
	a := proto.Actions[0]
	if a.Kind != Sample || a.Owner != "x" || a.To != "y" {
		t.Fatalf("unexpected action %v", a)
	}
	if len(a.Samples) != 1 || a.Samples[0] != "y" {
		t.Fatalf("canonical pull should sample one infective, got %v", a.Samples)
	}
	// c = 1 so the auto p is 1 and the coin is certain — exactly the
	// canonical epidemic pull of §1.
	if proto.P != 1 || a.Coin != 1 {
		t.Fatalf("p = %v coin = %v, want 1 and 1", proto.P, a.Coin)
	}
}

func TestTranslateEndemicActions(t *testing.T) {
	proto, err := Translate(endemic(t, 4, 1.0, 0.01), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := proto.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(proto.Actions) != 3 {
		t.Fatalf("endemic should compile to 3 actions, got %v", proto.Actions)
	}
	// Largest coefficient is β = 4 so p = 1/4.
	if math.Abs(proto.P-0.25) > 1e-12 {
		t.Fatalf("p = %v, want 0.25", proto.P)
	}
	byOwner := make(map[ode.Var]Action)
	for _, a := range proto.Actions {
		byOwner[a.Owner] = a
	}
	// x (receptive): one-time-sampling of a stasher, coin p·β = 1.
	ax := byOwner["x"]
	if ax.Kind != Sample || ax.To != "y" || len(ax.Samples) != 1 || ax.Samples[0] != "y" {
		t.Fatalf("receptive action = %v", ax)
	}
	if math.Abs(ax.Coin-1.0) > 1e-12 {
		t.Fatalf("receptive coin = %v, want 1", ax.Coin)
	}
	// y (stash): flipping with coin p·γ.
	ay := byOwner["y"]
	if ay.Kind != Flip || ay.To != "z" || math.Abs(ay.Coin-0.25) > 1e-12 {
		t.Fatalf("stash action = %v", ay)
	}
	// z (averse): flipping with coin p·α.
	az := byOwner["z"]
	if az.Kind != Flip || az.To != "x" || math.Abs(az.Coin-0.0025) > 1e-12 {
		t.Fatalf("averse action = %v", az)
	}
}

// TestTranslateLVMatchesFigure3 checks that translating equations (7)
// yields exactly the four one-time-sampling actions of Figure 3 with coin
// probability 3p.
func TestTranslateLVMatchesFigure3(t *testing.T) {
	const p = 0.01
	proto, err := Translate(lv(t), Options{P: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := proto.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(proto.Actions) != 4 {
		t.Fatalf("LV should compile to 4 actions, got %v", proto.Actions)
	}
	type sig struct {
		owner, sampled, to ode.Var
	}
	want := map[sig]bool{
		{"x", "y", "z"}: true, // x samples; target in y → z
		{"y", "x", "z"}: true, // y samples; target in x → z
		{"z", "x", "x"}: true, // z samples; target in x → x
		{"z", "y", "y"}: true, // z samples; target in y → y
	}
	for _, a := range proto.Actions {
		if a.Kind != Sample || len(a.Samples) != 1 {
			t.Fatalf("LV action should be single-sample: %v", a)
		}
		if math.Abs(a.Coin-3*p) > 1e-12 {
			t.Fatalf("LV coin = %v, want 3p = %v", a.Coin, 3*p)
		}
		s := sig{a.Owner, a.Samples[0], a.To}
		if !want[s] {
			t.Fatalf("unexpected LV action %v", a)
		}
		delete(want, s)
	}
	if len(want) != 0 {
		t.Fatalf("missing LV actions: %v", want)
	}
}

// TestTheorem1Equivalence is the mechanical check of Theorem 1: the
// expected per-period drift of the generated protocol equals p·f̄(X̄) at
// every point of the simplex.
func TestTheorem1Equivalence(t *testing.T) {
	systems := map[string]*ode.System{
		"epidemic": epidemic(t),
		"endemic":  endemic(t, 4, 1.0, 0.01),
		"lv":       lv(t),
	}
	rng := rand.New(rand.NewSource(42))
	for name, sys := range systems {
		proto, err := Translate(sys, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for trial := 0; trial < 300; trial++ {
			point := randomSimplexPoint(rng, sys.Vars())
			drift := proto.ExpectedFlow(point)
			rhs := sys.Eval(point)
			rhsPoint := sys.PointFromVec(rhs)
			for _, v := range sys.Vars() {
				want := proto.P * rhsPoint[v]
				if math.Abs(drift[v]-want) > 1e-12 {
					t.Fatalf("%s: drift[%s] = %v, want p·f = %v at %v", name, v, drift[v], want, point)
				}
			}
		}
	}
}

// TestTheorem5TokenizingEquivalence verifies the mean-field equivalence for
// a system requiring Tokenizing: x' = −y², y' = +y².
func TestTheorem5TokenizingEquivalence(t *testing.T) {
	sys := mustParse(t, "x' = -y^2\ny' = y^2", nil)
	if sys.IsRestrictedPolynomial() {
		t.Fatal("test premise broken: system should not be restricted")
	}
	proto, err := Translate(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(proto.Actions) != 1 {
		t.Fatalf("want one token action, got %v", proto.Actions)
	}
	a := proto.Actions[0]
	if a.Kind != Token || a.Owner != "y" || a.From != "x" || a.To != "y" {
		t.Fatalf("token action = %v", a)
	}
	// Witness y with exponent 2 samples (2−1) = 1 other process in y.
	if len(a.Samples) != 1 || a.Samples[0] != "y" {
		t.Fatalf("token samples = %v", a.Samples)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		point := randomSimplexPoint(rng, sys.Vars())
		drift := proto.ExpectedFlow(point)
		want := proto.P * point["y"] * point["y"]
		if math.Abs(drift["y"]-want) > 1e-12 || math.Abs(drift["x"]+want) > 1e-12 {
			t.Fatalf("token drift = %v, want ±%v", drift, want)
		}
	}
}

func TestTranslateConstantTermNeedsRewrite(t *testing.T) {
	sys := ode.NewSystem()
	sys.MustAddEquation("x", ode.NewTerm(-0.1, nil))
	sys.MustAddEquation("y", ode.NewTerm(0.1, nil))
	if _, err := Translate(sys, Options{}); err == nil {
		t.Fatal("expected error for constant term")
	}
	// After expanding constants the system translates (one flip + one token).
	expanded := rewrite.ExpandConstants(sys)
	proto, err := Translate(expanded, Options{})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[ActionKind]int{}
	for _, a := range proto.Actions {
		kinds[a.Kind]++
	}
	if kinds[Flip] != 1 || kinds[Token] != 1 {
		t.Fatalf("expected one flip and one token, got %v", proto.Actions)
	}
	// Mean-field drift still matches the expanded equations.
	point := map[ode.Var]float64{"x": 0.4, "y": 0.6}
	drift := proto.ExpectedFlow(point)
	want := proto.P * 0.1 // p·c·(x+y) = p·c on the simplex
	if math.Abs(drift["y"]-want) > 1e-12 {
		t.Fatalf("drift = %v, want %v", drift, want)
	}
}

func TestTranslateRejectsIncomplete(t *testing.T) {
	sys := mustParse(t, "x' = -x\ny' = 0.5*x", nil)
	if _, err := Translate(sys, Options{}); err == nil {
		t.Fatal("expected completeness error")
	}
}

func TestTranslateRejectsUnpairable(t *testing.T) {
	sys := ode.NewSystem()
	sys.MustAddEquation("x", ode.NewTerm(-2, map[ode.Var]int{"x": 1, "y": 1}))
	sys.MustAddEquation("y",
		ode.NewTerm(1, map[ode.Var]int{"x": 1, "y": 1}),
		ode.NewTerm(1, map[ode.Var]int{"x": 1, "y": 1}))
	if _, err := Translate(sys, Options{}); err == nil {
		t.Fatal("expected partitionability error")
	}
}

func TestTranslateRejectsBadFailureRate(t *testing.T) {
	for _, f := range []float64{-0.1, 1.0, 1.5} {
		if _, err := Translate(epidemic(t), Options{FailureRate: f}); err == nil {
			t.Fatalf("expected error for failure rate %v", f)
		}
	}
}

// TestFailureCompensation verifies §3 "The Effect of Failures": with
// failure rate f, sampling coins scale by (1/(1−f))^(|T|−1) so that the
// protocol on the lossy network still models the original equations.
func TestFailureCompensation(t *testing.T) {
	const f = 0.5
	proto, err := Translate(endemic(t, 4, 1.0, 0.01), Options{FailureRate: f})
	if err != nil {
		t.Fatal(err)
	}
	var sample, flip Action
	for _, a := range proto.Actions {
		switch a.Kind {
		case Sample:
			sample = a
		case Flip:
			if a.Owner == "y" {
				flip = a
			}
		}
	}
	// βxy has |T| = 2, so its coin is p·β·(1/(1−f)) = p·8; the auto p must
	// shrink to 1/8 to keep it ≤ 1.
	if math.Abs(proto.P-0.125) > 1e-12 {
		t.Fatalf("p = %v, want 0.125", proto.P)
	}
	if math.Abs(sample.Coin-1.0) > 1e-12 {
		t.Fatalf("sample coin = %v, want 1", sample.Coin)
	}
	// Flipping terms have |T| = 1: no compensation, coin = p·γ.
	if math.Abs(flip.Coin-0.125) > 1e-12 {
		t.Fatalf("flip coin = %v, want p·γ = 0.125", flip.Coin)
	}
}

// TestEffectiveDriftUnderFailures simulates the mean-field effect of
// message loss: each sampled target is independently lost with probability
// f, which multiplies a degree-d sampling action's fire probability by
// (1−f)^(d−1)·comp = 1 when compensated.
func TestEffectiveDriftUnderFailures(t *testing.T) {
	const f = 0.25
	sys := epidemic(t)
	proto, err := Translate(sys, Options{FailureRate: f})
	if err != nil {
		t.Fatal(err)
	}
	a := proto.Actions[0]
	// Lossy fire probability: coin · Π (1−f)·frac — every sample must
	// survive the connection attempt.
	point := map[ode.Var]float64{"x": 0.5, "y": 0.5}
	lossy := a.Coin * (1 - f) * point["y"]
	want := proto.P * point["x"] * point["y"] / point["x"]
	if math.Abs(lossy-want) > 1e-12 {
		t.Fatalf("lossy fire probability %v, want %v (compensation failed)", lossy, want)
	}
}

func TestAutoPKeepsCoinsValid(t *testing.T) {
	f := func(c1, c2 uint8) bool {
		a := float64(c1%50) + 1
		b := float64(c2%50) + 1
		sys := ode.NewSystem()
		sys.MustAddEquation("x",
			ode.NewTerm(-a, map[ode.Var]int{"x": 1, "y": 1}),
			ode.NewTerm(b, map[ode.Var]int{"y": 1}))
		sys.MustAddEquation("y",
			ode.NewTerm(a, map[ode.Var]int{"x": 1, "y": 1}),
			ode.NewTerm(-b, map[ode.Var]int{"y": 1}))
		proto, err := Translate(sys, Options{})
		if err != nil {
			return false
		}
		for _, act := range proto.Actions {
			if act.Coin < 0 || act.Coin > 1 {
				return false
			}
		}
		return proto.P > 0 && proto.P <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestExplicitPTooLarge(t *testing.T) {
	// β = 4 with p = 0.5 gives coin 2 > 1: must be rejected.
	if _, err := Translate(endemic(t, 4, 1, 0.01), Options{P: 0.5}); err == nil {
		t.Fatal("expected coin-overflow error")
	}
}

func TestSamplingMessages(t *testing.T) {
	proto, err := Translate(lv(t), Options{P: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// §3: messages = Σ occurrences − #negative terms. For LV state z:
	// terms −3xz and −3yz each sample 1 target → 2 messages.
	if got := proto.SamplingMessages("z"); got != 2 {
		t.Fatalf("z messages = %d, want 2", got)
	}
	if got := proto.SamplingMessages("x"); got != 1 {
		t.Fatalf("x messages = %d, want 1", got)
	}
}

func TestEffectiveSystemScaling(t *testing.T) {
	sys := endemic(t, 4, 1, 0.01)
	proto, err := Translate(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eff := proto.EffectiveSystem()
	point := map[ode.Var]float64{"x": 0.2, "y": 0.5, "z": 0.3}
	orig := sys.Eval(point)
	scaled := eff.Eval(point)
	for i := range orig {
		if math.Abs(scaled[i]-proto.P*orig[i]) > 1e-12 {
			t.Fatalf("effective system mis-scaled: %v vs p·%v", scaled, orig)
		}
	}
}

func TestValidateCatchesBrokenProtocols(t *testing.T) {
	base := &Protocol{States: []ode.Var{"a", "b"}, P: 0.5}
	cases := []struct {
		name  string
		proto Protocol
	}{
		{"dup state", Protocol{States: []ode.Var{"a", "a"}, P: 0.5}},
		{"bad p", Protocol{States: []ode.Var{"a"}, P: 0}},
		{"bad coin", Protocol{States: base.States, P: 0.5, Actions: []Action{{Kind: Flip, Owner: "a", From: "a", To: "b", Coin: 2}}}},
		{"unknown state", Protocol{States: base.States, P: 0.5, Actions: []Action{{Kind: Flip, Owner: "q", From: "q", To: "b", Coin: 0.1}}}},
		{"flip with samples", Protocol{States: base.States, P: 0.5, Actions: []Action{{Kind: Flip, Owner: "a", From: "a", To: "b", Coin: 0.1, Samples: []ode.Var{"b"}}}}},
		{"sample without samples", Protocol{States: base.States, P: 0.5, Actions: []Action{{Kind: Sample, Owner: "a", From: "a", To: "b", Coin: 0.1}}}},
		{"self loop", Protocol{States: base.States, P: 0.5, Actions: []Action{{Kind: Flip, Owner: "a", From: "a", To: "a", Coin: 0.1}}}},
		{"mixed sample-any", Protocol{States: base.States, P: 0.5, Actions: []Action{{Kind: SampleAny, Owner: "a", From: "a", To: "b", Coin: 0.1, Samples: []ode.Var{"a", "b"}}}}},
	}
	for _, tc := range cases {
		if err := tc.proto.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestFireProbabilityVariants(t *testing.T) {
	point := map[ode.Var]float64{"x": 0.3, "y": 0.2, "z": 0.5}
	flip := Action{Kind: Flip, Coin: 0.4}
	if got := flip.FireProbability(point); got != 0.4 {
		t.Fatalf("flip = %v", got)
	}
	sample := Action{Kind: Sample, Coin: 0.5, Samples: []ode.Var{"y", "y"}}
	if got := sample.FireProbability(point); math.Abs(got-0.5*0.04) > 1e-12 {
		t.Fatalf("sample = %v, want 0.02", got)
	}
	any := Action{Kind: SampleAny, Coin: 1, Samples: []ode.Var{"y", "y", "y"}}
	want := 1 - math.Pow(0.8, 3)
	if got := any.FireProbability(point); math.Abs(got-want) > 1e-12 {
		t.Fatalf("sample-any = %v, want %v", got, want)
	}
	push := Action{Kind: Push, Coin: 1, From: "x", Samples: []ode.Var{"x", "x"}}
	if got := push.FireProbability(point); math.Abs(got-2*0.3) > 1e-12 {
		t.Fatalf("push = %v, want 0.6", got)
	}
}

func TestProtocolString(t *testing.T) {
	proto, err := Translate(endemic(t, 4, 1, 0.01), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := proto.String()
	for _, want := range []string{"state x", "state y", "state z", "flip", "sample"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q:\n%s", want, s)
		}
	}
}

// TestExpectedFlowConservation: drift sums to zero (population conserved)
// for any protocol, at any point — including variant action kinds.
func TestExpectedFlowConservation(t *testing.T) {
	proto, err := Translate(endemic(t, 4, 1, 0.01), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Add a variant push action like endemic Figure 1 action (iv).
	proto.Actions = append(proto.Actions, Action{
		Kind: Push, Owner: "y", From: "x", To: "y", Coin: 1,
		Samples: []ode.Var{"x", "x"},
	})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		point := randomSimplexPoint(rng, proto.States)
		drift := proto.ExpectedFlow(point)
		var sum float64
		for _, d := range drift {
			sum += d
		}
		if math.Abs(sum) > 1e-12 {
			t.Fatalf("drift does not conserve population: %v", drift)
		}
	}
}

// TestTranslateDeterministic: two translations of the same system produce
// identical action lists.
func TestTranslateDeterministic(t *testing.T) {
	a, err := Translate(lv(t), Options{P: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Translate(lv(t), Options{P: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("nondeterministic translation:\n%s\nvs\n%s", a, b)
	}
}

// TestTokenStringWithEmptySamples covers the coin-only token rendering
// (constant-term tokenizing after ExpandConstants).
func TestTokenStringWithEmptySamples(t *testing.T) {
	a := Action{Kind: Token, Owner: "w", From: "a", To: "w", Coin: 0.05}
	s := a.String()
	if !strings.Contains(s, "token") || strings.Contains(s, "sample 0") {
		t.Fatalf("token rendering = %q", s)
	}
}

// TestTranslatePreservesStateOrder: protocol states follow the source
// system's insertion order, so engines lay populations out predictably.
func TestTranslatePreservesStateOrder(t *testing.T) {
	sys := mustParse(t, "b' = -b*a\na' = b*a", nil)
	proto, err := Translate(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if proto.States[0] != "b" || proto.States[1] != "a" {
		t.Fatalf("states = %v, want source order [b a]", proto.States)
	}
}

// TestSelfLoopPairsProduceNoAction: zero-sum pairs within one equation
// carry no net flow and must be dropped silently.
func TestSelfLoopPairsProduceNoAction(t *testing.T) {
	sys := ode.NewSystem()
	sys.MustAddEquation("x",
		ode.NewTerm(-1, map[ode.Var]int{"x": 1, "y": 1}),
		ode.NewTerm(1, map[ode.Var]int{"x": 1, "y": 1}),
		ode.NewTerm(-0.5, map[ode.Var]int{"x": 1}))
	sys.MustAddEquation("y", ode.NewTerm(0.5, map[ode.Var]int{"x": 1}))
	proto, err := Translate(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(proto.Actions) != 1 {
		t.Fatalf("self-loop pair leaked into actions: %v", proto.Actions)
	}
	if proto.Actions[0].Kind != Flip {
		t.Fatalf("surviving action should be the flip: %v", proto.Actions[0])
	}
}
