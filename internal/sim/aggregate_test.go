package sim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"odeproto/internal/core"
	"odeproto/internal/ode"
)

func TestBinomialMoments(t *testing.T) {
	rng := NewStream(1)
	cases := []struct {
		n int
		p float64
	}{
		{10, 0.3},      // exact path
		{500, 0.01},    // exact path
		{100000, 0.4},  // normal path
		{100000, 1e-4}, // Poisson path
		{5000, 0.9},    // complement path
	}
	for _, tc := range cases {
		const draws = 3000
		var sum, sumSq float64
		for i := 0; i < draws; i++ {
			k := Binomial(rng, tc.n, tc.p)
			if k < 0 || k > tc.n {
				t.Fatalf("Binomial(%d, %v) = %d out of range", tc.n, tc.p, k)
			}
			sum += float64(k)
			sumSq += float64(k) * float64(k)
		}
		mean := sum / draws
		wantMean := float64(tc.n) * tc.p
		wantStd := math.Sqrt(wantMean * (1 - tc.p))
		tol := 5 * wantStd / math.Sqrt(draws) * 2
		if tol < 0.1 {
			tol = 0.1
		}
		if math.Abs(mean-wantMean) > tol+0.02*wantMean {
			t.Fatalf("Binomial(%d,%v): mean %v, want %v", tc.n, tc.p, mean, wantMean)
		}
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	rng := NewStream(2)
	if Binomial(rng, 0, 0.5) != 0 {
		t.Fatal("n=0 must give 0")
	}
	if Binomial(rng, 10, 0) != 0 {
		t.Fatal("p=0 must give 0")
	}
	if Binomial(rng, 10, 1) != 10 {
		t.Fatal("p=1 must give n")
	}
	if Binomial(rng, -5, 0.5) != 0 {
		t.Fatal("negative n must give 0")
	}
}

func TestBinomialRangeProperty(t *testing.T) {
	rng := NewStream(3)
	f := func(n uint16, pRaw uint16) bool {
		p := float64(pRaw) / 65535
		k := Binomial(rng, int(n), p)
		return k >= 0 && k <= int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonMean(t *testing.T) {
	rng := NewStream(4)
	for _, mean := range []float64{0.5, 5, 40, 200} {
		const draws = 5000
		var sum float64
		for i := 0; i < draws; i++ {
			sum += float64(Poisson(rng, mean))
		}
		got := sum / draws
		if math.Abs(got-mean) > 0.1*mean+0.1 {
			t.Fatalf("Poisson(%v) mean = %v", mean, got)
		}
	}
}

func TestAggregateValidation(t *testing.T) {
	proto := epidemicProto(t)
	if _, err := NewAggregate(nil, nil, 1, 0); err == nil {
		t.Fatal("nil protocol accepted")
	}
	if _, err := NewAggregate(proto, map[ode.Var]int{"x": -1}, 1, 0); err == nil {
		t.Fatal("negative count accepted")
	}
	if _, err := NewAggregate(proto, map[ode.Var]int{"x": 1}, 1, 1.5); err == nil {
		t.Fatal("bad loss accepted")
	}
}

// TestAggregateInitialLegalByCompile: the aggregate engine admits exactly the
// initial populations the agent engine does. A key that is no protocol state
// is an error naming it, not 500 processes dropped on the floor.
func TestAggregateInitialLegalByCompile(t *testing.T) {
	proto := endemicProto(t, 4, 1, 0.01)
	initial := map[ode.Var]int{"q": 500, "y": 10}
	_, aggErr := NewAggregate(proto, initial, 1, 0)
	_, agentErr := New(Config{N: 510, Protocol: proto, Initial: initial, Seed: 1})
	if aggErr == nil || agentErr == nil || !strings.Contains(aggErr.Error(), `initial state "q" not in protocol`) {
		t.Fatalf("initial %v: aggregate err %v, agent err %v; want both to refuse state q", initial, aggErr, agentErr)
	}
	a, err := NewAggregate(proto, map[ode.Var]int{"x": 500, "y": 10}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 510 || a.Count("z") != 0 {
		t.Fatalf("legal initial: N %d, z %d", a.N(), a.Count("z"))
	}
}

func TestAggregateConservation(t *testing.T) {
	proto := endemicProto(t, 4, 1, 0.01)
	a, err := NewAggregate(proto, map[ode.Var]int{"x": 90000, "y": 9000, "z": 1000}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		a.Step()
		if a.N() != 100000 {
			t.Fatalf("period %d: population %d, want 100000", i, a.N())
		}
	}
}

// TestAggregateMatchesAgent cross-validates the two engines: same endemic
// protocol, same initial condition — their steady-state stash populations
// must agree.
func TestAggregateMatchesAgent(t *testing.T) {
	const n = 20000
	beta, gamma, alpha := 2.0, 0.1, 0.001
	proto := endemicProto(t, beta, gamma, alpha)
	initial := map[ode.Var]int{"x": n - n/10, "y": n / 10, "z": 0}

	agent, err := New(Config{N: n, Protocol: proto, Initial: initial, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregate(proto, initial, 78, 0)
	if err != nil {
		t.Fatal(err)
	}
	agent.Run(4000)
	agg.Run(4000)
	avg := func(step func(), count func() int) float64 {
		var s float64
		for i := 0; i < 1000; i++ {
			step()
			s += float64(count())
		}
		return s / 1000
	}
	agentY := avg(agent.Step, func() int { return agent.Count("y") })
	aggY := avg(agg.Step, func() int { return agg.Count("y") })
	if math.Abs(agentY-aggY) > 0.15*agentY {
		t.Fatalf("agent stash %v vs aggregate %v", agentY, aggY)
	}
}

func TestAggregateKillFraction(t *testing.T) {
	proto := epidemicProto(t)
	a, err := NewAggregate(proto, map[ode.Var]int{"x": 5000, "y": 5000}, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	killed := a.KillFraction(0.5)
	if killed < 4500 || killed > 5500 {
		t.Fatalf("killed %d, want ≈ 5000", killed)
	}
	if a.Alive() != 10000-killed {
		t.Fatalf("alive %d after killing %d", a.Alive(), killed)
	}
	if a.N() != 10000 {
		t.Fatalf("total population %d, want 10000 (dead absorb contacts)", a.N())
	}
}

// TestAggregateCrashedAbsorbContacts: after a massive failure, conversions
// slow down because contacts hit dead processes.
func TestAggregateCrashedAbsorbContacts(t *testing.T) {
	proto := epidemicProto(t)
	mk := func() *Aggregate {
		a, err := NewAggregate(proto, map[ode.Var]int{"x": 50000, "y": 50000}, 9, 0)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	whole := mk()
	whole.Step()
	wholeConv := 50000 - whole.Count("x")

	halved := mk()
	halved.KillFraction(0.5)
	x0 := halved.Count("x")
	halved.Step()
	halvedConv := x0 - halved.Count("x")

	// Conversion probability halves (≈0.5 vs ≈0.25 per x-process).
	ratio := float64(wholeConv) / float64(x0) * float64(x0) / float64(halvedConv) / 2
	_ = ratio
	pWhole := float64(wholeConv) / 50000.0
	pHalved := float64(halvedConv) / float64(x0)
	if math.Abs(pWhole-0.5) > 0.03 {
		t.Fatalf("whole-group conversion prob %v, want ≈ 0.5", pWhole)
	}
	if math.Abs(pHalved-0.25) > 0.03 {
		t.Fatalf("post-failure conversion prob %v, want ≈ 0.25", pHalved)
	}
}

func TestAggregateCountsCopy(t *testing.T) {
	proto := epidemicProto(t)
	a, err := NewAggregate(proto, map[ode.Var]int{"x": 10, "y": 0}, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := a.Counts()
	c["x"] = 999
	if a.Count("x") != 10 {
		t.Fatal("Counts() exposed internal storage")
	}
}

// TestAggregateLVMajority: the aggregate engine reproduces LV majority
// convergence (competitive exclusion) at population scale.
func TestAggregateLVMajority(t *testing.T) {
	proto := mustTranslate(t, `
x' = 3*x*z - 3*x*y
y' = 3*y*z - 3*x*y
z' = -3*x*z - 3*y*z + 3*x*y + 3*x*y
`, nil, core.Options{P: 0.05})
	a, err := NewAggregate(proto, map[ode.Var]int{"x": 60000, "y": 40000, "z": 0}, 44, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500 && a.Count("x") != a.Alive(); i++ {
		a.Step()
	}
	if a.Count("x") != a.Alive() {
		t.Fatalf("aggregate LV did not converge to majority: %v", a.Counts())
	}
}

// TestAggregateMessageLossSlowsEpidemic: the aggregate engine honours the
// per-contact loss probability.
func TestAggregateMessageLossSlowsEpidemic(t *testing.T) {
	proto := epidemicProto(t)
	clean, err := NewAggregate(proto, map[ode.Var]int{"x": 50000, "y": 50000}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := NewAggregate(proto, map[ode.Var]int{"x": 50000, "y": 50000}, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	clean.Step()
	lossy.Step()
	cleanConv := 50000 - clean.Count("x")
	lossyConv := 50000 - lossy.Count("x")
	ratio := float64(lossyConv) / float64(cleanConv)
	if math.Abs(ratio-0.5) > 0.1 {
		t.Fatalf("loss ratio %v, want ≈ 0.5", ratio)
	}
}

// TestAggregateStepAllocatesNothing: a period draws from buffers sized at
// construction — counts, deltas and contact fractions are reused, never
// rebuilt.
func TestAggregateStepAllocatesNothing(t *testing.T) {
	proto := endemicProto(t, 4, 1, 0.01)
	proto.Actions = append(proto.Actions, core.Action{
		Kind: core.Push, Owner: "y", From: "x", To: "y", Coin: 0.5,
		Samples: []ode.Var{"x"},
	})
	a, err := NewAggregate(proto, map[ode.Var]int{"x": 90000, "y": 9000, "z": 1000}, 5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	a.Run(3)
	if got := testing.AllocsPerRun(100, a.Step); got != 0 {
		t.Fatalf("Step allocates %v times per period, want 0", got)
	}
}
