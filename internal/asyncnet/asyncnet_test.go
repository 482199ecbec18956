package asyncnet

import (
	"testing"
	"time"

	"odeproto/internal/core"
	"odeproto/internal/endemic"
	"odeproto/internal/ode"
	"odeproto/internal/sim"
)

func mustTranslate(t *testing.T, src string, opts core.Options) *core.Protocol {
	t.Helper()
	sys, err := ode.Parse(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := core.Translate(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	return proto
}

func TestRunValidation(t *testing.T) {
	proto := mustTranslate(t, "x' = -x*y\ny' = x*y", core.Options{})
	cases := []Config{
		{N: 1, Protocol: proto, Periods: 1, Initial: map[ode.Var]int{"x": 1}},
		{N: 10, Periods: 1},
		{N: 10, Protocol: proto, Periods: 0, Initial: map[ode.Var]int{"x": 10}},
		{N: 10, Protocol: proto, Periods: 1, Initial: map[ode.Var]int{"x": 5}},
		{N: 10, Protocol: proto, Periods: 1, Initial: map[ode.Var]int{"x": 9, "q": 1}},
		{N: 10, Protocol: proto, Periods: 1, Initial: map[ode.Var]int{"x": 10}, Drift: 2},
		{N: 10, Protocol: proto, Periods: 1, Initial: map[ode.Var]int{"x": 10}, Mode: "realtime"},
		// The transport envelope carries the token TTL as an int16; a
		// larger bound would wrap and silently kill tokens after one hop.
		{N: 10, Protocol: proto, Periods: 1, Initial: map[ode.Var]int{"x": 10}, TokenTTL: 40000},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestEpidemicConvergesAsynchronously: the canonical pull epidemic reaches
// (essentially) everyone despite drifting clocks, delays and message loss
// (default virtual mode; TestVirtualMatchesWallclockLimiting repeats the
// check on the wallclock oracle). The period budget is generous and one
// straggler is tolerated.
func TestEpidemicConvergesAsynchronously(t *testing.T) {
	proto := mustTranslate(t, "x' = -x*y\ny' = x*y", core.Options{})
	res, err := Run(Config{
		N:          150,
		Protocol:   proto,
		Initial:    map[ode.Var]int{"x": 140, "y": 10},
		Seed:       1,
		Periods:    120,
		BasePeriod: 3 * time.Millisecond,
		Drift:      0.2,
		DropProb:   0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts["x"] > 1 {
		t.Fatalf("asynchronous epidemic left %d susceptibles after 120 periods", res.Counts["x"])
	}
	total := 0
	for _, c := range res.Counts {
		total += c
	}
	if total != 150 {
		t.Fatalf("population not conserved: %v", res.Counts)
	}
	if res.MessagesSent == 0 {
		t.Fatal("no messages sent")
	}
}

// TestPopulationConserved: counts always sum to N whatever the protocol,
// on both substrates.
func TestPopulationConserved(t *testing.T) {
	proto, err := endemic.NewFigure1Protocol(endemic.Params{B: 2, Gamma: 0.2, Alpha: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeVirtual, ModeWallclock} {
		res, err := Run(Config{
			N:        120,
			Protocol: proto,
			Initial:  map[ode.Var]int{endemic.Receptive: 60, endemic.Stash: 40, endemic.Averse: 20},
			Seed:     2,
			Periods:  40,
			Mode:     mode,
			DropProb: 0.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, c := range res.Counts {
			total += c
		}
		if total != 120 {
			t.Fatalf("mode %s: population %d, want 120: %v", mode, total, res.Counts)
		}
	}
}

// TestEndemicSurvivesAsynchrony: stash population persists (probabilistic
// safety) on the asynchronous runtime.
func TestEndemicSurvivesAsynchrony(t *testing.T) {
	proto, err := endemic.NewFigure1Protocol(endemic.Params{B: 2, Gamma: 0.1, Alpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		N:        200,
		Protocol: proto,
		Initial:  map[ode.Var]int{endemic.Receptive: 150, endemic.Stash: 50, endemic.Averse: 0},
		Seed:     3,
		Periods:  80,
		Drift:    0.2,
		DropProb: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[endemic.Stash] == 0 {
		t.Fatalf("all replicas lost on asynchronous runtime: %v", res.Counts)
	}
	// The endemic mix keeps all three transition edges busy.
	if res.Transitions.Edge(endemic.Receptive, endemic.Stash) == 0 {
		t.Fatal("no file transfers happened")
	}
	if res.Transitions.Edge(endemic.Stash, endemic.Averse) == 0 {
		t.Fatal("no deletions happened")
	}
}

// TestTokenProtocolAsync: tokenizing works over the random-walk TTL path.
func TestTokenProtocolAsync(t *testing.T) {
	proto := mustTranslate(t, "x' = -y^2\ny' = y^2", core.Options{})
	res, err := Run(Config{
		N:        100,
		Protocol: proto,
		Initial:  map[ode.Var]int{"x": 50, "y": 50},
		Seed:     4,
		Periods:  50,
		TokenTTL: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts["y"] <= 50 {
		t.Fatalf("token flow x→y did not happen: %v", res.Counts)
	}
}

// TestHeavyLossStillProgresses: 30% loss slows but does not stop the
// epidemic.
func TestHeavyLossStillProgresses(t *testing.T) {
	proto := mustTranslate(t, "x' = -x*y\ny' = x*y", core.Options{})
	res, err := Run(Config{
		N:        100,
		Protocol: proto,
		Initial:  map[ode.Var]int{"x": 50, "y": 50},
		Seed:     5,
		Periods:  30,
		DropProb: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts["y"] <= 55 {
		t.Fatalf("no progress under loss: %v", res.Counts)
	}
}

// TestLVMajorityAsync: majority selection also works on the asynchronous
// runtime — drifting clocks do not break competitive exclusion.
func TestLVMajorityAsync(t *testing.T) {
	sys, err := ode.Parse(`
x' = 3*x*z - 3*x*y
y' = 3*y*z - 3*x*y
z' = -3*x*z - 3*y*z + 3*x*y + 3*x*y
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := core.Translate(sys, core.Options{P: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		N:        200,
		Protocol: proto,
		Initial:  map[ode.Var]int{"x": 140, "y": 60, "z": 0},
		Seed:     9,
		Periods:  150,
		Drift:    0.2,
		DropProb: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts["x"] <= res.Counts["y"] {
		t.Fatalf("majority not preserved asynchronously: %v", res.Counts)
	}
	// Strong convergence: the minority should be (nearly) extinct.
	if res.Counts["y"] > 20 {
		t.Fatalf("minority population still large: %v", res.Counts)
	}
}

// TestValidationErrorDeterministic pins that config validation iterates
// Initial in sorted-key order: with several unknown states, the error
// always names the lexicographically first one instead of whichever map
// iteration surfaces first.
func TestValidationErrorDeterministic(t *testing.T) {
	proto := mustTranslate(t, "x' = -x*y\ny' = x*y", core.Options{})
	want := `asyncnet: initial state "q" not in protocol`
	for i := 0; i < 50; i++ {
		cfg := Config{N: 10, Protocol: proto, Periods: 1, Initial: map[ode.Var]int{"x": 8, "w": 1, "q": 1}}
		if _, err := Run(cfg); err == nil || err.Error() != want {
			t.Fatalf("run %d: err = %v, want %q", i, err, want)
		}
	}
}

// TestInitialValidationIsShared: the agent engine, Run and NewRunner take
// their initial population through one validator (sim.Compile), so each
// fault is rejected by all three with the same text. The negative-count
// case is the regression: Run used to pass {x: -5, y: 15} on its sum check
// and silently simulate {x: 0, y: 10}.
func TestInitialValidationIsShared(t *testing.T) {
	proto := mustTranslate(t, "x' = -x*y\ny' = x*y", core.Options{})
	for _, tc := range []struct {
		initial map[ode.Var]int
		want    string
	}{
		{map[ode.Var]int{"x": -5, "y": 15}, `negative initial count for "x"`},
		{map[ode.Var]int{"x": 9, "q": 1}, `initial state "q" not in protocol`},
		{map[ode.Var]int{"x": 3, "y": 3}, `initial counts sum to 6, want 10`},
		// Sorted-key order decides which of several faults is named.
		{map[ode.Var]int{"y": -1, "q": 1, "x": 10}, `initial state "q" not in protocol`},
	} {
		_, simErr := sim.New(sim.Config{N: 10, Protocol: proto, Initial: tc.initial})
		_, runErr := Run(Config{N: 10, Protocol: proto, Periods: 1, Initial: tc.initial})
		_, runnerErr := NewRunner(Config{N: 10, Protocol: proto, Initial: tc.initial})
		for _, got := range []struct {
			entry, prefix string
			err           error
		}{
			{"sim.New", "sim: ", simErr},
			{"asyncnet.Run", "asyncnet: ", runErr},
			{"asyncnet.NewRunner", "asyncnet: ", runnerErr},
		} {
			if got.err == nil || got.err.Error() != got.prefix+tc.want {
				t.Errorf("%s(%v): err = %v, want %q", got.entry, tc.initial, got.err, got.prefix+tc.want)
			}
		}
	}
}
