package asyncnet

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"odeproto/internal/core"
	"odeproto/internal/endemic"
	"odeproto/internal/ode"
	"odeproto/internal/sim"
)

// endemicConfig is a virtual-mode run with every message kind in flight
// (samples, pushes, and the timeout path) and loss/drift/delay all on.
func endemicConfig(t *testing.T) Config {
	t.Helper()
	proto, err := endemic.NewFigure1Protocol(endemic.Params{B: 2, Gamma: 0.2, Alpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		N:        300,
		Protocol: proto,
		Initial:  map[ode.Var]int{endemic.Receptive: 200, endemic.Stash: 80, endemic.Averse: 20},
		Seed:     41,
		Periods:  60,
		Drift:    0.2,
		DropProb: 0.05,
	}
}

// TestVirtualDeterministicAcrossRuns: a fixed seed reproduces the exact
// Result — counts, every transition edge, and the message total — across
// repeated executions. This is the contract that makes virtual asyncnet
// jobs content-addressable in internal/service.
func TestVirtualDeterministicAcrossRuns(t *testing.T) {
	cfg := endemicConfig(t)
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.MessagesSent == 0 {
		t.Fatal("no messages sent; the determinism check would be vacuous")
	}
	for i := 0; i < 2; i++ {
		again, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d diverged:\nfirst: %+v\nagain: %+v", i+2, first, again)
		}
	}
}

// TestVirtualDeterministicAcrossGOMAXPROCS: the scheduler is a single
// event loop, so the runtime's parallelism must not leak into results.
func TestVirtualDeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := endemicConfig(t)
	baseline, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(baseline, got) {
			t.Fatalf("GOMAXPROCS=%d diverged:\nbaseline: %+v\ngot:      %+v", procs, baseline, got)
		}
	}
}

// TestVirtualSeedAndModeSplitResults: different seeds give different
// executions, and the two modes are (unsurprisingly) different streams —
// guarding against a bug where the seed or mode is ignored.
func TestVirtualSeedAndModeSplitResults(t *testing.T) {
	cfg := endemicConfig(t)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Seed++
	b, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("seed change did not change the virtual execution")
	}
}

// TestVirtualMatchesWallclockLimiting: the virtual scheduler and the
// goroutine runtime are different interleavings of the same model, so
// they must agree on limiting behaviour (statistically, like the
// asyncnet-vs-synchronous integration tests). The epidemic protocol must
// converge on both substrates, and the endemic protocol must keep a live
// stash population on both.
func TestVirtualMatchesWallclockLimiting(t *testing.T) {
	epi := mustTranslate(t, "x' = -x*y\ny' = x*y", core.Options{})
	for _, mode := range []Mode{ModeVirtual, ModeWallclock} {
		res, err := Run(Config{
			N:          150,
			Protocol:   epi,
			Initial:    map[ode.Var]int{"x": 140, "y": 10},
			Seed:       1,
			Periods:    120,
			Mode:       mode,
			BasePeriod: 3 * time.Millisecond,
			Drift:      0.2,
			DropProb:   0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Counts["x"] > 1 {
			t.Fatalf("mode %s: epidemic left %d susceptibles after 120 periods", mode, res.Counts["x"])
		}
	}

	endemicProto, err := endemic.NewFigure1Protocol(endemic.Params{B: 2, Gamma: 0.1, Alpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeVirtual, ModeWallclock} {
		res, err := Run(Config{
			N:        200,
			Protocol: endemicProto,
			Initial:  map[ode.Var]int{endemic.Receptive: 150, endemic.Stash: 50, endemic.Averse: 0},
			Seed:     3,
			Periods:  80,
			Mode:     mode,
			Drift:    0.2,
			DropProb: 0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Counts[endemic.Stash] == 0 {
			t.Fatalf("mode %s: all replicas lost: %v", mode, res.Counts)
		}
		if res.Transitions.Edge(endemic.Receptive, endemic.Stash) == 0 {
			t.Fatalf("mode %s: no file transfers happened", mode)
		}
	}
}

// TestVirtualOverflowDelays exercises the calendar queue's overflow path:
// a MaxDelay far beyond the ring span still delivers messages, conserves
// the population, and stays deterministic.
func TestVirtualOverflowDelays(t *testing.T) {
	proto := mustTranslate(t, "x' = -x*y\ny' = x*y", core.Options{})
	cfg := Config{
		N:          80,
		Protocol:   proto,
		Initial:    map[ode.Var]int{"x": 40, "y": 40},
		Seed:       7,
		Periods:    30,
		BasePeriod: time.Millisecond,
		// ~8000 bucket widths past the 1024-bucket ring: every delayed
		// delivery takes the overflow path.
		MaxDelay: 500 * time.Millisecond,
	}
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range first.Counts {
		total += c
	}
	if total != 80 {
		t.Fatalf("population not conserved under overflow delays: %v", first.Counts)
	}
	if first.MessagesSent == 0 {
		t.Fatal("no messages sent")
	}
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("overflow-path execution is not deterministic")
	}
}

// TestRunnerVirtualSegmentsDeterministic: the harness adapter re-seeds
// each segment from (base seed, segment index), so a fixed call sequence
// reproduces counts, transitions, and message totals exactly.
func TestRunnerVirtualSegmentsDeterministic(t *testing.T) {
	proto := mustTranslate(t, "x' = -x*y\ny' = x*y", core.Options{})
	mk := func() *Runner {
		r, err := NewRunner(Config{
			N: 120, Protocol: proto,
			Initial: map[ode.Var]int{"x": 100, "y": 20},
			Seed:    13,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := mk(), mk()
	for _, r := range []*Runner{a, b} {
		r.Run(5)
		r.Run(3)
		r.Step()
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(a.Counts(), b.Counts()) {
		t.Fatalf("segmented counts diverged: %v vs %v", a.Counts(), b.Counts())
	}
	if a.MessagesSent() != b.MessagesSent() {
		t.Fatalf("segmented message totals diverged: %d vs %d", a.MessagesSent(), b.MessagesSent())
	}
	if !reflect.DeepEqual(a.TransitionsTotal(), b.TransitionsTotal()) {
		t.Fatal("segmented transition totals diverged")
	}
}

// drainVirtual runs one virtual run and returns its scheduler, with the
// processes in their final states.
func drainVirtual(cfg *Config, tbl *sim.Table) *virtualRunner {
	v := newVirtualRunner(*cfg, tbl)
	v.drain()
	return v
}

// TestQueryRoutesDoNotLeak: routing entries for replies lost to the
// network must be cleaned when their instance is decided, or a long
// lossy run grows the per-process bookkeeping without bound.
func TestQueryRoutesDoNotLeak(t *testing.T) {
	proto := mustTranslate(t, "x' = -x*y\ny' = x*y", core.Options{})
	cfg := Config{
		N:        60,
		Protocol: proto,
		Initial:  map[ode.Var]int{"x": 50, "y": 10},
		Seed:     21,
		Periods:  40,
		DropProb: 0.5, // half of all queries/replies die in transit
	}
	tbl, err := (&cfg).validate()
	if err != nil {
		t.Fatal(err)
	}
	v := drainVirtual(&cfg, tbl)
	if v.sent == 0 {
		t.Fatal("no messages sent; leak check would be vacuous")
	}
	for _, p := range v.procs {
		routes := 0
		for _, in := range p.inflight {
			for _, r := range in.results {
				if r == -2 {
					routes++
				}
			}
		}
		if routes != 0 {
			t.Fatalf("process %d finished the run with %d leaked query routes", p.id, routes)
		}
		if n := len(p.inflight); n != 0 {
			t.Fatalf("process %d finished the run with %d undecided instances", p.id, n)
		}
	}
}

// TestModeValidation: unknown modes are rejected by both entry points,
// and the empty mode normalizes to virtual.
func TestModeValidation(t *testing.T) {
	proto := mustTranslate(t, "x' = -x*y\ny' = x*y", core.Options{})
	cfg := Config{N: 10, Protocol: proto, Periods: 1, Initial: map[ode.Var]int{"x": 10}, Mode: "hybrid"}
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted an unknown mode")
	}
	if _, err := NewRunner(cfg); err == nil {
		t.Fatal("NewRunner accepted an unknown mode")
	}
	m, err := Mode("").Normalize()
	if err != nil || m != ModeVirtual {
		t.Fatalf("empty mode normalized to (%q, %v), want virtual", m, err)
	}
}

// TestVirtualAllocationIsPerRun: a virtual run allocates per group, not
// per message or per sampling instance, so doubling the periods (and
// with them the messages) adds almost nothing; and a Runner's segments
// share one group, so every segment after the first allocates only its
// layout and its result.
func TestVirtualAllocationIsPerRun(t *testing.T) {
	cfg := endemicConfig(t)
	cfg.N = 2000
	cfg.Initial = map[ode.Var]int{endemic.Receptive: 1400, endemic.Stash: 500, endemic.Averse: 100}
	run := func(periods int) (allocs float64, msgs int) {
		c := cfg
		c.Periods = periods
		allocs = testing.AllocsPerRun(2, func() {
			res, err := Run(c)
			if err != nil {
				t.Fatal(err)
			}
			msgs = res.MessagesSent
		})
		return allocs, msgs
	}
	short, shortMsgs := run(12)
	long, longMsgs := run(24)
	t.Logf("Run allocations: %.0f at 12 periods (%d messages), %.0f at 24 (%d)", short, shortMsgs, long, longMsgs)
	if longMsgs < shortMsgs*3/2 {
		t.Fatalf("24 periods sent %d messages, 12 sent %d: the comparison would not show per-message allocation", longMsgs, shortMsgs)
	}
	if long > short+32 {
		t.Errorf("a 24-period run allocates %.0f, a 12-period one %.0f: more than 32 apart", long, short)
	}

	segments := func(steps int) float64 {
		return testing.AllocsPerRun(2, func() {
			r, err := NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for range steps {
				r.Step()
			}
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, twelve := segments(1), segments(12)
	t.Logf("Runner allocations: %.0f for one Step, %.0f for 12", one, twelve)
	if twelve > one+16*11 {
		t.Errorf("12 Steps allocate %.0f, one Step %.0f: more than 16 per further segment", twelve, one)
	}
}
