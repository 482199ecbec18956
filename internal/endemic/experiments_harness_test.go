package endemic

import (
	"reflect"
	"runtime"
	"testing"

	"odeproto/internal/sim"
)

// figure2Reference reproduces the pre-harness sequential implementation of
// PhasePortrait verbatim — one hand-rolled loop per initial point, seeds
// seed + i·7919 — and is the golden reference the harness-based
// implementation must match byte for byte.
func figure2Reference(t *testing.T, p Params, initials []InitialCounts, periods, sampleEvery int, seed int64) []Trajectory {
	t.Helper()
	proto, err := NewFigure1Protocol(p)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Trajectory, 0, len(initials))
	for i, ic := range initials {
		e, err := sim.New(sim.Config{
			N:        ic.total(),
			Protocol: proto,
			Initial:  ic.toMap(),
			Seed:     seed + int64(i)*7919,
		})
		if err != nil {
			t.Fatal(err)
		}
		tr := Trajectory{Initial: ic}
		for tt := 0; tt < periods; tt++ {
			if tt%sampleEvery == 0 {
				tr.Xs = append(tr.Xs, float64(e.Count(Receptive)))
				tr.Ys = append(tr.Ys, float64(e.Count(Stash)))
			}
			e.Step()
		}
		out = append(out, tr)
	}
	return out
}

// TestPhasePortraitMatchesPreHarnessSequential pins the harness refactor
// to the pre-refactor behaviour: same seeds, same per-engine RNG streams,
// byte-identical Figure 2 trajectories.
func TestPhasePortraitMatchesPreHarnessSequential(t *testing.T) {
	p := Params{B: 2, Gamma: 1.0, Alpha: 0.01}
	const periods, sampleEvery, seed = 120, 5, 2004
	want := figure2Reference(t, p, Figure2InitialPoints(), periods, sampleEvery, seed)
	got, err := PhasePortrait(p, Figure2InitialPoints(), periods, sampleEvery, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("harness PhasePortrait differs from the pre-harness sequential implementation")
	}
}

// TestPhasePortraitWorkerCountIndependence verifies the harness
// determinism contract on the real Figure 2 entry point: sweeps at
// GOMAXPROCS 1, 4, and the default (the worker-pool size follows it) all
// produce byte-identical trajectories.
func TestPhasePortraitWorkerCountIndependence(t *testing.T) {
	p := Params{B: 2, Gamma: 1.0, Alpha: 0.01}
	const periods, sampleEvery, seed = 120, 5, 2004
	run := func(procs int) []Trajectory {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		trs, err := PhasePortrait(p, Figure2InitialPoints(), periods, sampleEvery, seed)
		if err != nil {
			t.Fatal(err)
		}
		return trs
	}
	reference := run(1)
	for _, procs := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := run(procs); !reflect.DeepEqual(got, reference) {
			t.Fatalf("PhasePortrait output differs at GOMAXPROCS=%d", procs)
		}
	}
}

// TestMassiveFailureSeedsMatchesSingleRuns verifies that the parallel
// multi-seed fan-out returns exactly what sequential single runs return,
// in seed order.
func TestMassiveFailureSeedsMatchesSingleRuns(t *testing.T) {
	cfg := MassiveFailureConfig{
		N:      400,
		Params: Params{B: 2, Gamma: 0.1, Alpha: 0.01},
		FailAt: 20, FailFrac: 0.5,
		Periods: 40, RecordFrom: 0,
	}
	seeds := []int64{3, 1, 7}
	many, err := RunMassiveFailureSeeds(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range seeds {
		c := cfg
		c.Seed = s
		single, err := RunMassiveFailure(c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(many[i], single) {
			t.Fatalf("seed %d: parallel result differs from single run", s)
		}
	}
}
