package harness_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"odeproto/internal/core"
	"odeproto/internal/endemic"
	"odeproto/internal/harness"
	"odeproto/internal/ode"
	"odeproto/internal/sim"
)

// --- Runner adapters ---

func figure1Protocol(t *testing.T) *core.Protocol {
	t.Helper()
	proto, err := endemic.NewFigure1Protocol(endemic.Params{B: 2, Gamma: 0.1, Alpha: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	return proto
}

func TestAgentRunnerMatchesEngine(t *testing.T) {
	proto := figure1Protocol(t)
	cfg := sim.Config{
		N: 500, Protocol: proto,
		Initial: map[ode.Var]int{endemic.Receptive: 450, endemic.Stash: 50, endemic.Averse: 0},
		Seed:    7,
	}
	r, err := harness.NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Run(50)
	e.Run(50)
	if r.Period() != e.Period() || r.Alive() != e.Alive() {
		t.Fatalf("adapter diverged: period %d vs %d, alive %d vs %d",
			r.Period(), e.Period(), r.Alive(), e.Alive())
	}
	if !reflect.DeepEqual(r.Counts(), e.Counts()) {
		t.Fatalf("adapter counts %v != engine counts %v", r.Counts(), e.Counts())
	}
}

func TestAgentRunnerPerturb(t *testing.T) {
	proto := figure1Protocol(t)
	r, err := harness.NewAgent(sim.Config{
		N: 100, Protocol: proto,
		Initial: map[ode.Var]int{endemic.Receptive: 90, endemic.Stash: 10, endemic.Averse: 0},
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	killed, err := r.Perturb(harness.Perturbation{Kind: harness.KillFraction, Frac: 0.5})
	if err != nil || killed != 50 {
		t.Fatalf("KillFraction = (%d, %v), want (50, nil)", killed, err)
	}
	if r.Alive() != 50 {
		t.Fatalf("alive = %d after killing 50 of 100", r.Alive())
	}
	// Kill is idempotent per process.
	if n, err := r.Perturb(harness.Perturbation{Kind: harness.Kill, Proc: 0}); err != nil {
		t.Fatal(err)
	} else if n > 1 {
		t.Fatalf("Kill affected %d processes", n)
	}
	first, err := r.Perturb(harness.Perturbation{Kind: harness.Kill, Proc: 0})
	if err != nil || first != 0 {
		t.Fatalf("second Kill of proc 0 = (%d, %v), want (0, nil)", first, err)
	}
	// Revive restores it; a second Revive is a no-op, not an error.
	if n, err := r.Perturb(harness.Perturbation{Kind: harness.Revive, Proc: 0, State: endemic.Receptive}); err != nil || n != 1 {
		t.Fatalf("Revive = (%d, %v), want (1, nil)", n, err)
	}
	if n, err := r.Perturb(harness.Perturbation{Kind: harness.Revive, Proc: 0, State: endemic.Receptive}); err != nil || n != 0 {
		t.Fatalf("idempotent Revive = (%d, %v), want (0, nil)", n, err)
	}
	if n, err := r.Perturb(harness.Perturbation{Kind: harness.Freeze, Proc: 0}); err != nil || n != 1 {
		t.Fatalf("Freeze = (%d, %v), want (1, nil)", n, err)
	}
	if n, err := r.Perturb(harness.Perturbation{Kind: harness.Unfreeze, Proc: 0}); err != nil || n != 1 {
		t.Fatalf("Unfreeze = (%d, %v), want (1, nil)", n, err)
	}
	if _, err := r.Perturb(harness.Perturbation{Kind: harness.PerturbKind(99)}); err == nil {
		t.Fatal("unknown perturbation kind did not error")
	}
}

func TestAggregateRunnerPerturb(t *testing.T) {
	proto := figure1Protocol(t)
	r, err := harness.NewAggregate(proto, map[ode.Var]int{
		endemic.Receptive: 9000, endemic.Stash: 1000, endemic.Averse: 0,
	}, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.Run(20)
	if r.Period() != 20 {
		t.Fatalf("period = %d, want 20", r.Period())
	}
	killed, err := r.Perturb(harness.Perturbation{Kind: harness.KillFraction, Frac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Alive(); got != 10000-killed {
		t.Fatalf("alive = %d, want %d", got, 10000-killed)
	}
	if _, err := r.Perturb(harness.Perturbation{Kind: harness.Freeze, Proc: 3}); err != harness.ErrUnsupported {
		t.Fatalf("aggregate Freeze error = %v, want ErrUnsupported", err)
	}
}

// --- seed derivation ---

func TestDeriveSeedDeterministicAndDistinct(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 1000; i++ {
		s := harness.DeriveSeed(42, i)
		if s2 := harness.DeriveSeed(42, i); s2 != s {
			t.Fatalf("DeriveSeed(42, %d) unstable: %d vs %d", i, s, s2)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("DeriveSeed collision between indices %d and %d", prev, i)
		}
		seen[s] = i
	}
	if harness.DeriveSeed(1, 0) == harness.DeriveSeed(2, 0) {
		t.Fatal("different bases produced the same seed")
	}
	// Absolute values: every sharded stream, asyncnet segment and derived
	// job seed hangs off this function, so moving it moves cached results.
	for _, pin := range []struct {
		base int64
		idx  int
		want int64
	}{
		{42, 0, -4767286540954276203},
		{42, 1, 2949826092126892291},
		{2004, 7, -8169361741465525273},
		{-1, 3, 7862637804313477842},
		{0, 0, -2152535657050944081},
	} {
		if got := harness.DeriveSeed(pin.base, pin.idx); got != pin.want {
			t.Fatalf("DeriveSeed(%d, %d) = %d, want %d", pin.base, pin.idx, got, pin.want)
		}
	}
}

// --- Sweep semantics ---

func TestSweepAppliesEventsInOrder(t *testing.T) {
	proto := figure1Protocol(t)
	var freezeSeen, killSeen int
	job := harness.Job{
		Name: "events",
		Seed: 1,
		New: func(seed int64) (harness.Runner, error) {
			return harness.NewAgent(sim.Config{
				N: 100, Protocol: proto,
				Initial: map[ode.Var]int{endemic.Receptive: 99, endemic.Stash: 1, endemic.Averse: 0},
				Seed:    seed,
			})
		},
		Periods: 10,
		// Deliberately unsorted: the sweep must order by period.
		Events: []harness.Event{
			{At: 5, P: harness.Perturbation{Kind: harness.KillFraction, Frac: 0.5}},
			{At: 2, P: harness.Perturbation{Kind: harness.Freeze, Proc: 0}},
		},
		BeforeStep: func(r harness.Runner, tt int) {
			a := r.(*harness.AgentRunner)
			if a.Frozen(0) && freezeSeen == 0 {
				freezeSeen = tt
			}
			if r.Alive() < 100 && killSeen == 0 {
				killSeen = tt
			}
		},
	}
	res := harness.Run(job)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if freezeSeen != 2 {
		t.Fatalf("freeze first observed before step %d, want 2", freezeSeen)
	}
	if killSeen != 5 {
		t.Fatalf("kill first observed before step %d, want 5", killSeen)
	}
	if res.Killed != 50 {
		t.Fatalf("result.Killed = %d, want 50", res.Killed)
	}
}

// TestSweepRejectsOutOfHorizonEvents: an event scheduled at or past the
// job horizon could never fire — before the fix it was silently dropped
// and Result.Killed undercounted; now the job fails loudly.
func TestSweepRejectsOutOfHorizonEvents(t *testing.T) {
	proto := figure1Protocol(t)
	mkJob := func(at int) harness.Job {
		return harness.Job{
			Name: fmt.Sprintf("event-at-%d", at),
			Seed: 1,
			New: func(seed int64) (harness.Runner, error) {
				return harness.NewAgent(sim.Config{
					N: 100, Protocol: proto,
					Initial: map[ode.Var]int{endemic.Receptive: 99, endemic.Stash: 1, endemic.Averse: 0},
					Seed:    seed,
				})
			},
			Periods: 10,
			Events: []harness.Event{
				{At: at, P: harness.Perturbation{Kind: harness.KillFraction, Frac: 0.5}},
			},
		}
	}
	for _, at := range []int{10, 11, -1} {
		res := harness.Run(mkJob(at))
		if res.Err == nil {
			t.Errorf("event at period %d of a 10-period job did not fail", at)
		}
		if res.Killed != 0 {
			t.Errorf("event at period %d reported %d killed", at, res.Killed)
		}
	}
	// The last in-horizon period still works, and the kill is counted.
	if res := harness.Run(mkJob(9)); res.Err != nil || res.Killed != 50 {
		t.Fatalf("event at period 9 = (killed %d, %v), want (50, nil)", res.Killed, res.Err)
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	jobs := []harness.Job{
		{
			Name:    "bad-factory",
			New:     func(int64) (harness.Runner, error) { return nil, fmt.Errorf("boom") },
			Periods: 1,
		},
		{Name: "no-factory", Periods: 1},
	}
	results, err := harness.Sweep(jobs, harness.Options{Workers: 2})
	if err == nil {
		t.Fatal("sweep with failing jobs returned nil error")
	}
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("job %d has nil Err", i)
		}
	}
}

func TestSweepUnsupportedPerturbationFailsJob(t *testing.T) {
	proto := figure1Protocol(t)
	job := harness.Job{
		Name: "agg-freeze",
		Seed: 1,
		New: func(seed int64) (harness.Runner, error) {
			return harness.NewAggregate(proto, map[ode.Var]int{
				endemic.Receptive: 99, endemic.Stash: 1, endemic.Averse: 0,
			}, seed, 0)
		},
		Periods: 5,
		Events:  []harness.Event{{At: 1, P: harness.Perturbation{Kind: harness.Freeze, Proc: 0}}},
	}
	if res := harness.Run(job); res.Err == nil {
		t.Fatal("unsupported perturbation did not fail the job")
	}
}

// --- determinism across worker counts ---

// sweepTrajectories runs a small three-engine-free sweep (agent engine
// only) and returns the recorded per-job trajectories.
func sweepTrajectories(t *testing.T, workers int) [][]float64 {
	t.Helper()
	proto := figure1Protocol(t)
	const jobsN = 9
	out := make([][]float64, jobsN)
	jobs := make([]harness.Job, jobsN)
	for i := 0; i < jobsN; i++ {
		tr := &out[i]
		jobs[i] = harness.Job{
			Name: fmt.Sprintf("job%d", i),
			Seed: harness.DeriveSeed(2004, i),
			New: func(seed int64) (harness.Runner, error) {
				return harness.NewAgent(sim.Config{
					N: 300, Protocol: proto,
					Initial: map[ode.Var]int{endemic.Receptive: 280, endemic.Stash: 20, endemic.Averse: 0},
					Seed:    seed,
				})
			},
			Periods: 60,
			Events: []harness.Event{
				{At: 30, P: harness.Perturbation{Kind: harness.KillFraction, Frac: 0.3}},
			},
			AfterStep: func(r harness.Runner, tt int) {
				*tr = append(*tr, float64(r.Count(endemic.Stash)))
			},
		}
	}
	if _, err := harness.Sweep(jobs, harness.Options{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSweepWorkerCountIndependence(t *testing.T) {
	reference := sweepTrajectories(t, 1)
	for _, workers := range []int{4, runtime.NumCPU()} {
		got := sweepTrajectories(t, workers)
		if !reflect.DeepEqual(got, reference) {
			t.Fatalf("sweep output differs at %d workers", workers)
		}
	}
}
