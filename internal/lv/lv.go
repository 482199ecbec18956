// Package lv implements Case Study II of the paper (§4.2): the
// Lotka–Volterra (LV) protocol for probabilistic majority selection,
// derived from the competition equations (6)
//
//	ẋ = 3x(1 − x − 2y)
//	ẏ = 3y(1 − y − 2x)
//
// rewritten (via the slack variable z = 1 − x − y) into the mappable
// system (7)
//
//	ẋ = +3xz − 3xy
//	ẏ = +3yz − 3xy
//	ż = −3xz − 3yz + 3xy + 3xy
//
// States x and y are the two proposals; z is "undecided" (the running
// decision value b). By the principle of competitive exclusion the system
// converges to everyone-x or everyone-y, and Theorem 4 shows the winner is
// the initial majority: all initial points right of the diagonal x = y
// reach (1, 0), all points left of it reach (0, 1).
package lv

import (
	"fmt"
	"math"

	"odeproto/internal/core"
	"odeproto/internal/harness"
	"odeproto/internal/ode"
	"odeproto/internal/rewrite"
	"odeproto/internal/sim"
)

// Protocol states: the two competing proposals and the undecided state.
const (
	ProposalX = ode.Var("x")
	ProposalY = ode.Var("y")
	Undecided = ode.Var("z")
)

// DefaultP is the normalizing constant used throughout the paper's LV
// experiments (§5.2).
const DefaultP = 0.01

// CompetitionSystem returns the raw LV competition equations (6), which
// are not complete (they lack the z variable).
func CompetitionSystem() *ode.System {
	s := ode.NewSystem()
	s.MustAddEquation(ProposalX,
		ode.NewTerm(3, map[ode.Var]int{ProposalX: 1}),
		ode.NewTerm(-3, map[ode.Var]int{ProposalX: 2}),
		ode.NewTerm(-6, map[ode.Var]int{ProposalX: 1, ProposalY: 1}))
	s.MustAddEquation(ProposalY,
		ode.NewTerm(3, map[ode.Var]int{ProposalY: 1}),
		ode.NewTerm(-3, map[ode.Var]int{ProposalY: 2}),
		ode.NewTerm(-6, map[ode.Var]int{ProposalX: 1, ProposalY: 1}))
	return s
}

// System returns the paper's rewritten, mappable equations (7).
func System() *ode.System {
	s := ode.NewSystem()
	s.MustAddEquation(ProposalX,
		ode.NewTerm(3, map[ode.Var]int{ProposalX: 1, Undecided: 1}),
		ode.NewTerm(-3, map[ode.Var]int{ProposalX: 1, ProposalY: 1}))
	s.MustAddEquation(ProposalY,
		ode.NewTerm(3, map[ode.Var]int{ProposalY: 1, Undecided: 1}),
		ode.NewTerm(-3, map[ode.Var]int{ProposalX: 1, ProposalY: 1}))
	s.MustAddEquation(Undecided,
		ode.NewTerm(-3, map[ode.Var]int{ProposalX: 1, Undecided: 1}),
		ode.NewTerm(-3, map[ode.Var]int{ProposalY: 1, Undecided: 1}),
		ode.NewTerm(3, map[ode.Var]int{ProposalX: 1, ProposalY: 1}),
		ode.NewTerm(3, map[ode.Var]int{ProposalX: 1, ProposalY: 1}))
	return s
}

// RewrittenSystem derives (7) from (6) mechanically with the §7 rewriting
// pipeline (Complete + Homogenize + SplitForPartition); the test suite
// verifies it is dynamically identical to System().
func RewrittenSystem() (*ode.System, error) {
	return rewrite.MakeMappable(CompetitionSystem(), Undecided)
}

// NewProtocol translates (7) into the LV protocol of Figure 3 with
// normalizing constant p (all four one-time-sampling actions use coin 3p).
// Pass 0 for DefaultP.
func NewProtocol(p float64) (*core.Protocol, error) {
	if p == 0 {
		p = DefaultP
	}
	return core.Translate(System(), core.Options{P: p})
}

// Run is one majority-selection execution trace.
type Run struct {
	Times []float64
	X     []float64 // processes proposing x
	Y     []float64
	Z     []float64 // undecided
	// FinalX and FinalY are the populations after the last period
	// (available even when SampleEvery skips the final period).
	FinalX, FinalY int
	// ConvergedAt is the first period where one proposal holds every
	// alive process, or -1 if the run ended first.
	ConvergedAt int
	// Winner is the state that won ("" while unconverged).
	Winner ode.Var
	Killed int
}

// Config parameterizes a convergence run (Figures 11 and 12).
type Config struct {
	N        int
	InitialX int
	InitialY int
	P        float64 // normalizing constant (0 → DefaultP)
	Periods  int
	// FailAt, when ≥ 0, crashes FailFrac of the processes at that period
	// (Figure 12 uses FailAt = 100, FailFrac = 0.5).
	FailAt      int
	FailFrac    float64
	SampleEvery int
	Seed        int64
}

// newRunJob builds the harness job for one LV execution together with the
// Run record its hooks populate (Killed is filled in from the harness
// result by the caller). Simulate wraps it for single runs; sweeps like
// MajorityAccuracy fan many of these jobs out in parallel.
func newRunJob(name string, cfg Config) (harness.Job, *Run, error) {
	if cfg.InitialX+cfg.InitialY > cfg.N {
		return harness.Job{}, nil, fmt.Errorf("lv: initial proposals exceed N")
	}
	if cfg.SampleEvery < 1 {
		cfg.SampleEvery = 1
	}
	proto, err := NewProtocol(cfg.P)
	if err != nil {
		return harness.Job{}, nil, err
	}
	run := &Run{ConvergedAt: -1}
	var events []harness.Event
	if cfg.FailAt >= 0 && cfg.FailFrac > 0 {
		events = []harness.Event{
			{At: cfg.FailAt, P: harness.Perturbation{Kind: harness.KillFraction, Frac: cfg.FailFrac}},
		}
	}
	job := harness.Job{
		Name: name,
		Seed: cfg.Seed,
		New: func(seed int64) (harness.Runner, error) {
			return harness.NewAgent(sim.Config{
				N:        cfg.N,
				Protocol: proto,
				Initial: map[ode.Var]int{
					ProposalX: cfg.InitialX,
					ProposalY: cfg.InitialY,
					Undecided: cfg.N - cfg.InitialX - cfg.InitialY,
				},
				Seed: seed,
			})
		},
		Periods: cfg.Periods,
		Events:  events,
		AfterStep: func(r harness.Runner, t int) {
			if t%cfg.SampleEvery == 0 {
				run.Times = append(run.Times, float64(t))
				run.X = append(run.X, float64(r.Count(ProposalX)))
				run.Y = append(run.Y, float64(r.Count(ProposalY)))
				run.Z = append(run.Z, float64(r.Count(Undecided)))
			}
			// An empty group holds no proposal: Alive() = Count(x) = 0
			// must not name a winner.
			if run.ConvergedAt < 0 && r.Alive() > 0 {
				switch r.Alive() {
				case r.Count(ProposalX):
					run.ConvergedAt = t
					run.Winner = ProposalX
				case r.Count(ProposalY):
					run.ConvergedAt = t
					run.Winner = ProposalY
				}
			}
		},
		Done: func(r harness.Runner) error {
			run.FinalX = r.Count(ProposalX)
			run.FinalY = r.Count(ProposalY)
			return nil
		},
	}
	return job, run, nil
}

// Simulate runs the LV protocol from the given split and records the
// population series.
func Simulate(cfg Config) (*Run, error) {
	job, run, err := newRunJob("lv-run", cfg)
	if err != nil {
		return nil, err
	}
	out := harness.Run(job)
	if out.Err != nil {
		return nil, out.Err
	}
	run.Killed = out.Killed
	return run, nil
}

// SimulateMany runs independent elections of the same configuration, one
// per seed, fanned out in parallel. Results are returned in seed order
// regardless of the worker count.
func SimulateMany(cfg Config, seeds []int64) ([]*Run, error) {
	jobs := make([]harness.Job, len(seeds))
	runs := make([]*Run, len(seeds))
	for i, s := range seeds {
		c := cfg
		c.Seed = s
		job, run, err := newRunJob(fmt.Sprintf("lv-seed%d", s), c)
		if err != nil {
			return nil, err
		}
		jobs[i] = job
		runs[i] = run
	}
	out, err := harness.Sweep(jobs, harness.Options{})
	if err != nil {
		return nil, err
	}
	for i := range runs {
		runs[i].Killed = out[i].Killed
	}
	return runs, nil
}

// PhaseTrajectory is one (X(t), Y(t)) path of the Figure 4 phase portrait.
type PhaseTrajectory struct {
	X0, Y0, Z0 int
	Xs, Ys     []float64
}

// Figure4InitialPoints returns the seven initial points of the Figure 4
// caption for N = 1000.
func Figure4InitialPoints() [][3]int {
	return [][3]int{
		{100, 200, 700}, // blank square
		{200, 100, 700}, // dark square
		{300, 500, 200}, // blank circle
		{500, 300, 200}, // dark circle
		{100, 800, 100}, // blank triangle
		{800, 100, 100}, // dark triangle
		{100, 100, 800}, // blank inverted triangle
	}
}

// PhasePortrait simulates the LV protocol from each initial point,
// recording (X, Y) — the paper's Figure 4. The initial points run in
// parallel through the harness scheduler.
func PhasePortrait(n int, p float64, initials [][3]int, periods, sampleEvery int, seed int64) ([]PhaseTrajectory, error) {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	proto, err := NewProtocol(p)
	if err != nil {
		return nil, err
	}
	out := make([]PhaseTrajectory, len(initials))
	jobs := make([]harness.Job, len(initials))
	for i, ic := range initials {
		if ic[0]+ic[1]+ic[2] != n {
			return nil, fmt.Errorf("lv: initial point %v does not sum to N = %d", ic, n)
		}
		tr := &out[i]
		tr.X0, tr.Y0, tr.Z0 = ic[0], ic[1], ic[2]
		initial := map[ode.Var]int{ProposalX: ic[0], ProposalY: ic[1], Undecided: ic[2]}
		jobs[i] = harness.Job{
			Name: fmt.Sprintf("fig4-point%d", i),
			Seed: seed + int64(i)*7919,
			New: func(seed int64) (harness.Runner, error) {
				return harness.NewAgent(sim.Config{N: n, Protocol: proto, Initial: initial, Seed: seed})
			},
			Periods: periods,
			BeforeStep: func(r harness.Runner, t int) {
				if t%sampleEvery == 0 {
					tr.Xs = append(tr.Xs, float64(r.Count(ProposalX)))
					tr.Ys = append(tr.Ys, float64(r.Count(ProposalY)))
				}
			},
		}
	}
	if _, err := harness.Sweep(jobs, harness.Options{}); err != nil {
		return nil, err
	}
	return out, nil
}

// AccuracyPoint is one margin setting of the majority-accuracy sweep.
type AccuracyPoint struct {
	// MarginPct is the initial majority share in percent (e.g. 55 for a
	// 55/45 split).
	MarginPct int
	// Accuracy is the fraction of trials in which the initial majority
	// won.
	Accuracy float64
	// MeanConvergence is the mean convergence period over converged
	// trials (-1 if none converged).
	MeanConvergence float64
}

// MajorityAccuracy quantifies the probabilistic-majority-selection
// specification ("w.h.p. this is the same as the initial majority value",
// §4.2): for each majority share it runs `trials` independent elections
// and reports how often the initial majority won. Accuracy approaches 1
// as the margin grows and as N grows (the saddle at x = y only threatens
// near-tie starts).
func MajorityAccuracy(n int, marginsPct []int, trials, periods int, p float64, seed int64) ([]AccuracyPoint, error) {
	if trials < 1 {
		return nil, fmt.Errorf("lv: trials must be positive")
	}
	// Fan the full margins × trials matrix out as one parallel sweep, then
	// reduce per margin. Each cell keeps the historical per-trial seed, so
	// accuracies are unchanged from the sequential implementation.
	jobs := make([]harness.Job, 0, len(marginsPct)*trials)
	runs := make([]*Run, 0, len(marginsPct)*trials)
	for _, m := range marginsPct {
		if m < 50 || m > 100 {
			return nil, fmt.Errorf("lv: margin %d%% outside [50, 100]", m)
		}
		for tr := 0; tr < trials; tr++ {
			job, run, err := newRunJob(fmt.Sprintf("margin%d-trial%d", m, tr), Config{
				N:        n,
				InitialX: n * m / 100,
				InitialY: n - n*m/100,
				P:        p,
				Periods:  periods,
				FailAt:   -1,
				// The reduce below only reads convergence data and the
				// final populations, so skip the per-period series rather
				// than hold the full matrix of trials in memory at once.
				SampleEvery: periods,
				Seed:        seed + int64(tr)*9973 + int64(m)*31,
			})
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, job)
			runs = append(runs, run)
		}
	}
	if _, err := harness.Sweep(jobs, harness.Options{}); err != nil {
		return nil, err
	}
	out := make([]AccuracyPoint, 0, len(marginsPct))
	for mi, m := range marginsPct {
		wins, converged := 0, 0
		var convSum float64
		for _, run := range runs[mi*trials : (mi+1)*trials] {
			if run.ConvergedAt >= 0 {
				converged++
				convSum += float64(run.ConvergedAt)
				if run.Winner == ProposalX {
					wins++
				}
			} else if run.FinalX > run.FinalY {
				// Count unconverged runs by their current leader.
				wins++
			}
		}
		pt := AccuracyPoint{MarginPct: m, Accuracy: float64(wins) / float64(trials), MeanConvergence: -1}
		if converged > 0 {
			pt.MeanConvergence = convSum / float64(converged)
		}
		out = append(out, pt)
	}
	return out, nil
}

// ConvergenceComplexity evaluates the §4.2.2 closed-form linearized
// solution near the stable point (0, 1):
//
//	x(t) = u₀·e^{−3t},  y(t) = 1 − (6·u₀·t + v₀)·e^{−3t}
//
// for an initial displacement x(0) = u₀, y(0) = 1 − v₀. Time is in source
// equation units (divide protocol periods by 1/p to convert).
func ConvergenceComplexity(u0, v0, t float64) (x, y float64) {
	decay := math.Exp(-3 * t)
	return u0 * decay, 1 - (6*u0*t+v0)*decay
}
