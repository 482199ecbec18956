package endemic

import (
	"fmt"

	"odeproto/internal/churn"
	"odeproto/internal/harness"
	"odeproto/internal/ode"
	"odeproto/internal/sim"
	"odeproto/internal/stats"
)

// The experiments in this file reproduce the endemic half of the paper's
// evaluation (§5.1). They all route through the harness scheduler: each
// experiment builds []harness.Job — engine factory, seed, perturbation
// schedule, observation hooks — and fans them out with harness.Sweep.
// Single-run experiments use the same Job shape through harness.Run, so
// sequential and parallel execution share one code path and the results
// are identical at any worker count.

// InitialCounts is a starting population (X, Y, Z) in absolute counts, as
// in the Figure 2 caption.
type InitialCounts struct {
	X, Y, Z int
}

// total returns the population size.
func (ic InitialCounts) total() int { return ic.X + ic.Y + ic.Z }

func (ic InitialCounts) toMap() map[ode.Var]int {
	return map[ode.Var]int{Receptive: ic.X, Stash: ic.Y, Averse: ic.Z}
}

// Figure2InitialPoints returns the seven initial points of the Figure 2
// caption for N = 1000.
func Figure2InitialPoints() []InitialCounts {
	return []InitialCounts{
		{999, 1, 0},     // blank square
		{0, 1, 999},     // dark square
		{0, 1000, 0},    // blank circle
		{500, 500, 0},   // dark circle
		{500, 1, 499},   // blank triangle
		{1, 500, 499},   // dark triangle
		{333, 333, 334}, // blank inverted triangle
	}
}

// Trajectory is a simulated (X(t), Y(t)) path for one initial point.
type Trajectory struct {
	Initial InitialCounts
	Xs, Ys  []float64
}

// PhasePortrait simulates the Figure-1 protocol from each initial point and
// records the (X, Y) = (#receptive, #stash) trajectory — the paper's
// Figure 2 phase portrait (a stable spiral for β = 4, γ = 1.0, α = 0.01).
// The initial points run in parallel; per-point seeds keep the output
// independent of the worker count.
func PhasePortrait(p Params, initials []InitialCounts, periods int, sampleEvery int, seed int64) ([]Trajectory, error) {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	proto, err := NewFigure1Protocol(p)
	if err != nil {
		return nil, err
	}
	out := make([]Trajectory, len(initials))
	jobs := make([]harness.Job, len(initials))
	for i, ic := range initials {
		tr := &out[i]
		tr.Initial = ic
		cfg := sim.Config{N: ic.total(), Protocol: proto, Initial: ic.toMap()}
		jobs[i] = harness.Job{
			Name: fmt.Sprintf("fig2-point%d", i),
			Seed: seed + int64(i)*7919,
			New: func(seed int64) (harness.Runner, error) {
				cfg.Seed = seed
				return harness.NewAgent(cfg)
			},
			Periods: periods,
			BeforeStep: func(r harness.Runner, t int) {
				if t%sampleEvery == 0 {
					tr.Xs = append(tr.Xs, float64(r.Count(Receptive)))
					tr.Ys = append(tr.Ys, float64(r.Count(Stash)))
				}
			},
		}
	}
	if _, err := harness.Sweep(jobs, harness.Options{}); err != nil {
		return nil, err
	}
	return out, nil
}

// MassiveFailureConfig configures the Figures 5/6 experiment.
type MassiveFailureConfig struct {
	N      int
	Params Params
	// FailAt is the period of the massive failure; negative disables it
	// (as does FailFrac = 0). A nonnegative FailAt at or past Periods is
	// an error — out-of-horizon events fail rather than vanish.
	FailAt     int
	FailFrac   float64 // fraction of hosts crashed (paper: 0.5)
	Periods    int     // total periods simulated
	RecordFrom int     // first period recorded in the series
	Seed       int64
}

// MassiveFailureResult carries the Figure 5 population series and the
// Figure 6 file-flux series of the same run.
type MassiveFailureResult struct {
	Times     []float64
	Stash     []float64 // alive stashers (Figure 5 "Stash:Alive")
	Receptive []float64 // alive receptives (Figure 5 "Rcptv:Alive")
	Averse    []float64
	Flux      []float64 // receptive→stash transfers per period (Figure 6)
	Killed    int
}

// newMassiveFailureJob builds the harness job for one massive-failure run
// together with the result record its hooks populate (Killed is filled in
// from the harness result by the caller).
func newMassiveFailureJob(name string, cfg MassiveFailureConfig) (harness.Job, *MassiveFailureResult, error) {
	if cfg.FailFrac < 0 || cfg.FailFrac >= 1 {
		return harness.Job{}, nil, fmt.Errorf("endemic: fail fraction %v outside [0,1)", cfg.FailFrac)
	}
	proto, err := NewFigure1Protocol(cfg.Params)
	if err != nil {
		return harness.Job{}, nil, err
	}
	eq := StableEquilibrium(cfg.Params.Beta(), cfg.Params.Gamma, cfg.Params.Alpha)
	initY := int(eq.Stash * float64(cfg.N))
	if initY < 1 {
		initY = 1
	}
	initX := int(eq.Receptive * float64(cfg.N))
	initZ := cfg.N - initX - initY
	res := &MassiveFailureResult{}
	job := harness.Job{
		Name: name,
		Seed: cfg.Seed,
		New: func(seed int64) (harness.Runner, error) {
			return harness.NewAgent(sim.Config{
				N:        cfg.N,
				Protocol: proto,
				Initial:  map[ode.Var]int{Receptive: initX, Stash: initY, Averse: initZ},
				Seed:     seed,
			})
		},
		Periods: cfg.Periods,
		Events: []harness.Event{
			{At: cfg.FailAt, P: harness.Perturbation{Kind: harness.KillFraction, Frac: cfg.FailFrac}},
		},
		AfterStep: func(r harness.Runner, t int) {
			if t < cfg.RecordFrom {
				return
			}
			res.Times = append(res.Times, float64(t))
			res.Stash = append(res.Stash, float64(r.Count(Stash)))
			res.Receptive = append(res.Receptive, float64(r.Count(Receptive)))
			res.Averse = append(res.Averse, float64(r.Count(Averse)))
			trans := r.(harness.TransitionCounter).TransitionsLastPeriod()
			res.Flux = append(res.Flux, float64(trans.Edge(Receptive, Stash)))
		},
	}
	// FailAt < 0 (or a zero fraction) is the no-failure sentinel, as in
	// lv.Config. A nonnegative FailAt past the horizon is NOT stripped: it
	// reaches the harness's event validation and fails the job loudly.
	if cfg.FailAt < 0 || cfg.FailFrac == 0 {
		job.Events = nil
	}
	return job, res, nil
}

// RunMassiveFailure reproduces the experiment behind Figures 5 and 6: a
// system started at the analytic equilibrium suffers a massive correlated
// failure and re-stabilizes, with the file-flux rate barely disturbed.
func RunMassiveFailure(cfg MassiveFailureConfig) (*MassiveFailureResult, error) {
	job, res, err := newMassiveFailureJob("massive-failure", cfg)
	if err != nil {
		return nil, err
	}
	out := harness.Run(job)
	if out.Err != nil {
		return nil, out.Err
	}
	res.Killed = out.Killed
	return res, nil
}

// RunMassiveFailureSeeds replicates the massive-failure experiment across
// independent seeds, fanned out in parallel. Results are returned in seed
// order regardless of the worker count.
func RunMassiveFailureSeeds(cfg MassiveFailureConfig, seeds []int64) ([]*MassiveFailureResult, error) {
	jobs := make([]harness.Job, len(seeds))
	results := make([]*MassiveFailureResult, len(seeds))
	for i, s := range seeds {
		c := cfg
		c.Seed = s
		job, res, err := newMassiveFailureJob(fmt.Sprintf("massive-failure-seed%d", s), c)
		if err != nil {
			return nil, err
		}
		jobs[i] = job
		results[i] = res
	}
	out, err := harness.Sweep(jobs, harness.Options{})
	if err != nil {
		return nil, err
	}
	for i := range results {
		results[i].Killed = out[i].Killed
	}
	return results, nil
}

// SweepPoint is one group size of the Figure 7 analysis-vs-measured sweep.
type SweepPoint struct {
	N                 int
	StashMeasured     stats.Summary // median/min/max over the window
	ReceptiveMeasured stats.Summary
	StashAnalysis     float64 // N·y∞
	ReceptiveAnalysis float64 // N·x∞
}

// RunEquilibriumSweep reproduces Figure 7: for each group size, run the
// protocol past equilibrium, then record windowPeriods periods and compare
// the measured median (and min/max) populations with the analytic
// equilibrium (2). The group sizes run in parallel.
func RunEquilibriumSweep(ns []int, p Params, warmup, windowPeriods int, seed int64) ([]SweepPoint, error) {
	proto, err := NewFigure1Protocol(p)
	if err != nil {
		return nil, err
	}
	eq := StableEquilibrium(p.Beta(), p.Gamma, p.Alpha)
	out := make([]SweepPoint, len(ns))
	series := make([][2][]float64, len(ns)) // stash, receptive per job
	jobs := make([]harness.Job, len(ns))
	for i, n := range ns {
		initY := int(eq.Stash * float64(n))
		if initY < 1 {
			initY = 1
		}
		initX := int(eq.Receptive * float64(n))
		cfg := sim.Config{
			N:        n,
			Protocol: proto,
			Initial:  map[ode.Var]int{Receptive: initX, Stash: initY, Averse: n - initX - initY},
		}
		out[i] = SweepPoint{
			N:                 n,
			StashAnalysis:     eq.Stash * float64(n),
			ReceptiveAnalysis: eq.Receptive * float64(n),
		}
		rec := &series[i]
		jobs[i] = harness.Job{
			Name: fmt.Sprintf("fig7-n%d", n),
			Seed: seed + int64(i)*104729,
			New: func(seed int64) (harness.Runner, error) {
				cfg.Seed = seed
				return harness.NewAgent(cfg)
			},
			Periods: warmup + windowPeriods,
			AfterStep: func(r harness.Runner, t int) {
				if t < warmup {
					return
				}
				rec[0] = append(rec[0], float64(r.Count(Stash)))
				rec[1] = append(rec[1], float64(r.Count(Receptive)))
			},
		}
	}
	if _, err := harness.Sweep(jobs, harness.Options{}); err != nil {
		return nil, err
	}
	for i := range out {
		out[i].StashMeasured = stats.Summarize(series[i][0])
		out[i].ReceptiveMeasured = stats.Summarize(series[i][1])
	}
	return out, nil
}

// UntraceabilityResult carries the Figure 8 scatter and its summary
// statistics.
type UntraceabilityResult struct {
	// Scatter holds one (period, hostID) point per stasher per period.
	Scatter *stats.Scatter
	// MeanStashers is the average stash population over the window.
	MeanStashers float64
	// TimeHostCorrelation is the Pearson correlation between period and
	// host ID over the scatter; near zero means no drift an attacker could
	// exploit.
	TimeHostCorrelation float64
	// Fairness is the coefficient of variation of per-host stash
	// occupancy over the window (small = good load balancing). The window
	// must be several stash stints (1/γ) long for this to settle.
	Fairness float64
}

// RunUntraceability reproduces Figure 8: which hosts are stashers at the
// end of every protocol period, over a window.
func RunUntraceability(n int, p Params, warmup, windowPeriods int, seed int64) (*UntraceabilityResult, error) {
	proto, err := NewFigure1Protocol(p)
	if err != nil {
		return nil, err
	}
	eq := StableEquilibrium(p.Beta(), p.Gamma, p.Alpha)
	initY := int(eq.Stash*float64(n)) + 1
	res := &UntraceabilityResult{Scatter: stats.NewScatter("stashers")}
	occupancy := make([]int, n)
	var stashSum float64
	job := harness.Job{
		Name: "fig8-untraceability",
		Seed: seed,
		New: func(seed int64) (harness.Runner, error) {
			return harness.NewAgent(sim.Config{
				N:        n,
				Protocol: proto,
				Initial:  map[ode.Var]int{Receptive: n - initY, Stash: initY, Averse: 0},
				Seed:     seed,
			})
		},
		Periods: warmup + windowPeriods,
		AfterStep: func(r harness.Runner, t int) {
			if t < warmup {
				return
			}
			for _, h := range r.(harness.ProcessLister).ProcessesIn(Stash) {
				res.Scatter.Add(float64(t), float64(h))
				occupancy[h]++
			}
			stashSum += float64(r.Count(Stash))
		},
	}
	if out := harness.Run(job); out.Err != nil {
		return nil, out.Err
	}
	res.MeanStashers = stashSum / float64(windowPeriods)
	res.TimeHostCorrelation = res.Scatter.CorrelationXY()
	res.Fairness = stats.OccupancyFairness(occupancy)
	return res, nil
}

// HeterogeneousResult reports the steady state of a group in which a
// fraction of hosts is chronically averse.
type HeterogeneousResult struct {
	// FrozenAverse is the number of chronically averse hosts.
	FrozenAverse int
	// MeanStash is the time-averaged stash population among active hosts.
	MeanStash float64
	// MeanReceptive is the time-averaged receptive population.
	MeanReceptive float64
}

// RunHeterogeneous reproduces the §5.1 remark that post-massive-failure
// behaviour is "characteristic of a heterogeneous setting, where half the
// hosts are chronically averse to storing the file or even perhaps to
// running the protocol": a fraction of hosts is pinned in the averse state
// (they answer contacts but never act), and the active rest runs the
// protocol. Contacts landing on pinned hosts are fruitless, which reduces
// the effective contact rate exactly as crashed hosts do.
func RunHeterogeneous(n int, p Params, frozenFrac float64, warmup, window int, seed int64) (*HeterogeneousResult, error) {
	if frozenFrac < 0 || frozenFrac >= 1 {
		return nil, fmt.Errorf("endemic: frozen fraction %v outside [0,1)", frozenFrac)
	}
	proto, err := NewFigure1Protocol(p)
	if err != nil {
		return nil, err
	}
	frozen := int(frozenFrac * float64(n))
	active := n - frozen
	eq := StableEquilibrium(p.Beta(), p.Gamma, p.Alpha)
	initY := int(eq.Stash*float64(active)) + 1
	initX := int(eq.Receptive*float64(active)) + 1
	// The engine lays processes out in state order (receptive, stash,
	// averse, in System order), so the tail of the index space is averse;
	// pin the last `frozen` processes before the first period.
	events := make([]harness.Event, 0, frozen)
	for q := n - frozen; q < n; q++ {
		events = append(events, harness.Event{At: 0, P: harness.Perturbation{Kind: harness.Freeze, Proc: q}})
	}
	res := &HeterogeneousResult{FrozenAverse: frozen}
	job := harness.Job{
		Name: "heterogeneous",
		Seed: seed,
		New: func(seed int64) (harness.Runner, error) {
			return harness.NewAgent(sim.Config{
				N:        n,
				Protocol: proto,
				Initial: map[ode.Var]int{
					Receptive: initX,
					Stash:     initY,
					Averse:    n - initX - initY,
				},
				Seed: seed,
			})
		},
		Periods: warmup + window,
		Events:  events,
		AfterStep: func(r harness.Runner, t int) {
			if t < warmup {
				return
			}
			res.MeanStash += float64(r.Count(Stash))
			res.MeanReceptive += float64(r.Count(Receptive))
		},
	}
	if out := harness.Run(job); out.Err != nil {
		return nil, out.Err
	}
	res.MeanStash /= float64(window)
	res.MeanReceptive /= float64(window)
	return res, nil
}

// ChurnConfig configures the Figures 9/10 experiment.
type ChurnConfig struct {
	N              int
	Params         Params
	Trace          *churn.Trace
	PeriodsPerHour float64 // paper: 10 (6-minute periods)
	RecordFromHour float64
	RecordToHour   float64
	Seed           int64
}

// ChurnResult carries the population series (Figure 9) and per-period
// transition counts (Figure 10) under churn.
type ChurnResult struct {
	Hours     []float64
	Stash     []float64
	Receptive []float64
	Averse    []float64
	// Transition streams, per period: receptive→stash (file transfers),
	// stash→averse (deletions), averse→receptive.
	RcptvToStash  []float64
	StashToAverse []float64
	AverseToRcptv []float64
	// MeanAlive is the average alive population over the recorded window.
	MeanAlive float64
}

// churnSchedule compiles a churn trace into a harness perturbation
// schedule: the trace's initial availability becomes Kill events at period
// 0, and every departure/rejoin becomes a Kill/Revive event at the period
// it falls in. Rejoining hosts come back receptive (the paper's worst-case
// model); Revive of an already-alive host is an idempotent no-op, so the
// schedule can be applied blindly.
func churnSchedule(trace *churn.Trace, periodsPerHour float64, totalPeriods int) ([]harness.Event, error) {
	rep, err := churn.NewReplayer(trace, periodsPerHour)
	if err != nil {
		return nil, err
	}
	var events []harness.Event
	for h, up := range trace.InitiallyUp {
		if !up {
			events = append(events, harness.Event{At: 0, P: harness.Perturbation{Kind: harness.Kill, Proc: h}})
		}
	}
	for t := 0; t < totalPeriods; t++ {
		for _, ev := range rep.Next(t) {
			p := harness.Perturbation{Kind: harness.Kill, Proc: ev.Host}
			if ev.Up {
				p = harness.Perturbation{Kind: harness.Revive, Proc: ev.Host, State: Receptive}
			}
			events = append(events, harness.Event{At: t, P: p})
		}
	}
	return events, nil
}

// RunChurn reproduces Figures 9 and 10: the endemic protocol under
// trace-driven churn. Departing hosts lose their replicas; rejoining hosts
// come back receptive (the paper's worst-case model).
func RunChurn(cfg ChurnConfig) (*ChurnResult, error) {
	if cfg.Trace == nil {
		return nil, fmt.Errorf("endemic: nil churn trace")
	}
	if cfg.Trace.Hosts != cfg.N {
		return nil, fmt.Errorf("endemic: trace covers %d hosts, want %d", cfg.Trace.Hosts, cfg.N)
	}
	proto, err := NewFigure1Protocol(cfg.Params)
	if err != nil {
		return nil, err
	}
	// Start everyone receptive except a stash seed sized by the analytic
	// equilibrium; the warm-up to RecordFromHour absorbs the transient.
	eq := StableEquilibrium(cfg.Params.Beta(), cfg.Params.Gamma, cfg.Params.Alpha)
	initY := int(eq.Stash*float64(cfg.N)) + 1
	totalPeriods := int(cfg.Trace.Duration * cfg.PeriodsPerHour)
	events, err := churnSchedule(cfg.Trace, cfg.PeriodsPerHour, totalPeriods)
	if err != nil {
		return nil, err
	}
	res := &ChurnResult{}
	var aliveSum float64
	var aliveCount int
	job := harness.Job{
		Name: "churn",
		Seed: cfg.Seed,
		New: func(seed int64) (harness.Runner, error) {
			return harness.NewAgent(sim.Config{
				N:        cfg.N,
				Protocol: proto,
				Initial:  map[ode.Var]int{Receptive: cfg.N - initY, Stash: initY, Averse: 0},
				Seed:     seed,
			})
		},
		Periods: totalPeriods,
		Events:  events,
		AfterStep: func(r harness.Runner, t int) {
			hour := float64(t+1) / cfg.PeriodsPerHour
			if hour < cfg.RecordFromHour || hour > cfg.RecordToHour {
				return
			}
			trans := r.(harness.TransitionCounter).TransitionsLastPeriod()
			res.Hours = append(res.Hours, hour)
			res.Stash = append(res.Stash, float64(r.Count(Stash)))
			res.Receptive = append(res.Receptive, float64(r.Count(Receptive)))
			res.Averse = append(res.Averse, float64(r.Count(Averse)))
			res.RcptvToStash = append(res.RcptvToStash, float64(trans.Edge(Receptive, Stash)))
			res.StashToAverse = append(res.StashToAverse, float64(trans.Edge(Stash, Averse)))
			res.AverseToRcptv = append(res.AverseToRcptv, float64(trans.Edge(Averse, Receptive)))
			aliveSum += float64(r.Alive())
			aliveCount++
		},
	}
	if out := harness.Run(job); out.Err != nil {
		return nil, out.Err
	}
	if aliveCount > 0 {
		res.MeanAlive = aliveSum / float64(aliveCount)
	}
	return res, nil
}
