package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Event schedules one perturbation at the start of a period: it is applied
// after period At's observation hooks of the previous period have run and
// before period At's Step — matching the paper's experiment descriptions
// ("at time t, half the hosts crash").
//
// At must lie in [0, Periods). An event scheduled at or past the horizon
// could never fire; rather than drop it silently (which would undercount
// Result.Killed), the job fails with an error.
type Event struct {
	At int
	P  Perturbation
}

// Job is one experiment execution: an engine factory, a seed, a horizon, a
// perturbation schedule, and observation hooks. Jobs are self-contained —
// a job may only write to memory it exclusively owns (its hooks typically
// capture one slot of a results slice) — which is what makes the sweep
// trivially parallel and worker-count independent.
type Job struct {
	// Name labels the job in errors.
	Name string
	// Seed is passed to New. Experiments reproducing the paper's figures
	// keep their historical seed formulas; new sweeps can use DeriveSeed.
	Seed int64
	// New builds the job's Runner.
	New func(seed int64) (Runner, error)
	// Periods is the number of Step calls.
	Periods int
	// Events are perturbations, applied before the Step of their period.
	// They need not be sorted; the sweep sorts a copy by At (stable, so
	// same-period events keep their order).
	Events []Event
	// BeforeStep, when non-nil, runs every period after that period's
	// events and before its Step — for experiments that record the
	// period-start population (the phase portraits).
	BeforeStep func(r Runner, period int)
	// AfterStep, when non-nil, runs every period right after its Step —
	// for experiments that record period-end populations or per-period
	// transition counts.
	AfterStep func(r Runner, period int)
	// Done, when non-nil, runs once after the last period.
	Done func(r Runner) error
}

// Result summarizes one finished job.
type Result struct {
	Name string
	Seed int64
	// Killed is the total process count affected by Kill/KillFraction
	// events (the figure captions report it).
	Killed int
	// Err is the job's failure, if any.
	Err error
}

// Options configure a sweep.
type Options struct {
	// Workers is the worker-pool size; 0 selects runtime.GOMAXPROCS(0).
	// The output is byte-identical at any value.
	Workers int
	// Now, when non-nil, is sampled around each job to time it for
	// OnJobDone. The harness never reads the wall clock itself — timing
	// is observability, supplied by the caller, so the determinism
	// contract (output depends only on jobs and seeds) is untouched.
	Now func() time.Time
	// OnJobDone, when non-nil (and Now is set), is called after each
	// job finishes with its index, result, and start/end times sampled
	// from Now. It runs on the worker goroutine that ran the job and
	// must be safe for concurrent calls.
	OnJobDone func(i int, res Result, start, end time.Time)
}

// workerCount resolves Options.Workers to a concrete pool size.
func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Sweep fans the jobs across a worker pool and blocks until all finish.
// Results are returned in job order. Because every job owns its Runner,
// its seed, and the memory its hooks write to, the sweep's output is
// byte-identical at any worker count. A non-nil error joins every job
// failure; the per-job Result.Err fields pinpoint them.
func Sweep(jobs []Job, opt Options) ([]Result, error) {
	return SweepContext(context.Background(), jobs, opt)
}

// SweepContext is Sweep with cancellation. Every job checks the context at
// each period boundary, so an in-flight job stops within one period of the
// context being cancelled; jobs not yet dispatched are never started. A
// cancelled job's Result.Err wraps ctx.Err() (test with errors.Is).
//
// Cancellation does not disturb determinism: jobs that finished before the
// cancellation carry exactly the results they would in an uncancelled
// sweep, and a cancelled job's hooks have observed a prefix of the periods
// an uncancelled run would produce (same seeds, same order).
func SweepContext(ctx context.Context, jobs []Job, opt Options) ([]Result, error) {
	results := make([]Result, len(jobs))
	workers := opt.workerCount()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	// runTimed wraps runJob with the caller-supplied clock so both the
	// serial and parallel branches report identical timing hooks.
	runTimed := func(i int) Result {
		if opt.Now == nil || opt.OnJobDone == nil {
			return runJob(ctx, &jobs[i])
		}
		start := opt.Now()
		res := runJob(ctx, &jobs[i])
		opt.OnJobDone(i, res, start, opt.Now())
		return res
	}
	if workers <= 1 {
		for i := range jobs {
			results[i] = runTimed(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					results[i] = runTimed(i)
				}
			}()
		}
	feed:
		for i := range jobs {
			select {
			case idx <- i:
			case <-ctx.Done():
				// The remaining jobs were never dispatched; mark them
				// cancelled here (the workers only write dispatched slots).
				for j := i; j < len(jobs); j++ {
					results[j] = Result{Name: jobs[j].Name, Seed: jobs[j].Seed,
						Err: fmt.Errorf("harness: job not started: %w", ctx.Err())}
				}
				break feed
			}
		}
		close(idx)
		wg.Wait()
	}
	var errs []error
	for i := range results {
		if results[i].Err != nil {
			errs = append(errs, fmt.Errorf("job %q: %w", results[i].Name, results[i].Err))
		}
	}
	return results, errors.Join(errs...)
}

// Run executes a single job synchronously — the CLI entry points that run
// one configuration use it so single runs and sweeps share one code path.
func Run(job Job) Result { return runJob(context.Background(), &job) }

// RunContext is Run with cancellation, with the same per-period semantics
// as SweepContext.
func RunContext(ctx context.Context, job Job) Result { return runJob(ctx, &job) }

func runJob(ctx context.Context, job *Job) Result {
	res := Result{Name: job.Name, Seed: job.Seed}
	if err := ctx.Err(); err != nil {
		res.Err = fmt.Errorf("harness: job not started: %w", err)
		return res
	}
	if job.New == nil {
		res.Err = fmt.Errorf("harness: job has no Runner factory")
		return res
	}
	// Reject out-of-horizon events up front: an event with At >= Periods
	// (or At < 0) would never be applied, silently distorting the
	// experiment it was scheduled for.
	for i := range job.Events {
		if at := job.Events[i].At; at < 0 || at >= job.Periods {
			res.Err = fmt.Errorf("harness: event %d (%s at period %d) outside the job horizon [0, %d)",
				i, job.Events[i].P.Kind, at, job.Periods)
			return res
		}
	}
	r, err := job.New(job.Seed)
	if err != nil {
		res.Err = err
		return res
	}
	events := job.Events
	if !sort.SliceIsSorted(events, func(i, j int) bool { return events[i].At < events[j].At }) {
		events = append([]Event(nil), events...)
		sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	}
	next := 0
	for t := 0; t < job.Periods; t++ {
		if err := ctx.Err(); err != nil {
			res.Err = fmt.Errorf("harness: job cancelled at period %d: %w", t, err)
			return res
		}
		for next < len(events) && events[next].At <= t {
			n, err := r.Perturb(events[next].P)
			if err != nil {
				res.Err = fmt.Errorf("harness: period %d %s: %w", t, events[next].P.Kind, err)
				return res
			}
			switch events[next].P.Kind {
			case Kill, KillFraction:
				res.Killed += n
			}
			next++
		}
		if job.BeforeStep != nil {
			job.BeforeStep(r, t)
		}
		r.Step()
		if job.AfterStep != nil {
			job.AfterStep(r, t)
		}
	}
	if res.Err == nil {
		if ea, ok := r.(interface{ Err() error }); ok && ea.Err() != nil {
			res.Err = ea.Err()
			return res
		}
	}
	if job.Done != nil {
		if err := job.Done(r); err != nil {
			res.Err = err
		}
	}
	return res
}
