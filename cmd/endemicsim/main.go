// Command endemicsim runs parameterized endemic-replication experiments
// (§4.1/§5.1 of the paper) from the command line. With -seeds k the run
// is replicated across k independent seeds fanned out in parallel through
// the harness scheduler on GOMAXPROCS workers (output is identical at any
// GOMAXPROCS).
//
// Usage:
//
//	endemicsim -n 100000 -b 2 -gamma 0.001 -alpha 0.000001 -periods 10000 -fail-at 5000 -fail-frac 0.5
//	endemicsim -n 2000 -b 32 -gamma 0.1 -alpha 0.005 -churn -hours 170
//	endemicsim -n 20000 -periods 1000 -fail-at 500 -seeds 8
//	endemicsim -n 1000000 -periods 100 -shards 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"odeproto/internal/churn"
	"odeproto/internal/endemic"
	"odeproto/internal/harness"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "endemicsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("endemicsim", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 100000, "group size")
		b        = fs.Int("b", 2, "contact fan-out b (β = 2b)")
		gamma    = fs.Float64("gamma", 1e-3, "recovery rate γ")
		alpha    = fs.Float64("alpha", 1e-6, "susceptibility rate α")
		periods  = fs.Int("periods", 10000, "protocol periods to run")
		failAt   = fs.Int("fail-at", -1, "period of a massive failure (-1 = none)")
		failFrac = fs.Float64("fail-frac", 0.5, "fraction killed in the massive failure")
		churnOn  = fs.Bool("churn", false, "drive the run with an Overnet-calibrated churn trace")
		hours    = fs.Float64("hours", 170, "churn trace length in hours (10 periods/hour)")
		every    = fs.Int("every", 100, "print a sample every this many periods")
		seed     = fs.Int64("seed", 1, "random seed")
		seeds    = fs.Int("seeds", 1, "replicate the run across this many derived seeds in parallel")
		shards   = fs.Int("shards", 0, "agent-engine RNG shards K (0/1 = serial; fixed K is reproducible at any worker count)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; exit 0 like the old flag.Parse behavior
		}
		return err
	}
	harness.SetDefaultShards(*shards)
	params := endemic.Params{B: *b, Gamma: *gamma, Alpha: *alpha}
	if err := params.Validate(); err != nil {
		return err
	}
	a := endemic.Analyze(params.Beta(), params.Gamma, params.Alpha)
	fmt.Printf("equilibrium: x∞=%.4g y∞=%.4g z∞=%.4g (%s); expected stashers %.1f\n",
		a.Equilibrium.Receptive, a.Equilibrium.Stash, a.Equilibrium.Averse,
		a.Class, a.Equilibrium.Stash*float64(*n))

	if *churnOn {
		trace, err := churn.Synthesize(*n, *hours, *seed, churn.Config{})
		if err != nil {
			return err
		}
		res, err := endemic.RunChurn(endemic.ChurnConfig{
			N: *n, Params: params, Trace: trace,
			PeriodsPerHour: 10, RecordFromHour: 0, RecordToHour: *hours,
			Seed: *seed,
		})
		if err != nil {
			return err
		}
		fmt.Println("hour\tstash\trcptv\tavers\ttransfers")
		step := *every
		if step < 1 {
			step = 1
		}
		for i := 0; i < len(res.Hours); i += step {
			fmt.Printf("%.1f\t%.0f\t%.0f\t%.0f\t%.0f\n",
				res.Hours[i], res.Stash[i], res.Receptive[i], res.Averse[i], res.RcptvToStash[i])
		}
		fmt.Printf("mean alive: %.0f\n", res.MeanAlive)
		return nil
	}

	// A negative -fail-at is the no-failure sentinel understood by
	// MassiveFailureConfig; -fail-at at or past -periods fails loudly.
	cfg := endemic.MassiveFailureConfig{
		N: *n, Params: params,
		FailAt: *failAt, FailFrac: *failFrac,
		Periods: *periods, RecordFrom: 0, Seed: *seed,
	}
	if *seeds > 1 {
		// Replicate across derived seeds, fanned out in parallel; print a
		// per-seed summary instead of the full series.
		sv := make([]int64, *seeds)
		for i := range sv {
			sv[i] = harness.DeriveSeed(*seed, i)
		}
		results, err := endemic.RunMassiveFailureSeeds(cfg, sv)
		if err != nil {
			return err
		}
		fmt.Println("seed\tfinal_stash\tfinal_rcptv\tkilled")
		for i, res := range results {
			last := len(res.Stash) - 1
			if last < 0 {
				fmt.Printf("%d\t-\t-\t%d\n", sv[i], res.Killed)
				continue
			}
			fmt.Printf("%d\t%.0f\t%.0f\t%d\n", sv[i], res.Stash[last], res.Receptive[last], res.Killed)
		}
		return nil
	}
	res, err := endemic.RunMassiveFailure(cfg)
	if err != nil {
		return err
	}
	fmt.Println("period\tstash\trcptv\tavers\tflux")
	for i := 0; i < len(res.Times); i += *every {
		fmt.Printf("%.0f\t%.0f\t%.0f\t%.0f\t%.0f\n",
			res.Times[i], res.Stash[i], res.Receptive[i], res.Averse[i], res.Flux[i])
	}
	if res.Killed > 0 {
		fmt.Printf("killed %d at period %d\n", res.Killed, *failAt)
	}
	return nil
}
