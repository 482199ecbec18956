// Command lvsim runs parameterized LV majority-selection experiments
// (§4.2/§5.2 of the paper) from the command line. With -trials k the
// election is replicated across k independent seeds fanned out in
// parallel through the harness scheduler (GOMAXPROCS workers; output is
// identical at any GOMAXPROCS), and a winner tally is printed.
//
// Usage:
//
//	lvsim -n 100000 -x 60000 -y 40000 -periods 1000
//	lvsim -n 100000 -x 60000 -y 40000 -fail-at 100 -fail-frac 0.5 -periods 1400
//	lvsim -n 20000 -x 12000 -y 8000 -trials 16
//	lvsim -n 1000000 -x 600000 -y 400000 -shards 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"odeproto/internal/harness"
	"odeproto/internal/lv"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lvsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lvsim", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 100000, "group size")
		x        = fs.Int("x", 60000, "initial processes proposing x")
		y        = fs.Int("y", 40000, "initial processes proposing y")
		pNorm    = fs.Float64("p", lv.DefaultP, "normalizing constant p (coin = 3p)")
		periods  = fs.Int("periods", 1000, "protocol periods to run")
		failAt   = fs.Int("fail-at", -1, "period of a massive failure (-1 = none)")
		failFrac = fs.Float64("fail-frac", 0.5, "fraction killed")
		every    = fs.Int("every", 25, "print a sample every this many periods")
		seed     = fs.Int64("seed", 1, "random seed")
		trials   = fs.Int("trials", 1, "replicate the election across this many derived seeds in parallel")
		shards   = fs.Int("shards", 0, "agent-engine RNG shards K (0/1 = serial; fixed K is reproducible at any worker count)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; exit 0 like the old flag.Parse behavior
		}
		return err
	}
	harness.SetDefaultShards(*shards)
	cfg := lv.Config{
		N: *n, InitialX: *x, InitialY: *y,
		P: *pNorm, Periods: *periods,
		FailAt: *failAt, FailFrac: *failFrac,
		SampleEvery: *every, Seed: *seed,
	}
	if *trials > 1 {
		seeds := make([]int64, *trials)
		for i := range seeds {
			seeds[i] = harness.DeriveSeed(*seed, i)
		}
		runs, err := lv.SimulateMany(cfg, seeds)
		if err != nil {
			return err
		}
		wins := map[string]int{}
		var convSum float64
		converged := 0
		fmt.Println("seed\twinner\tconverged_at")
		for i, r := range runs {
			winner := string(r.Winner)
			if winner == "" {
				winner = "-"
			}
			wins[winner]++
			if r.ConvergedAt >= 0 {
				converged++
				convSum += float64(r.ConvergedAt)
			}
			fmt.Printf("%d\t%s\t%d\n", seeds[i], winner, r.ConvergedAt)
		}
		fmt.Printf("tally: x=%d y=%d unconverged=%d", wins["x"], wins["y"], wins["-"])
		if converged > 0 {
			fmt.Printf(", mean convergence period %.0f", convSum/float64(converged))
		}
		fmt.Println()
		return nil
	}
	run, err := lv.Simulate(cfg)
	if err != nil {
		return err
	}
	fmt.Println("period\tx\ty\tz")
	for i := range run.Times {
		fmt.Printf("%.0f\t%.0f\t%.0f\t%.0f\n", run.Times[i], run.X[i], run.Y[i], run.Z[i])
	}
	if run.Killed > 0 {
		fmt.Printf("killed %d at period %d\n", run.Killed, *failAt)
	}
	if run.ConvergedAt >= 0 {
		fmt.Printf("converged to %s at period %d\n", run.Winner, run.ConvergedAt)
	} else {
		fmt.Println("not converged within the simulated horizon")
	}
	return nil
}
