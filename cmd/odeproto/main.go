// Command odeproto is the front door to the translation framework: it
// reads a differential equation system in the text DSL, classifies it
// against the paper's taxonomy (§2), optionally rewrites it into mappable
// form (§7), translates it into a distributed protocol (§3/§6), and can
// simulate the protocol (§5).
//
// Usage:
//
//	odeproto -file endemic.ode -params beta=4,gamma=1,alpha=0.01
//	odeproto -file lv.ode -p 0.01 -simulate 100000 -initial x=60000,y=40000 -periods 1000
//	odeproto -file epi.ode -simulate 1000000 -engine aggregate
//	odeproto -file epi.ode -simulate 100000 -engine asyncnet
//
// Simulation runs through the harness Runner layer; -engine selects the
// per-process agent engine, the count-based aggregate engine, or the
// asynchronous runtime (whose -async-mode defaults to the deterministic
// virtual-time scheduler; wallclock selects real goroutines and timers).
//
// The DSL has one equation per line, e.g.:
//
//	x' = -beta*x*y + alpha*z
//	y' = beta*x*y - gamma*y
//	z' = gamma*y - alpha*z
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"odeproto/internal/asyncnet"
	"odeproto/internal/core"
	"odeproto/internal/dynamics"
	"odeproto/internal/harness"
	"odeproto/internal/ode"
	"odeproto/internal/rewrite"
	"odeproto/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "odeproto:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("odeproto", flag.ContinueOnError)
	var (
		file      = fs.String("file", "", "equation system file (DSL); '-' for stdin")
		params    = fs.String("params", "", "comma-separated parameter values, e.g. beta=4,gamma=1")
		pFlag     = fs.Float64("p", 0, "normalizing constant p (0 = auto)")
		failure   = fs.Float64("f", 0, "compensated connection failure rate")
		rewriteIt = fs.Bool("rewrite", true, "rewrite non-mappable systems (§7) and expand constant terms (§6) before translating")
		slack     = fs.String("slack", "z", "slack variable name used by rewriting")
		analyze   = fs.Bool("analyze", false, "locate and classify equilibria")
		simulate  = fs.Int("simulate", 0, "simulate the protocol over this many processes")
		initial   = fs.String("initial", "", "initial counts, e.g. x=900,y=100")
		periods   = fs.Int("periods", 100, "periods to simulate")
		seed      = fs.Int64("seed", 1, "simulation seed")
		every     = fs.Int("every", 10, "print simulated counts every this many periods")
		engine    = fs.String("engine", "agent", "simulation engine: agent (per-process), aggregate (count-based), or asyncnet (asynchronous runtime)")
		shards    = fs.Int("shards", 0, "agent-engine RNG shards K (0/1 = serial; fixed K is reproducible at any worker count)")
		asyncMode = fs.String("async-mode", "", "asyncnet execution mode: virtual (default; deterministic discrete-event scheduler) or wallclock (real goroutines and timers)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; exit 0 like the old flag.Parse behavior
		}
		return err
	}
	if *file == "" {
		fs.Usage()
		return fmt.Errorf("missing -file")
	}
	src, err := readSource(*file)
	if err != nil {
		return err
	}
	paramMap, err := parseKV(*params, parseFloat)
	if err != nil {
		return err
	}

	sys, err := ode.Parse(src, paramMap)
	if err != nil {
		return err
	}
	fmt.Println("equations:")
	fmt.Println(indent(sys.String()))
	cls := sys.Classify()
	fmt.Printf("taxonomy: %s\n", cls)

	if rewrite.Needed(sys) {
		if !*rewriteIt {
			return fmt.Errorf("system needs the §7 rewrite or the §6 expansion of a constant, and -rewrite=false")
		}
		rewritten, err := rewrite.MakeMappable(sys, ode.Var(*slack))
		if err != nil {
			return fmt.Errorf("rewriting failed: %w", err)
		}
		sys = rewritten
		fmt.Println("rewritten (complete + homogenized + split):")
		fmt.Println(indent(sys.String()))
		fmt.Printf("taxonomy: %s\n", sys.Classify())
	}

	proto, err := core.Translate(sys, core.Options{P: *pFlag, FailureRate: *failure})
	if err != nil {
		return err
	}
	fmt.Println("protocol:")
	fmt.Print(indent(proto.String()))
	for _, s := range proto.States {
		fmt.Printf("  state %s sends %d sampling message(s) per period\n", s, proto.SamplingMessages(s))
	}

	if *analyze {
		if err := analyzeSystem(sys); err != nil {
			return err
		}
	}
	if *simulate > 0 {
		return runSimulation(proto, *simulate, *initial, *periods, *seed, *every, *engine, *shards, *asyncMode)
	}
	return nil
}

func analyzeSystem(sys *ode.System) error {
	fmt.Println("equilibria (Newton from a simplex seed grid):")
	vars := sys.Vars()
	elim := vars[len(vars)-1]
	seeds := simplexSeeds(vars)
	eqs := dynamics.FindEquilibria(sys, elim, seeds)
	if len(eqs) == 0 {
		fmt.Println("  none found")
		return nil
	}
	for _, e := range eqs {
		var parts []string
		for _, v := range vars {
			parts = append(parts, fmt.Sprintf("%s=%.6g", v, e.Point[v]))
		}
		fmt.Printf("  (%s): %s, eigenvalues %v\n", strings.Join(parts, ", "), e.Class, e.Eigenvalues)
	}
	return nil
}

// simplexSeeds returns a coarse grid of seed points on the simplex.
func simplexSeeds(vars []ode.Var) []map[ode.Var]float64 {
	var seeds []map[ode.Var]float64
	fracs := []float64{0.01, 0.33, 0.9}
	m := len(vars)
	var build func(i int, remaining float64, cur map[ode.Var]float64)
	build = func(i int, remaining float64, cur map[ode.Var]float64) {
		if i == m-1 {
			point := make(map[ode.Var]float64, m)
			for k, v := range cur {
				point[k] = v
			}
			point[vars[i]] = remaining
			seeds = append(seeds, point)
			return
		}
		for _, f := range fracs {
			take := remaining * f
			cur[vars[i]] = take
			build(i+1, remaining-take, cur)
		}
		delete(cur, vars[i])
	}
	build(0, 1, make(map[ode.Var]float64))
	return seeds
}

func runSimulation(proto *core.Protocol, n int, initialSpec string, periods int, seed int64, every int, engine string, shards int, asyncMode string) error {
	if engine != "asyncnet" && asyncMode != "" {
		// Mirror the service's validation: a mode on a synchronous engine
		// is a mistyped request, not a no-op.
		return fmt.Errorf("-async-mode %q is only meaningful with -engine asyncnet", asyncMode)
	}
	counts := make(map[ode.Var]int, len(proto.States))
	if initialSpec == "" {
		// Uniform split with remainder on the first state.
		per := n / len(proto.States)
		rem := n - per*len(proto.States)
		for i, s := range proto.States {
			counts[s] = per
			if i == 0 {
				counts[s] += rem
			}
		}
	} else {
		kv, err := parseKV(initialSpec, strconv.Atoi)
		if err != nil {
			return fmt.Errorf("-initial takes whole counts: %w", err)
		}
		total := 0
		for k, v := range kv {
			counts[ode.Var(k)] = v
			total += v
		}
		if rest := n - total; rest > 0 {
			counts[proto.States[len(proto.States)-1]] += rest
		}
	}
	var newRunner func(seed int64) (harness.Runner, error)
	switch engine {
	case "agent":
		newRunner = func(seed int64) (harness.Runner, error) {
			return harness.NewAgent(sim.Config{N: n, Protocol: proto, Initial: counts, Seed: seed, Shards: shards})
		}
	case "aggregate":
		newRunner = func(seed int64) (harness.Runner, error) {
			return harness.NewAggregate(proto, counts, seed, 0)
		}
	case "asyncnet":
		mode, err := asyncnet.Mode(asyncMode).Normalize()
		if err != nil {
			return err
		}
		newRunner = func(seed int64) (harness.Runner, error) {
			return asyncnet.NewRunner(asyncnet.Config{
				N: n, Protocol: proto, Initial: counts, Seed: seed, Mode: mode,
			})
		}
	default:
		return fmt.Errorf("unknown engine %q (want agent, aggregate, or asyncnet)", engine)
	}
	if every < 1 {
		every = 1
	}
	header := []string{"period"}
	for _, s := range proto.States {
		header = append(header, string(s))
	}
	fmt.Println(strings.Join(header, "\t"))
	printRow := func(r harness.Runner, t int) {
		row := []string{strconv.Itoa(t)}
		for _, s := range proto.States {
			row = append(row, strconv.Itoa(r.Count(s)))
		}
		fmt.Println(strings.Join(row, "\t"))
	}
	res := harness.Run(harness.Job{
		Name:    "odeproto-simulate",
		Seed:    seed,
		New:     newRunner,
		Periods: periods,
		BeforeStep: func(r harness.Runner, t int) {
			if t%every == 0 {
				printRow(r, t)
			}
		},
		Done: func(r harness.Runner) error {
			if periods%every == 0 {
				printRow(r, periods)
			}
			return nil
		},
	})
	return res.Err
}

func readSource(path string) (string, error) {
	if path == "-" {
		data, err := os.ReadFile("/dev/stdin")
		if err != nil {
			return "", err
		}
		return string(data), nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// parseKV reads "k=v,k=v", each value read by parse.
func parseKV[V any](spec string, parse func(string) (V, error)) (map[string]V, error) {
	out := make(map[string]V)
	if strings.TrimSpace(spec) == "" {
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad key=value pair %q", part)
		}
		v, err := parse(kv[1])
		if err != nil {
			return nil, fmt.Errorf("bad value in %q: %w", part, err)
		}
		out[strings.TrimSpace(kv[0])] = v
	}
	return out, nil
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "  " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
