// Command figures regenerates every figure of the paper's evaluation
// (Figures 2 and 4–12) plus the in-text quantitative results (R1–R4),
// writing gnuplot-style .dat files and SVG renderings into the output
// directory.
//
// By default the experiments run at the paper's scales (up to 100,000
// hosts and 10,000 periods; a few minutes total). -quick runs reduced
// scales suitable for CI. Sweep-shaped experiments fan out across
// GOMAXPROCS workers through the harness scheduler; results are identical
// at any GOMAXPROCS.
//
// Usage:
//
//	figures [-out out/] [-quick] [-only fig5,fig6]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"odeproto/internal/churn"
	"odeproto/internal/endemic"
	"odeproto/internal/epidemic"
	"odeproto/internal/harness"
	"odeproto/internal/lv"
	"odeproto/internal/ode"
	"odeproto/internal/plot"
	"odeproto/internal/replica"
	"odeproto/internal/sim"
	"odeproto/internal/solver"
)

type figureFunc func(outDir string, quick bool) error

var figures = []struct {
	name string
	desc string
	fn   figureFunc
}{
	{"fig2", "endemic phase portrait (stable spiral)", fig2},
	{"fig4", "LV phase portrait (bistable)", fig4},
	{"fig5", "endemic massive failure: populations", fig5and6},
	{"fig7", "endemic analysis vs measured", fig7},
	{"fig8", "endemic replica untraceability scatter", fig8},
	{"fig9", "endemic churn: populations and transitions", fig9and10},
	{"fig11", "LV convergence to initial majority", fig11},
	{"fig12", "LV convergence under massive failure", fig12},
	{"supp-attack", "directed attack: endemic survival vs staleness", suppAttack},
	{"supp-views", "partial membership views vs equilibrium accuracy", suppViews},
	{"supp-margin", "LV majority accuracy vs initial margin", suppMargin},
	{"r1", "epidemic O(log N) rounds", r1},
	{"r2", "longevity of object replicas", r2},
	{"r3", "reality check (bandwidth, stints)", r3},
	{"r4", "LV convergence complexity", r4},
}

func main() {
	var (
		out   = flag.String("out", "out", "output directory")
		quick = flag.Bool("quick", false, "reduced scales for CI")
		only  = flag.String("only", "", "comma-separated subset, e.g. fig5,fig11")
	)
	flag.Parse()
	want := map[string]bool{}
	for _, n := range strings.Split(*only, ",") {
		if n = strings.TrimSpace(n); n != "" {
			want[n] = true
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	failed := 0
	for _, f := range figures {
		if len(want) > 0 && !want[f.name] {
			continue
		}
		start := time.Now()
		fmt.Printf("== %s: %s\n", f.name, f.desc)
		if err := f.fn(*out, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", f.name, err)
			failed++
			continue
		}
		fmt.Printf("   done in %v\n", time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// fig2: endemic phase portrait, N = 1000, α = 0.01, β = 4 (b = 2),
// γ = 1.0, seven initial points.
func fig2(out string, quick bool) error {
	periods := 5000
	if quick {
		periods = 800
	}
	p := endemic.Params{B: 2, Gamma: 1.0, Alpha: 0.01}
	trs, err := endemic.PhasePortrait(p, endemic.Figure2InitialPoints(), periods, 5, 2004)
	if err != nil {
		return err
	}
	chart := plot.NewChart("Fig 2: Endemic Phase Portrait (stable spiral)", "Num. X", "Num. Y")
	for i, tr := range trs {
		name := fmt.Sprintf("(%d,%d,%d)", tr.Initial.X, tr.Initial.Y, tr.Initial.Z)
		chart.AddLine(name, tr.Xs, tr.Ys)
		if err := plot.WriteDAT(filepath.Join(out, fmt.Sprintf("fig2_traj%d.dat", i)),
			[]string{"X", "Y"}, tr.Xs, tr.Ys); err != nil {
			return err
		}
	}
	// Overlay the ODE trajectory from the first initial point.
	sys := endemic.System(p.Beta(), p.Gamma, p.Alpha)
	tr, err := solver.RK4(solver.FromSystem(sys), []float64{0.999, 0.001, 0}, 0, float64(periods), 0.05)
	if err != nil {
		return err
	}
	xs := tr.Component(0)
	ys := tr.Component(1)
	for i := range xs {
		xs[i] *= 1000
		ys[i] *= 1000
	}
	chart.AddLine("ODE (999,1,0)", xs, ys)
	a := endemic.Analyze(p.Beta(), p.Gamma, p.Alpha)
	fmt.Printf("   equilibrium (X,Y,Z) = (%.1f, %.1f, %.1f), class = %s\n",
		1000*a.Equilibrium.Receptive, 1000*a.Equilibrium.Stash, 1000*a.Equilibrium.Averse, a.Class)
	return chart.WriteSVG(filepath.Join(out, "fig2.svg"))
}

// fig4: LV phase portrait, N = 1000, seven initial points.
func fig4(out string, quick bool) error {
	periods, pNorm := 6000, lv.DefaultP
	if quick {
		periods, pNorm = 2500, 0.05
	}
	trs, err := lv.PhasePortrait(1000, pNorm, lv.Figure4InitialPoints(), periods, 10, 2004)
	if err != nil {
		return err
	}
	chart := plot.NewChart("Fig 4: LV Phase Portrait", "Num. X", "Num. Y")
	for i, tr := range trs {
		name := fmt.Sprintf("(%d,%d,%d)", tr.X0, tr.Y0, tr.Z0)
		chart.AddLine(name, tr.Xs, tr.Ys)
		if err := plot.WriteDAT(filepath.Join(out, fmt.Sprintf("fig4_traj%d.dat", i)),
			[]string{"X", "Y"}, tr.Xs, tr.Ys); err != nil {
			return err
		}
		final := fmt.Sprintf("(%.0f,%.0f)", tr.Xs[len(tr.Xs)-1], tr.Ys[len(tr.Ys)-1])
		fmt.Printf("   start (%d,%d,%d) -> final %s\n", tr.X0, tr.Y0, tr.Z0, final)
	}
	return chart.WriteSVG(filepath.Join(out, "fig4.svg"))
}

// fig5and6: N = 100,000, b = 2, α = 10⁻⁶, γ = 10⁻³; 50% massive failure
// at t = 5000; Figure 5 plots populations over [4000, 10000], Figure 6 the
// file flux of the same run.
func fig5and6(out string, quick bool) error {
	cfg := endemic.MassiveFailureConfig{
		N:          100000,
		Params:     endemic.Params{B: 2, Gamma: 1e-3, Alpha: 1e-6},
		FailAt:     5000,
		FailFrac:   0.5,
		Periods:    10000,
		RecordFrom: 4000,
		Seed:       2004,
	}
	if quick {
		cfg.N = 20000
		cfg.FailAt = 500
		cfg.Periods = 1000
		cfg.RecordFrom = 400
		cfg.Params = endemic.Params{B: 2, Gamma: 1e-2, Alpha: 1e-5}
	}
	res, err := endemic.RunMassiveFailure(cfg)
	if err != nil {
		return err
	}
	if err := plot.WriteDAT(filepath.Join(out, "fig5.dat"),
		[]string{"time", "stash", "receptive", "averse"},
		res.Times, res.Stash, res.Receptive, res.Averse); err != nil {
		return err
	}
	c5 := plot.NewChart("Fig 5: Endemic Protocol - Massive Failures", "Time", "Count (alive)")
	c5.AddLine("Stash:Alive", res.Times, res.Stash)
	c5.AddLine("Rcptv:Alive", res.Times, res.Receptive)
	if err := c5.WriteSVG(filepath.Join(out, "fig5.svg")); err != nil {
		return err
	}
	if err := plot.WriteDAT(filepath.Join(out, "fig6.dat"),
		[]string{"time", "flux"}, res.Times, res.Flux); err != nil {
		return err
	}
	c6 := plot.NewChart("Fig 6: Endemic Protocol - File Flux Rate", "Time", "Rcptv->Stash per period")
	c6.AddLine("Rcptv->Stash", res.Times, res.Flux)
	if err := c6.WriteSVG(filepath.Join(out, "fig6.svg")); err != nil {
		return err
	}
	preIdx := cfg.FailAt - cfg.RecordFrom - 1
	if preIdx < 0 || preIdx >= len(res.Stash) {
		preIdx = 0
	}
	fmt.Printf("   killed %d; stash before/after: %.0f / %.0f\n",
		res.Killed, res.Stash[preIdx], res.Stash[len(res.Stash)-1])
	return nil
}

// fig7: analysis vs measured populations for N ∈ {12500, ..., 100000},
// b = 2, γ = 0.1, α = 0.001, medians over a 2000-period window.
func fig7(out string, quick bool) error {
	ns := []int{12500, 25000, 50000, 100000}
	warmup, window := 1000, 2000
	if quick {
		ns = []int{12500, 25000}
		warmup, window = 500, 500
	}
	p := endemic.Params{B: 2, Gamma: 0.1, Alpha: 0.001}
	points, err := endemic.RunEquilibriumSweep(ns, p, warmup, window, 2004)
	if err != nil {
		return err
	}
	var xs, rcptvMed, rcptvAna, stashMed, stashAna, rcptvMin, rcptvMax, stashMin, stashMax []float64
	fmt.Println("   N      #Rcptv(analysis) #Rcptv(measured) #Stash(analysis) #Stash(measured)")
	for _, pt := range points {
		xs = append(xs, float64(pt.N))
		rcptvMed = append(rcptvMed, pt.ReceptiveMeasured.Median)
		rcptvMin = append(rcptvMin, pt.ReceptiveMeasured.Min)
		rcptvMax = append(rcptvMax, pt.ReceptiveMeasured.Max)
		rcptvAna = append(rcptvAna, pt.ReceptiveAnalysis)
		stashMed = append(stashMed, pt.StashMeasured.Median)
		stashMin = append(stashMin, pt.StashMeasured.Min)
		stashMax = append(stashMax, pt.StashMeasured.Max)
		stashAna = append(stashAna, pt.StashAnalysis)
		fmt.Printf("   %-6d %-16.1f %-16.1f %-16.1f %-16.1f\n",
			pt.N, pt.ReceptiveAnalysis, pt.ReceptiveMeasured.Median,
			pt.StashAnalysis, pt.StashMeasured.Median)
	}
	if err := plot.WriteDAT(filepath.Join(out, "fig7.dat"),
		[]string{"N", "rcptv_analysis", "rcptv_median", "rcptv_min", "rcptv_max",
			"stash_analysis", "stash_median", "stash_min", "stash_max"},
		xs, rcptvAna, rcptvMed, rcptvMin, rcptvMax, stashAna, stashMed, stashMin, stashMax); err != nil {
		return err
	}
	chart := plot.NewChart("Fig 7: Accuracy of Continuous Time Analysis", "Number of Hosts", "Count")
	chart.AddLine("#Rcptvs (analysis)", xs, rcptvAna)
	chart.AddLine("#Rcptvs (measured)", xs, rcptvMed)
	chart.AddLine("#Stshrs (analysis)", xs, stashAna)
	chart.AddLine("#Stshrs (measured)", xs, stashMed)
	return chart.WriteSVG(filepath.Join(out, "fig7.svg"))
}

// fig8: stasher scatter over periods [1000, 1200], N = 1000, b = 2,
// γ = 0.1. The caption's α = 0.001 is inconsistent with its own quoted
// stable stasher count (88.63, one recruitment per 40.6 s), which
// corresponds to α = 0.01; we use α = 0.01.
func fig8(out string, quick bool) error {
	warmup, window := 1000, 200
	if quick {
		warmup = 300
	}
	p := endemic.Params{B: 2, Gamma: 0.1, Alpha: 0.01}
	res, err := endemic.RunUntraceability(1000, p, warmup, window, 2004)
	if err != nil {
		return err
	}
	if err := plot.WriteDAT(filepath.Join(out, "fig8.dat"),
		[]string{"time", "hostID"}, res.Scatter.Xs, res.Scatter.Ys); err != nil {
		return err
	}
	chart := plot.NewChart("Fig 8: Replica Untraceability and Load Balancing", "Time", "Host ID")
	chart.AddScatter("All Stashers", res.Scatter.Xs, res.Scatter.Ys)
	eq := endemic.StableEquilibrium(p.Beta(), p.Gamma, p.Alpha)
	fmt.Printf("   mean stashers %.1f (analysis %.2f), time-host correlation %.4f, fairness CV %.2f\n",
		res.MeanStashers, 1000*eq.Stash, res.TimeHostCorrelation, res.Fairness)
	return chart.WriteSVG(filepath.Join(out, "fig8.svg"))
}

// fig9and10: endemic under Overnet-calibrated churn, N = 2000, b = 32,
// γ = 0.1, α = 0.005, 6-minute periods, recorded hours 150–170.
func fig9and10(out string, quick bool) error {
	hours, from, to := 170.0, 150.0, 170.0
	if quick {
		hours, from, to = 40, 20, 40
	}
	trace, err := churn.Synthesize(2000, hours, 2004, churn.Config{})
	if err != nil {
		return err
	}
	res, err := endemic.RunChurn(endemic.ChurnConfig{
		N:              2000,
		Params:         endemic.Params{B: 32, Gamma: 0.1, Alpha: 0.005},
		Trace:          trace,
		PeriodsPerHour: 10,
		RecordFromHour: from,
		RecordToHour:   to,
		Seed:           2004,
	})
	if err != nil {
		return err
	}
	if err := plot.WriteDAT(filepath.Join(out, "fig9.dat"),
		[]string{"hour", "stash", "receptive", "averse"},
		res.Hours, res.Stash, res.Receptive, res.Averse); err != nil {
		return err
	}
	c9 := plot.NewChart("Fig 9: Endemic Protocol under Host Churn (populations)", "Time (Hours)", "Count (alive)")
	c9.AddLine("Stash:Alive", res.Hours, res.Stash)
	c9.AddLine("Rcptv:Alive", res.Hours, res.Receptive)
	c9.AddLine("Avers:Alive", res.Hours, res.Averse)
	if err := c9.WriteSVG(filepath.Join(out, "fig9.svg")); err != nil {
		return err
	}
	if err := plot.WriteDAT(filepath.Join(out, "fig10.dat"),
		[]string{"hour", "rcptv_to_stash", "stash_to_averse", "averse_to_rcptv"},
		res.Hours, res.RcptvToStash, res.StashToAverse, res.AverseToRcptv); err != nil {
		return err
	}
	c10 := plot.NewChart("Fig 10: Endemic Protocol under Host Churn (transitions)", "Time (Hours)", "Transitions per period")
	c10.AddLine("Rcptv->Stash", res.Hours, res.RcptvToStash)
	c10.AddLine("Stash->Avers", res.Hours, res.StashToAverse)
	c10.AddLine("Avers->Rcptv", res.Hours, res.AverseToRcptv)
	if err := c10.WriteSVG(filepath.Join(out, "fig10.svg")); err != nil {
		return err
	}
	var stashMin, stashMax float64 = 1 << 30, 0
	for _, s := range res.Stash {
		if s < stashMin {
			stashMin = s
		}
		if s > stashMax {
			stashMax = s
		}
	}
	fmt.Printf("   mean alive %.0f; stash range [%.0f, %.0f] (never zero: %v)\n",
		res.MeanAlive, stashMin, stashMax, stashMin > 0)
	return nil
}

// fig11: LV convergence, N = 100,000, start (60000, 40000, 0), p = 0.01.
func fig11(out string, quick bool) error {
	n := 100000
	if quick {
		n = 20000
	}
	run, err := lv.Simulate(lv.Config{
		N:        n,
		InitialX: n * 6 / 10,
		InitialY: n * 4 / 10,
		Periods:  1000,
		FailAt:   -1,
		Seed:     2004,
	})
	if err != nil {
		return err
	}
	if err := plot.WriteDAT(filepath.Join(out, "fig11.dat"),
		[]string{"time", "x", "y", "z"}, run.Times, run.X, run.Y, run.Z); err != nil {
		return err
	}
	chart := plot.NewChart("Fig 11: LV Protocol - Variation of Populations", "Time", "Count")
	chart.AddLine("State X", run.Times, run.X)
	chart.AddLine("State Y", run.Times, run.Y)
	chart.AddLine("State Z", run.Times, run.Z)
	fmt.Printf("   winner %s, converged at t = %d (paper: < 500)\n", run.Winner, run.ConvergedAt)
	return chart.WriteSVG(filepath.Join(out, "fig11.svg"))
}

// fig12: as fig11 with 50% massive failure at t = 100 (paper converges at
// t = 862).
func fig12(out string, quick bool) error {
	n := 100000
	if quick {
		n = 20000
	}
	run, err := lv.Simulate(lv.Config{
		N:        n,
		InitialX: n * 6 / 10,
		InitialY: n * 4 / 10,
		Periods:  1400,
		FailAt:   100,
		FailFrac: 0.5,
		Seed:     2004,
	})
	if err != nil {
		return err
	}
	if err := plot.WriteDAT(filepath.Join(out, "fig12.dat"),
		[]string{"time", "x", "y", "z"}, run.Times, run.X, run.Y, run.Z); err != nil {
		return err
	}
	chart := plot.NewChart("Fig 12: LV Protocol - Effect of Massive Failures", "Time", "Count")
	chart.AddLine("State X", run.Times, run.X)
	chart.AddLine("State Y", run.Times, run.Y)
	chart.AddLine("State Z", run.Times, run.Z)
	fmt.Printf("   killed %d, winner %s, converged at t = %d (paper: 862)\n",
		run.Killed, run.Winner, run.ConvergedAt)
	return chart.WriteSVG(filepath.Join(out, "fig12.svg"))
}

// suppAttack: §4.1's untraceability argument quantified — survival
// probability of the endemic object under directed attacks whose
// replica-location snapshot is increasingly stale by the time the strike
// lands. Static placement dies at every delay (its snapshot never goes
// stale); endemic survival rises from 0 to ≈ 1 over a few migration
// stints (1/γ periods).
func suppAttack(out string, quick bool) error {
	p := endemic.Params{B: 2, Gamma: 0.2, Alpha: 0.1}
	delays := []int{0, 1, 2, 4, 8, 20, 40}
	trials := 20
	n := 2000
	if quick {
		trials = 6
	}
	var xs, surv, static []float64
	fmt.Println("   mount-delay  endemic-survival  static-survival")
	for _, d := range delays {
		atk := replica.AttackConfig{Staleness: d + 20, MountDelay: d, Strikes: 2}
		pr, err := replica.SurvivalProbability(n, p, atk, trials, 2004)
		if err != nil {
			return err
		}
		xs = append(xs, float64(d))
		surv = append(surv, pr)
		static = append(static, 0)
		fmt.Printf("   %-12d %-17.2f %.2f\n", d, pr, 0.0)
	}
	if err := plot.WriteDAT(filepath.Join(out, "supp_attack.dat"),
		[]string{"mount_delay", "endemic_survival", "static_survival"}, xs, surv, static); err != nil {
		return err
	}
	chart := plot.NewChart("Supplementary: directed attack with stale replica locations", "Strike delay (periods)", "Survival probability")
	chart.AddLine("endemic", xs, surv)
	chart.AddLine("static placement", xs, static)
	return chart.WriteSVG(filepath.Join(out, "supp_attack.svg"))
}

// suppViews: footnote 1 — equilibrium stash population as the membership
// view shrinks from full down to a handful of peers.
func suppViews(out string, quick bool) error {
	const n = 20000
	p := endemic.Params{B: 2, Gamma: 0.1, Alpha: 0.001}
	proto, err := endemic.NewFigure1Protocol(p)
	if err != nil {
		return err
	}
	eq := endemic.StableEquilibrium(p.Beta(), p.Gamma, p.Alpha)
	views := []int{2, 4, 8, 16, 29, 64, 0} // 0 = full membership
	warmup, window := 1500, 500
	if quick {
		warmup, window = 600, 300
	}
	// One job per view size, fanned out in parallel.
	sums := make([]float64, len(views))
	jobs := make([]harness.Job, len(views))
	for i, k := range views {
		sum := &sums[i]
		cfg := sim.Config{
			N: n, Protocol: proto,
			Initial:  map[ode.Var]int{endemic.Receptive: n - n/10, endemic.Stash: n / 10, endemic.Averse: 0},
			ViewSize: k,
		}
		jobs[i] = harness.Job{
			Name: fmt.Sprintf("view%d", k),
			Seed: 2004,
			New: func(seed int64) (harness.Runner, error) {
				cfg.Seed = seed
				return harness.NewAgent(cfg)
			},
			Periods: warmup + window,
			AfterStep: func(r harness.Runner, t int) {
				if t >= warmup {
					*sum += float64(r.Count(endemic.Stash))
				}
			},
		}
	}
	if _, err := harness.Sweep(jobs, harness.Options{}); err != nil {
		return err
	}
	var xs, stash []float64
	fmt.Println("   view-size  stash (analysis 193.1)")
	for i, k := range views {
		avgStash := sums[i] / float64(window)
		label := k
		if k == 0 {
			label = n - 1 // full membership
		}
		xs = append(xs, float64(label))
		stash = append(stash, avgStash)
		fmt.Printf("   %-10d %.1f\n", label, avgStash)
	}
	if err := plot.WriteDAT(filepath.Join(out, "supp_views.dat"),
		[]string{"view_size", "stash", "analysis"}, xs, stash, repeatValue(eq.Stash*n, len(xs))); err != nil {
		return err
	}
	chart := plot.NewChart("Supplementary: equilibrium vs membership view size", "View size (peers)", "Mean stash population")
	chart.AddLine("measured", xs, stash)
	chart.AddLine("analysis", xs, repeatValue(eq.Stash*n, len(xs)))
	return chart.WriteSVG(filepath.Join(out, "supp_views.svg"))
}

// suppMargin: the probabilistic majority-selection specification promises
// the decision equals the initial majority "w.h.p."; this sweep measures
// the accuracy as a function of the initial margin. Near-ties sit close to
// the saddle separatrix and can flip; clear majorities essentially never
// lose.
func suppMargin(out string, quick bool) error {
	n, trials, periods := 5000, 10, 6000
	if quick {
		// Small N makes the near-tie flips visible: at N = 400 the
		// one-period fluctuation scale √N exceeds a 1% margin.
		n, trials, periods = 400, 10, 4000
	}
	margins := []int{51, 52, 55, 60, 70}
	points, err := lv.MajorityAccuracy(n, margins, trials, periods, 0.05, 2004)
	if err != nil {
		return err
	}
	var xs, acc, conv []float64
	fmt.Println("   margin%  accuracy  mean-convergence")
	for _, pt := range points {
		xs = append(xs, float64(pt.MarginPct))
		acc = append(acc, pt.Accuracy)
		conv = append(conv, pt.MeanConvergence)
		fmt.Printf("   %-8d %-9.2f %.0f\n", pt.MarginPct, pt.Accuracy, pt.MeanConvergence)
	}
	if err := plot.WriteDAT(filepath.Join(out, "supp_margin.dat"),
		[]string{"margin_pct", "accuracy", "mean_convergence"}, xs, acc, conv); err != nil {
		return err
	}
	chart := plot.NewChart("Supplementary: LV majority accuracy vs initial margin", "Initial majority (%)", "P(majority wins)")
	chart.AddLine("accuracy", xs, acc)
	return chart.WriteSVG(filepath.Join(out, "supp_margin.svg"))
}

func repeatValue(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// r1: epidemic rounds vs log₂ N.
func r1(out string, quick bool) error {
	ns := []int{1000, 4000, 16000, 64000}
	if quick {
		ns = []int{1000, 4000, 16000}
	}
	var xs, rounds, pred []float64
	fmt.Println("   N      rounds  2·lnN")
	for _, n := range ns {
		res, err := epidemic.Run(n, 2004, 1000)
		if err != nil {
			return err
		}
		xs = append(xs, float64(n))
		rounds = append(rounds, float64(res.Rounds))
		pred = append(pred, epidemic.PredictedRounds(n))
		fmt.Printf("   %-6d %-7d %.1f\n", n, res.Rounds, epidemic.PredictedRounds(n))
	}
	if err := plot.WriteDAT(filepath.Join(out, "r1_epidemic_logn.dat"),
		[]string{"N", "rounds", "predicted"}, xs, rounds, pred); err != nil {
		return err
	}
	chart := plot.NewChart("R1: Epidemic completes in O(log N) rounds", "N", "Rounds")
	chart.AddLine("measured", xs, rounds)
	chart.AddLine("2·ln N", xs, pred)
	return chart.WriteSVG(filepath.Join(out, "r1_epidemic_logn.svg"))
}

// r2: replica longevity headline numbers.
func r2(out string, _ bool) error {
	rows := []struct {
		n        int
		replicas float64
	}{
		{1024, 50},
		{1 << 20, 100},
	}
	var ns, reps, years []float64
	fmt.Println("   N        replicas  P(extinction)  longevity(years)")
	for _, r := range rows {
		p := endemic.ExtinctionProbability(r.replicas)
		y := endemic.ExpectedLongevityYears(r.replicas, 6)
		ns = append(ns, float64(r.n))
		reps = append(reps, r.replicas)
		years = append(years, y)
		fmt.Printf("   %-8d %-9.0f %-14.3g %.3g\n", r.n, r.replicas, p, y)
	}
	return plot.WriteDAT(filepath.Join(out, "r2_longevity.dat"),
		[]string{"N", "replicas", "longevity_years"}, ns, reps, years)
}

// r3: the §5.1 reality check.
func r3(out string, _ bool) error {
	p := endemic.Params{B: 2, Gamma: 1e-3, Alpha: 1e-6}
	rc := endemic.ComputeRealityCheck(100000, p, 88.2*1024, 6)
	fmt.Printf("   stash fraction of time: %.4g (paper ~0.001)\n", rc.StashFractionOfTime)
	fmt.Printf("   storage stint: %.0f periods = %.0f hours (paper: 100 hours)\n",
		rc.StintPeriods, rc.StintPeriods*6/60)
	fmt.Printf("   bandwidth: %.3g bps/file/host (paper: 3.92e-3)\n", rc.BandwidthBps)
	return plot.WriteDAT(filepath.Join(out, "r3_reality_check.dat"),
		[]string{"stash_fraction", "stint_periods", "bandwidth_bps"},
		[]float64{rc.StashFractionOfTime}, []float64{rc.StintPeriods}, []float64{rc.BandwidthBps})
}

// r4: LV convergence complexity — closed form vs RK4 integration.
func r4(out string, _ bool) error {
	sys := lv.System()
	u0, v0 := 0.01, 0.015
	tr, err := solver.RK4(solver.FromSystem(sys), []float64{u0, 1 - v0, v0 - u0}, 0, 3, 1e-4)
	if err != nil {
		return err
	}
	var ts, odeX, cfX, odeY, cfY []float64
	for _, tm := range []float64{0, 0.25, 0.5, 0.75, 1, 1.5, 2, 3} {
		got := tr.At(tm)
		x, y := lv.ConvergenceComplexity(u0, v0, tm)
		ts = append(ts, tm)
		odeX = append(odeX, got[0])
		cfX = append(cfX, x)
		odeY = append(odeY, got[1])
		cfY = append(cfY, y)
	}
	fmt.Printf("   x(1)/x(2) decay ratio: closed form %.2f (e^3 = %.2f)\n", cfX[4]/cfX[6], 20.09)
	if err := plot.WriteDAT(filepath.Join(out, "r4_convergence.dat"),
		[]string{"t", "x_ode", "x_closed", "y_ode", "y_closed"},
		ts, odeX, cfX, odeY, cfY); err != nil {
		return err
	}
	chart := plot.NewChart("R4: LV convergence complexity near (0,1)", "t", "fraction")
	chart.AddLine("x ODE", ts, odeX)
	chart.AddLine("x closed form", ts, cfX)
	return chart.WriteSVG(filepath.Join(out, "r4_convergence.svg"))
}
