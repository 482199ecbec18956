package lv

import (
	"math"
	"math/rand"
	"testing"

	"odeproto/internal/core"
	"odeproto/internal/ode"
	"odeproto/internal/solver"
)

func TestSystemTaxonomy(t *testing.T) {
	c := System().Classify()
	if !c.Mappable() || !c.RestrictedPolynomial {
		t.Fatalf("LV (7) classification %v", c)
	}
}

func TestCompetitionSystemNotMappable(t *testing.T) {
	c := CompetitionSystem().Classify()
	if c.Complete || c.CompletelyPartitionable {
		t.Fatalf("LV (6) should not be complete: %v", c)
	}
}

// TestRewrittenMatchesHandWritten: the mechanical §7 pipeline applied to
// (6) gives dynamics identical to the paper's hand-written (7).
func TestRewrittenMatchesHandWritten(t *testing.T) {
	rw, err := RewrittenSystem()
	if err != nil {
		t.Fatal(err)
	}
	hand := System()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		x := rng.Float64()
		y := rng.Float64() * (1 - x)
		point := map[ode.Var]float64{ProposalX: x, ProposalY: y, Undecided: 1 - x - y}
		a := rw.PointFromVec(rw.Eval(point))
		b := hand.PointFromVec(hand.Eval(point))
		for _, v := range []ode.Var{ProposalX, ProposalY, Undecided} {
			if math.Abs(a[v]-b[v]) > 1e-9 {
				t.Fatalf("rewritten and hand-written disagree on %s: %v vs %v", v, a[v], b[v])
			}
		}
	}
}

func TestProtocolIsFigure3(t *testing.T) {
	proto, err := NewProtocol(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(proto.Actions) != 4 {
		t.Fatalf("LV protocol has %d actions, want 4", len(proto.Actions))
	}
	for _, a := range proto.Actions {
		if a.Kind != core.Sample || len(a.Samples) != 1 {
			t.Fatalf("non-Figure-3 action %v", a)
		}
		if math.Abs(a.Coin-3*DefaultP) > 1e-12 {
			t.Fatalf("coin %v, want 3p = %v", a.Coin, 3*DefaultP)
		}
	}
}

// TestMajorityWins is the core correctness property: starting from a 60/40
// split, the initial majority wins.
func TestMajorityWins(t *testing.T) {
	run, err := Simulate(Config{
		N:        4000,
		InitialX: 2400,
		InitialY: 1600,
		Periods:  2000,
		FailAt:   -1,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Winner != ProposalX {
		t.Fatalf("winner = %q, want x (initial majority); converged at %d", run.Winner, run.ConvergedAt)
	}
	if run.ConvergedAt < 0 {
		t.Fatal("did not converge")
	}
}

// TestMajorityWinsSymmetric: the mirrored split elects y.
func TestMajorityWinsSymmetric(t *testing.T) {
	run, err := Simulate(Config{
		N:        4000,
		InitialX: 1600,
		InitialY: 2400,
		Periods:  2000,
		FailAt:   -1,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Winner != ProposalY {
		t.Fatalf("winner = %q, want y", run.Winner)
	}
}

// TestSelfStabilizationAfterMassiveFailure reproduces Figure 12 at test
// scale: 50% of processes crash mid-run and the survivors still converge.
func TestSelfStabilizationAfterMassiveFailure(t *testing.T) {
	run, err := Simulate(Config{
		N:        4000,
		InitialX: 2400,
		InitialY: 1600,
		Periods:  3000,
		FailAt:   50,
		FailFrac: 0.5,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// KillFraction rounds to nearest and kills exactly its target: all
	// 4000 processes are alive at FailAt, so exactly half die.
	if run.Killed != 2000 {
		t.Fatalf("killed %d, want exactly 2000", run.Killed)
	}
	if run.ConvergedAt < 0 {
		t.Fatal("did not converge after massive failure")
	}
}

// TestNoWinnerInAnEmptyGroup: a failure that kills every process leaves
// nobody proposing anything, so no proposal has won.
func TestNoWinnerInAnEmptyGroup(t *testing.T) {
	run, err := Simulate(Config{
		N: 400, InitialX: 240, InitialY: 160,
		P: DefaultP, Periods: 40, FailAt: 10, FailFrac: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Killed != 400 {
		t.Fatalf("killed %d, want all 400", run.Killed)
	}
	if run.Winner != "" || run.ConvergedAt != -1 {
		t.Fatalf("winner %q at period %d in an empty group, want none at -1", run.Winner, run.ConvergedAt)
	}
}

// TestTieBreaks: an exact tie still converges to one of the two proposals
// (the saddle at (1/3,1/3,1/3) is unsustainable in finite groups, §4.2.2).
func TestTieBreaks(t *testing.T) {
	run, err := Simulate(Config{
		N:        1000,
		InitialX: 500,
		InitialY: 500,
		Periods:  6000,
		FailAt:   -1,
		Seed:     13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.ConvergedAt < 0 {
		t.Fatal("tie never resolved; finite-group randomization should break it")
	}
	if run.Winner != ProposalX && run.Winner != ProposalY {
		t.Fatalf("winner = %q", run.Winner)
	}
}

// TestAgreementIsStable: after convergence every alive process stays at the
// winner (self-stabilization: no action fires once x or y is empty).
func TestAgreementIsStable(t *testing.T) {
	run, err := Simulate(Config{
		N:        1000,
		InitialX: 700,
		InitialY: 300,
		Periods:  3000,
		FailAt:   -1,
		Seed:     17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.ConvergedAt < 0 {
		t.Skip("run did not converge within test budget")
	}
	// After convergence the recorded series must stay converged.
	for i, tm := range run.Times {
		if int(tm) > run.ConvergedAt+1 {
			if run.Winner == ProposalX && run.X[i] != 1000 {
				t.Fatalf("x dropped to %v after convergence at period %v", run.X[i], tm)
			}
		}
	}
}

func TestPhasePortraitRespectsDiagonal(t *testing.T) {
	// Initial points on either side of x = y converge to the matching
	// corner (Theorem 4) — test two representative points at small scale.
	const n = 600
	trs, err := PhasePortrait(n, 0.05, [][3]int{
		{200, 100, 300}, // x majority
		{100, 200, 300}, // y majority
	}, 4000, 10, 23)
	if err != nil {
		t.Fatal(err)
	}
	finalX0 := trs[0].Xs[len(trs[0].Xs)-1]
	finalY1 := trs[1].Ys[len(trs[1].Ys)-1]
	if finalX0 < 0.95*n {
		t.Fatalf("x-majority trajectory ended at X = %v, want ≈ %d", finalX0, n)
	}
	if finalY1 < 0.95*n {
		t.Fatalf("y-majority trajectory ended at Y = %v, want ≈ %d", finalY1, n)
	}
}

func TestPhasePortraitValidation(t *testing.T) {
	if _, err := PhasePortrait(100, 0.01, [][3]int{{1, 1, 1}}, 10, 1, 1); err == nil {
		t.Fatal("bad initial point accepted")
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(Config{N: 10, InitialX: 8, InitialY: 8, Periods: 1, FailAt: -1}); err == nil {
		t.Fatal("overfull initial split accepted")
	}
}

// TestConvergenceComplexityMatchesODE: the closed-form linearized solution
// near (0, 1) tracks the RK4 integration of the full equations (7) for a
// small initial displacement.
func TestConvergenceComplexityMatchesODE(t *testing.T) {
	sys := System()
	u0, v0 := 0.01, 0.015
	x0 := []float64{u0, 1 - v0, v0 - u0}
	tr, err := solver.RK4(solver.FromSystem(sys), x0, 0, 2, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range []float64{0.2, 0.5, 1.0} {
		got := tr.At(tm)
		wantX, wantY := ConvergenceComplexity(u0, v0, tm)
		if math.Abs(got[0]-wantX) > 0.15*wantX+1e-4 {
			t.Fatalf("x(%v): ODE %v vs closed form %v", tm, got[0], wantX)
		}
		if math.Abs(got[1]-wantY) > 0.01 {
			t.Fatalf("y(%v): ODE %v vs closed form %v", tm, got[1], wantY)
		}
	}
}

// TestConvergenceComplexityExponential: x decays like e^{−3t}, giving the
// O(log N) periods-to-minority-O(1) claim.
func TestConvergenceComplexityExponential(t *testing.T) {
	x1, _ := ConvergenceComplexity(0.01, 0.01, 1)
	x2, _ := ConvergenceComplexity(0.01, 0.01, 2)
	ratio := x1 / x2
	if math.Abs(ratio-math.Exp(3)) > 1e-9 {
		t.Fatalf("decay ratio %v, want e^3", ratio)
	}
}

func TestFigure4InitialPointsSumTo1000(t *testing.T) {
	for _, ic := range Figure4InitialPoints() {
		if ic[0]+ic[1]+ic[2] != 1000 {
			t.Fatalf("initial point %v does not sum to 1000", ic)
		}
	}
}

// TestMajorityAccuracyGrowsWithMargin quantifies the "w.h.p." clause of
// probabilistic majority selection: a wide margin must win essentially
// always, and a wide margin must never be less accurate than a razor-thin
// one.
func TestMajorityAccuracyGrowsWithMargin(t *testing.T) {
	points, err := MajorityAccuracy(2000, []int{51, 60, 75}, 6, 4000, 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	if points[2].Accuracy < 0.99 {
		t.Fatalf("75/25 split accuracy %v, want ~1", points[2].Accuracy)
	}
	if points[1].Accuracy < 0.8 {
		t.Fatalf("60/40 split accuracy %v, want ≥ 0.8", points[1].Accuracy)
	}
	if points[2].Accuracy < points[0].Accuracy-1e-9 {
		t.Fatalf("accuracy not monotone: 75%% -> %v vs 51%% -> %v",
			points[2].Accuracy, points[0].Accuracy)
	}
}

func TestMajorityAccuracyValidation(t *testing.T) {
	if _, err := MajorityAccuracy(100, []int{40}, 2, 10, 0.05, 1); err == nil {
		t.Fatal("margin below 50% accepted")
	}
	if _, err := MajorityAccuracy(100, []int{60}, 0, 10, 0.05, 1); err == nil {
		t.Fatal("zero trials accepted")
	}
}
