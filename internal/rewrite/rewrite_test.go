package rewrite

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"odeproto/internal/ode"
)

func mustParse(t *testing.T, src string, params map[string]float64) *ode.System {
	t.Helper()
	s, err := ode.Parse(src, params)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCompleteAddsSlack(t *testing.T) {
	s := mustParse(t, "x' = 3*x - 3*x^2 - 6*x*y\ny' = 3*y - 3*y^2 - 6*x*y", nil)
	c, err := Complete(s, "z")
	if err != nil {
		t.Fatal(err)
	}
	if !c.HasVar("z") {
		t.Fatal("slack variable missing")
	}
	if !c.IsComplete() {
		t.Fatalf("completed system not complete: %v", c.CompletenessDefect())
	}
	// Original equations unchanged.
	origEq, _ := s.Equation("x")
	newEq, _ := c.Equation("x")
	if len(origEq.Terms) != len(newEq.Terms) {
		t.Fatal("Complete modified original equations")
	}
}

func TestCompleteRejectsExistingVar(t *testing.T) {
	s := mustParse(t, "x' = -x*y\ny' = x*y", nil)
	if _, err := Complete(s, "x"); err == nil {
		t.Fatal("expected error for slack collision")
	}
}

func TestCompleteOnAlreadyCompleteSystem(t *testing.T) {
	s := mustParse(t, "x' = -x*y\ny' = x*y", nil)
	c, err := Complete(s, "z")
	if err != nil {
		t.Fatal(err)
	}
	// Slack equation should be empty: all terms cancel.
	eq, ok := c.Equation("z")
	if !ok {
		t.Fatal("z missing")
	}
	if len(eq.Terms) != 0 {
		t.Fatalf("slack equation should cancel to zero, got %v", eq.Terms)
	}
}

// TestLVRewriting verifies that Complete + Homogenize mechanically
// reproduces the paper's rewriting of the LV equations (6) into the
// mappable system (7).
func TestLVRewriting(t *testing.T) {
	six := mustParse(t, `
x' = 3*x - 3*x^2 - 6*x*y
y' = 3*y - 3*y^2 - 6*x*y
`, nil)
	got, err := MakeMappable(six, "z")
	if err != nil {
		t.Fatal(err)
	}
	want := mustParse(t, `
x' = 3*x*z - 3*x*y
y' = 3*y*z - 3*x*y
z' = -3*x*z - 3*y*z + 3*x*y + 3*x*y
`, nil)
	// Compare by evaluation on random fraction points.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		x := rng.Float64()
		y := rng.Float64() * (1 - x)
		z := 1 - x - y
		p := map[ode.Var]float64{"x": x, "y": y, "z": z}
		g, w := got.Eval(p), want.Eval(p)
		gp, wp := got.PointFromVec(g), want.PointFromVec(w)
		for _, v := range []ode.Var{"x", "y", "z"} {
			if math.Abs(gp[v]-wp[v]) > 1e-9 {
				t.Fatalf("trial %d: rewritten %s' = %v, paper's (7) gives %v", trial, v, gp[v], wp[v])
			}
		}
	}
	if !got.IsCompletelyPartitionable() {
		t.Fatal("rewritten LV not completely partitionable")
	}
	if !got.IsRestrictedPolynomial() {
		t.Fatal("rewritten LV not restricted polynomial")
	}
}

func TestNormalizeEpidemic(t *testing.T) {
	// Counts form: x' = -(1/N)xy, y' = (1/N)xy with N = 50.
	const n = 50.0
	counts := mustParse(t, "x' = -0.02*x*y\ny' = 0.02*x*y", nil)
	frac := Normalize(counts, n)
	eq, _ := frac.Equation("x")
	// Coefficient should become 0.02 * 50^(2-1) = 1.
	if len(eq.Terms) != 1 || math.Abs(eq.Terms[0].Coef-1) > 1e-12 {
		t.Fatalf("normalized terms = %v, want coefficient 1", eq.Terms)
	}
}

func TestNormalizeLinearTermUnchanged(t *testing.T) {
	s := mustParse(t, "x' = -0.5*x\ny' = 0.5*x", nil)
	n := Normalize(s, 1000)
	eq, _ := n.Equation("x")
	if eq.Terms[0].Coef != 0.5 {
		t.Fatalf("degree-1 coefficient changed: %v", eq.Terms[0].Coef)
	}
}

func TestNormalizeConstantTerm(t *testing.T) {
	// Degree-0 term scales by N^{-1}.
	s := ode.NewSystem()
	s.MustAddEquation("x", ode.NewTerm(10, nil))
	s.MustAddEquation("y", ode.NewTerm(-10, nil))
	n := Normalize(s, 100)
	eq, _ := n.Equation("x")
	if math.Abs(eq.Terms[0].Coef-0.1) > 1e-12 {
		t.Fatalf("constant coefficient = %v, want 0.1", eq.Terms[0].Coef)
	}
}

func TestExpandConstants(t *testing.T) {
	s := ode.NewSystem()
	s.MustAddEquation("x", ode.NewTerm(-0.2, nil))
	s.MustAddEquation("y", ode.NewTerm(0.2, nil))
	e := ExpandConstants(s)
	eqx, _ := e.Equation("x")
	if len(eqx.Terms) != 2 {
		t.Fatalf("expected 2 expanded terms, got %v", eqx.Terms)
	}
	// Evaluate on a fraction point: must agree with original.
	p := map[ode.Var]float64{"x": 0.3, "y": 0.7}
	if math.Abs(eqx.Eval(p)+0.2) > 1e-12 {
		t.Fatalf("expansion changed value: %v", eqx.Eval(p))
	}
	for _, tm := range eqx.Terms {
		if tm.Degree() == 0 {
			t.Fatal("constant term survived expansion")
		}
	}
}

// TestMakeMappableExpandsConstants: a constant term needs the rewrite even
// in a system classified mappable. Homogenize already raises constants in a
// system of degree ≥ 1; in a degree-0 one MakeMappable expands them (§6),
// and either way what comes out has none, agrees on the simplex and
// partitions.
func TestMakeMappableExpandsConstants(t *testing.T) {
	for _, c := range []struct {
		src             string
		needed, degree0 bool
	}{
		{"x' = -x*y\ny' = x*y", false, false},
		{"x' = 3*x - 3*x^2 - 6*x*y\ny' = 3*y - 3*y^2", true, false}, // not complete
		{"a' = -0.15 + 0.1*w\nw' = 0.15 - 0.1*w", true, false},      // examples/custom-ode's pool
		{"a' = -0.5 + a*b\nb' = 0.5 - a*b", true, false},
		{"a' = 1\nb' = -1", true, true},
	} {
		s := mustParse(t, c.src, nil)
		if got := Needed(s); got != c.needed {
			t.Errorf("Needed(%q) = %v, want %v", c.src, got, c.needed)
		}
		if !c.needed {
			continue
		}
		if survived := hasConstant(Homogenize(s)); survived != c.degree0 {
			t.Errorf("%q: a constant survived Homogenize: %v, want %v", c.src, survived, c.degree0)
		}
		m, err := MakeMappable(s, "z")
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if hasConstant(m) || !m.IsCompletelyPartitionable() {
			t.Fatalf("%q rewrote to\n%v", c.src, m)
		}
		// On the simplex (the slack, if any, at 0) the rewrite is an identity.
		vars := s.Vars()
		p := map[ode.Var]float64{"z": 0}
		for i, v := range vars {
			p[v] = float64(2*(i+1)) / float64(len(vars)*(len(vars)+1))
		}
		got, want := m.PointFromVec(m.Eval(p)), s.PointFromVec(s.Eval(p))
		for _, v := range vars {
			if math.Abs(got[v]-want[v]) > 1e-12 {
				t.Errorf("%q: rewritten %s' = %v at %v, want %v", c.src, v, got[v], p, want[v])
			}
		}
	}
}

func TestHomogenizePreservesValuesOnSimplex(t *testing.T) {
	src := `
x' = 3*x - 3*x^2 - 6*x*y
y' = 3*y - 3*y^2 - 6*x*y
`
	s := mustParse(t, src, nil)
	c, err := Complete(s, "z")
	if err != nil {
		t.Fatal(err)
	}
	h := Homogenize(c)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		x := rng.Float64()
		y := rng.Float64() * (1 - x)
		p := map[ode.Var]float64{"x": x, "y": y, "z": 1 - x - y}
		a, b := c.Eval(p), h.Eval(p)
		for j := range a {
			if math.Abs(a[j]-b[j]) > 1e-9 {
				t.Fatalf("homogenize changed dynamics at %v: %v vs %v", p, a, b)
			}
		}
	}
}

func TestHomogenizeIdempotentOnHomogeneous(t *testing.T) {
	s := mustParse(t, "x' = -x*y\ny' = x*y", nil)
	h := Homogenize(s)
	eq, _ := h.Equation("x")
	if len(eq.Terms) != 1 || eq.Terms[0].MonomialKey() != "x*y" {
		t.Fatalf("homogeneous system changed: %v", eq.Terms)
	}
}

func TestCombineLikeTerms(t *testing.T) {
	s := ode.NewSystem()
	s.MustAddEquation("x",
		ode.NewTerm(2, map[ode.Var]int{"x": 1}),
		ode.NewTerm(-2, map[ode.Var]int{"x": 1}),
		ode.NewTerm(1, map[ode.Var]int{"y": 1}))
	s.MustAddEquation("y", ode.NewTerm(-1, map[ode.Var]int{"y": 1}))
	c := CombineLikeTerms(s)
	eq, _ := c.Equation("x")
	if len(eq.Terms) != 1 || eq.Terms[0].MonomialKey() != "y" {
		t.Fatalf("combine failed: %v", eq.Terms)
	}
}

// TestReduceOrderPaperExample reproduces the paper's §7 example:
// ẍ + ẋ = x, i.e. ẍ = x − ẋ, becomes x' = u; u' = x − u; and the slack
// equation z' = −x after completion.
func TestReduceOrderPaperExample(t *testing.T) {
	sys, err := ReduceOrderLinear("x", []float64{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumVars() != 2 {
		t.Fatalf("NumVars = %d, want 2", sys.NumVars())
	}
	u := ode.Var("x_d1")
	eqx, _ := sys.Equation("x")
	if len(eqx.Terms) != 1 || eqx.Terms[0].MonomialKey() != string(u) {
		t.Fatalf("x' = %v, want +1*%s", eqx.Terms, u)
	}
	equ, _ := sys.Equation(u)
	p := map[ode.Var]float64{"x": 0.4, u: 0.1}
	if math.Abs(equ.Eval(p)-0.3) > 1e-12 {
		t.Fatalf("u' = %v, want x - u = 0.3", equ.Eval(p))
	}
	// Completion introduces z' = −x (u terms cancel: +u from x', −u from u').
	c, err := Complete(sys, "z")
	if err != nil {
		t.Fatal(err)
	}
	eqz, _ := c.Equation("z")
	if len(eqz.Terms) != 1 || eqz.Terms[0].MonomialKey() != "x" || !eqz.Terms[0].Negative {
		t.Fatalf("z' = %v, want -1*x", eqz.Terms)
	}
	if !c.IsComplete() {
		t.Fatal("completed higher-order system not complete")
	}
}

func TestReduceOrderValidation(t *testing.T) {
	if _, err := ReduceOrderLinear("x", nil); err == nil {
		t.Fatal("expected error for order 0")
	}
}

func TestReduceOrderThirdOrder(t *testing.T) {
	// x''' = 2x + 0·ẋ − ẍ
	sys, err := ReduceOrderLinear("x", []float64{2, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumVars() != 3 {
		t.Fatalf("NumVars = %d, want 3", sys.NumVars())
	}
	top, _ := sys.Equation("x_d2")
	p := map[ode.Var]float64{"x": 1, "x_d1": 5, "x_d2": 2}
	if got := top.Eval(p); math.Abs(got-0) > 1e-12 {
		t.Fatalf("x_d2' = %v, want 2·1 − 2 = 0", got)
	}
}

// Property: MakeMappable output is always complete and partitionable on
// random quadratic two-variable systems (when it succeeds), and evaluates
// identically to the source on the simplex.
func TestMakeMappableProperty(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		// Random small system: x' = a·x − b·x² − c·xy; y' = d·y − a·y² − c·xy
		// (coefficients in [1,8] to stay well-conditioned).
		coef := func(u uint8) float64 { return float64(u%8) + 1 }
		s := ode.NewSystem()
		s.MustAddEquation("x",
			ode.NewTerm(coef(a), map[ode.Var]int{"x": 1}),
			ode.NewTerm(-coef(b), map[ode.Var]int{"x": 2}),
			ode.NewTerm(-coef(c), map[ode.Var]int{"x": 1, "y": 1}))
		s.MustAddEquation("y",
			ode.NewTerm(coef(d), map[ode.Var]int{"y": 1}),
			ode.NewTerm(-coef(a), map[ode.Var]int{"y": 2}),
			ode.NewTerm(-coef(c), map[ode.Var]int{"x": 1, "y": 1}))
		m, err := MakeMappable(s, "z")
		if err != nil {
			// Not all random systems are mappable; that is fine. The
			// property under test is soundness of successful rewrites.
			return true
		}
		if !m.IsComplete() || !m.IsCompletelyPartitionable() {
			return false
		}
		rng := rand.New(rand.NewSource(int64(a) + int64(b)<<8 + int64(c)<<16 + int64(d)<<24))
		for i := 0; i < 20; i++ {
			x := rng.Float64()
			y := rng.Float64() * (1 - x)
			p := map[ode.Var]float64{"x": x, "y": y, "z": 1 - x - y}
			orig := s.Eval(p)
			rew := m.Eval(p)
			rp := m.PointFromVec(rew)
			op := s.PointFromVec(orig)
			if math.Abs(rp["x"]-op["x"]) > 1e-8 || math.Abs(rp["y"]-op["y"]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
