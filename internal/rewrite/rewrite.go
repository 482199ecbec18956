// Package rewrite implements the equation rewriting techniques of §7 of the
// paper, which bring differential equation systems into the mappable form
// required by the translation framework (complete, and polynomial or
// restricted polynomial).
//
// The techniques provided are:
//
//   - Complete: introduce a slack variable z = 1 − Σx and the equation
//     ż = −Σ fx, making any system complete.
//   - Normalize: convert a system over counts (Σx = N) into one over
//     fractions (Σx = 1), scaling term coefficients by N^(degree−1).
//   - Homogenize: multiply low-degree terms by powers of (Σv v) = 1 and
//     combine like terms. Applied after Complete, this mechanically
//     reproduces the paper's rewriting of the Lotka–Volterra equations (6)
//     into the mappable form (7), and subsumes the +c → +c·(Σv v) constant
//     expansion used by Tokenizing (§6).
//   - ReduceOrderLinear: rewrite a linear equation of order k in one
//     variable into a first-order system by introducing variables for the
//     higher derivatives (the paper's ẍ + ẋ = x example).
//   - MakeMappable: the Complete → Homogenize pipeline with verification;
//     Needed says which systems must go through it.
package rewrite

import (
	"fmt"
	"math"

	"odeproto/internal/ode"
)

// Complete rewrites the system into an equivalent complete system by
// introducing the slack variable slack = 1 − Σx with equation
// slack' = −Σ fx(X̄) (§7 "Rewriting an equation into a Complete form").
// Terms that already cancel symbolically are dropped from the new equation.
// It returns an error if slack is already a variable of the system.
func Complete(s *ode.System, slack ode.Var) (*ode.System, error) {
	if s.HasVar(slack) {
		return nil, fmt.Errorf("rewrite: slack variable %q already exists in system", slack)
	}
	out := s.Clone()
	var negated []ode.Term
	for _, v := range s.Vars() {
		eq, _ := s.Equation(v)
		for _, t := range eq.Terms {
			nt := t.Clone()
			nt.Negative = !nt.Negative
			negated = append(negated, nt)
		}
	}
	negated = combineTerms(negated)
	if err := out.AddEquation(slack, negated...); err != nil {
		return nil, err
	}
	return out, nil
}

// Normalize converts a complete system over absolute counts (Σx = total)
// into an equivalent system over fractions (Σx = 1). Substituting
// x = total·x̂ into ẋ = c·Π y^i scales each coefficient by
// total^(degree−1) (§7 "Normalizing"). For example the paper derives the
// epidemic system (0) from ẋ = −(1/N)xy by normalizing with total = N.
func Normalize(s *ode.System, total float64) *ode.System {
	out := ode.NewSystem()
	for _, v := range s.Vars() {
		eq, _ := s.Equation(v)
		terms := make([]ode.Term, 0, len(eq.Terms))
		for _, t := range eq.Terms {
			nt := t.Clone()
			nt.Coef *= pow(total, t.Degree()-1)
			terms = append(terms, nt)
		}
		out.MustAddEquation(v, terms...)
	}
	return out
}

func pow(base float64, exp int) float64 {
	if exp == 0 {
		return 1
	}
	r := 1.0
	if exp < 0 {
		for i := 0; i < -exp; i++ {
			r /= base
		}
		return r
	}
	for i := 0; i < exp; i++ {
		r *= base
	}
	return r
}

// ExpandConstants rewrites every constant term ±c as ±c·(Σv v), using the
// completeness identity Σv v = 1 (§6). The result has no degree-zero terms.
func ExpandConstants(s *ode.System) *ode.System {
	vars := s.Vars()
	out := ode.NewSystem()
	for _, v := range vars {
		eq, _ := s.Equation(v)
		var terms []ode.Term
		for _, t := range eq.Terms {
			if t.Degree() == 0 {
				terms = append(terms, multiplyBySum(t, vars)...)
			} else {
				terms = append(terms, t.Clone())
			}
		}
		out.MustAddEquation(v, combineTerms(terms)...)
	}
	return out
}

// Homogenize raises every term to the system's maximum total degree by
// multiplying by powers of (Σv v) = 1, then combines like terms. The system
// must be interpreted over fractions (Σ x = 1) for the identity to hold,
// which is the case after Complete. Homogenizing a complete system
// preserves completeness and often makes the system completely
// partitionable: applied to the Lotka–Volterra equations (6) plus the slack
// equation it yields exactly the paper's system (7).
func Homogenize(s *ode.System) *ode.System {
	vars := s.Vars()
	maxDeg := 0
	for _, v := range vars {
		eq, _ := s.Equation(v)
		for _, t := range eq.Terms {
			if d := t.Degree(); d > maxDeg {
				maxDeg = d
			}
		}
	}
	out := ode.NewSystem()
	for _, v := range vars {
		eq, _ := s.Equation(v)
		var terms []ode.Term
		for _, t := range eq.Terms {
			expanded := []ode.Term{t.Clone()}
			for d := t.Degree(); d < maxDeg; d++ {
				var next []ode.Term
				for _, e := range expanded {
					next = append(next, multiplyBySum(e, vars)...)
				}
				expanded = next
			}
			terms = append(terms, expanded...)
		}
		out.MustAddEquation(v, combineTerms(terms)...)
	}
	return out
}

// multiplyBySum multiplies a term by (Σv v), returning one term per
// variable.
func multiplyBySum(t ode.Term, vars []ode.Var) []ode.Term {
	out := make([]ode.Term, 0, len(vars))
	for _, v := range vars {
		nt := t.Clone()
		nt.Powers[v]++
		out = append(out, nt)
	}
	return out
}

// CombineLikeTerms sums the signed coefficients of identical monomials in
// each equation and drops exact cancellations.
func CombineLikeTerms(s *ode.System) *ode.System {
	out := ode.NewSystem()
	for _, v := range s.Vars() {
		eq, _ := s.Equation(v)
		out.MustAddEquation(v, combineTerms(eq.Terms)...)
	}
	return out
}

func combineTerms(terms []ode.Term) []ode.Term {
	type slot struct {
		coef  float64
		first ode.Term
	}
	sums := make(map[string]*slot)
	var order []string
	for _, t := range terms {
		k := t.MonomialKey()
		sl, ok := sums[k]
		if !ok {
			sl = &slot{first: t.Clone()}
			sums[k] = sl
			order = append(order, k)
		}
		sl.coef += t.Signed()
	}
	var out []ode.Term
	for _, k := range order {
		sl := sums[k]
		const tol = 1e-12
		if sl.coef > tol {
			nt := sl.first
			nt.Coef, nt.Negative = sl.coef, false
			out = append(out, nt)
		} else if sl.coef < -tol {
			nt := sl.first
			nt.Coef, nt.Negative = -sl.coef, true
			out = append(out, nt)
		}
	}
	return out
}

// ReduceOrderLinear rewrites the linear constant-coefficient equation
//
//	x⁽ᵏ⁾ = coeffs[0]·x + coeffs[1]·ẋ + … + coeffs[k−1]·x⁽ᵏ⁻¹⁾
//
// into an equivalent first-order system by introducing one variable per
// higher derivative (named x_d1 … x_d(k−1)), per §7 "Mapping Differential
// equations of higher Orders". The resulting system is generally not
// complete; apply Complete afterwards, as the paper does for ẍ + ẋ = x.
func ReduceOrderLinear(x ode.Var, coeffs []float64) (*ode.System, error) {
	k := len(coeffs)
	if k == 0 {
		return nil, fmt.Errorf("rewrite: order must be at least 1")
	}
	names := make([]ode.Var, k)
	names[0] = x
	for d := 1; d < k; d++ {
		names[d] = ode.Var(fmt.Sprintf("%s_d%d", x, d))
	}
	out := ode.NewSystem()
	// x' = u1, u1' = u2, ..., u_{k-2}' = u_{k-1}
	for d := 0; d < k-1; d++ {
		out.MustAddEquation(names[d], ode.NewTerm(1, map[ode.Var]int{names[d+1]: 1}))
	}
	// u_{k-1}' = Σ coeffs[j]·u_j
	var top []ode.Term
	for j, c := range coeffs {
		if c == 0 {
			continue
		}
		top = append(top, ode.NewTerm(c, map[ode.Var]int{names[j]: 1}))
	}
	out.MustAddEquation(names[k-1], top...)
	return out, nil
}

// SplitForPartition splits terms so that, for every monomial, the multiset
// of negative coefficients exactly matches the multiset of positive
// coefficients, enabling the zero-sum pairing required by complete
// partitionability. The paper performs this implicitly when writing the
// slack equation of system (7) as "+3xy + 3xy" rather than "+6xy": a single
// +6xy term cannot pair with the two −3xy terms until it is split. The
// rewrite preserves the dynamics exactly (a term is replaced by parts that
// sum to it). Splitting requires the per-monomial signed sums to be zero,
// i.e. a complete system; terms of monomials that do not balance are left
// untouched.
func SplitForPartition(s *ode.System) *ode.System {
	type occ struct {
		v     ode.Var
		index int
		coef  float64
	}
	neg := make(map[string][]occ)
	pos := make(map[string][]occ)
	for _, v := range s.Vars() {
		eq, _ := s.Equation(v)
		for i, t := range eq.Terms {
			o := occ{v: v, index: i, coef: t.Coef}
			if t.Negative {
				neg[t.MonomialKey()] = append(neg[t.MonomialKey()], o)
			} else {
				pos[t.MonomialKey()] = append(pos[t.MonomialKey()], o)
			}
		}
	}

	// chunks[v][i] holds the replacement coefficients for term i of
	// equation v (nil means keep the term as is).
	chunks := make(map[ode.Var]map[int][]float64)
	addChunk := func(o occ, c float64) {
		if chunks[o.v] == nil {
			chunks[o.v] = make(map[int][]float64)
		}
		chunks[o.v][o.index] = append(chunks[o.v][o.index], c)
	}
	const tol = 1e-9
	for key, negs := range neg {
		poss := pos[key]
		var nSum, pSum float64
		for _, o := range negs {
			nSum += o.coef
		}
		for _, o := range poss {
			pSum += o.coef
		}
		if math.Abs(nSum-pSum) > tol*(1+nSum+pSum) {
			continue // unbalanced monomial; leave for Partition to report
		}
		// Greedy transport: walk both lists, emitting min-remainder chunks.
		i, j := 0, 0
		ni, pj := 0.0, 0.0
		if len(negs) > 0 {
			ni = negs[0].coef
		}
		if len(poss) > 0 {
			pj = poss[0].coef
		}
		for i < len(negs) && j < len(poss) {
			c := math.Min(ni, pj)
			addChunk(negs[i], c)
			addChunk(poss[j], c)
			ni -= c
			pj -= c
			if ni <= tol {
				i++
				if i < len(negs) {
					ni = negs[i].coef
				}
			}
			if pj <= tol {
				j++
				if j < len(poss) {
					pj = poss[j].coef
				}
			}
		}
	}

	out := ode.NewSystem()
	for _, v := range s.Vars() {
		eq, _ := s.Equation(v)
		var terms []ode.Term
		for i, t := range eq.Terms {
			parts := chunks[v][i]
			if len(parts) == 0 {
				terms = append(terms, t.Clone())
				continue
			}
			for _, c := range parts {
				nt := t.Clone()
				nt.Coef = c
				terms = append(terms, nt)
			}
		}
		out.MustAddEquation(v, terms...)
	}
	return out
}

// hasConstant reports whether any equation of s has a degree-0 term.
func hasConstant(s *ode.System) bool {
	for _, v := range s.Vars() {
		eq, _ := s.Equation(v)
		for _, t := range eq.Terms {
			if t.Degree() == 0 {
				return true
			}
		}
	}
	return false
}

// Needed reports whether s must go through MakeMappable before it can be
// translated: it is not mappable (§2), or it has a constant term, which maps
// only once §6 expands it to c·Σv.
func Needed(s *ode.System) bool {
	return !s.Classify().Mappable() || hasConstant(s)
}

// MakeMappable runs the standard rewriting pipeline — Complete with the
// given slack variable (skipped when the system is already complete),
// then Homogenize, then ExpandConstants if a constant survived it, then
// SplitForPartition — and verifies the result is completely partitionable.
// It returns an error describing the first obstruction otherwise.
func MakeMappable(s *ode.System, slack ode.Var) (*ode.System, error) {
	cur := s.Clone()
	if !cur.IsComplete() {
		completed, err := Complete(cur, slack)
		if err != nil {
			return nil, err
		}
		cur = completed
	}
	cur = Homogenize(cur)
	if hasConstant(cur) {
		// Only a degree-0 system keeps one: there is no degree to raise it to.
		cur = ExpandConstants(cur)
	}
	cur = SplitForPartition(cur)
	if !cur.IsComplete() {
		return nil, fmt.Errorf("rewrite: system is not complete after rewriting (defect %v)", cur.CompletenessDefect())
	}
	if _, err := cur.Partition(); err != nil {
		return nil, fmt.Errorf("rewrite: system is complete but not completely partitionable: %w", err)
	}
	return cur, nil
}
