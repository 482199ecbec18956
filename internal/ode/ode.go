// Package ode represents systems of first-order polynomial differential
// equations of the form ẋ̄ = f̄(x̄), the source language of the paper's
// translation framework.
//
// The paper (§2) considers equation systems where every right-hand side is a
// sum of polynomial terms ±c·Π y^i with positive constants c and
// non-negative integer exponents i. This package provides:
//
//   - the term/equation/system representation and constructors that enforce
//     the polynomial form,
//   - evaluation of f̄ and of its symbolic Jacobian (used by the dynamics
//     analysis),
//   - the taxonomy predicates of §2 (complete, completely partitionable,
//     polynomial, restricted polynomial), and
//   - a small text DSL parser (see Parse) used by the CLI and the examples.
package ode

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Var names a variable of an equation system. A variable corresponds to a
// state of the generated protocol state machine, and its value to the
// fraction of processes occupying that state.
type Var string

// Term is a single signed polynomial term ±Coef · Π v^Powers[v].
// Coef is always strictly positive; the sign lives in Negative.
type Term struct {
	Coef     float64
	Negative bool
	Powers   map[Var]int
}

// NewTerm builds a term from a signed coefficient and exponent map. Zero
// exponents are dropped; a zero coefficient is rejected by Validate at
// system level but tolerated here so rewriting can construct intermediates.
func NewTerm(coef float64, powers map[Var]int) Term {
	t := Term{Coef: coef, Powers: make(map[Var]int, len(powers))}
	if coef < 0 {
		t.Negative = true
		t.Coef = -coef
	}
	for v, p := range powers {
		if p != 0 {
			t.Powers[v] = p
		}
	}
	return t
}

// Signed returns the signed coefficient (−Coef when Negative).
func (t Term) Signed() float64 {
	if t.Negative {
		return -t.Coef
	}
	return t.Coef
}

// Degree returns the total degree Σ exponents of the term. The paper writes
// this as |T|, the "total number of variable occurrences in term T".
func (t Term) Degree() int {
	d := 0
	for _, p := range t.Powers {
		d += p
	}
	return d
}

// Exponent returns the exponent of v in the term (0 when absent).
func (t Term) Exponent(v Var) int { return t.Powers[v] }

// Eval evaluates the signed term at the given point, multiplying the powers
// in OrderedVars order so the product is the same to the last bit on every
// call. Variables absent from the point are treated as zero.
func (t Term) Eval(point map[Var]float64) float64 {
	val := t.Signed()
	for _, v := range t.OrderedVars() {
		val *= math.Pow(point[v], float64(t.Powers[v]))
	}
	return val
}

// MonomialKey returns a canonical textual key for the term's monomial part
// (ignoring coefficient and sign): variables sorted lexicographically with
// exponents. Two terms cancel exactly when their keys match and their
// signed coefficients sum to zero.
func (t Term) MonomialKey() string {
	vars := make([]string, 0, len(t.Powers))
	for v := range t.Powers {
		vars = append(vars, string(v))
	}
	sort.Strings(vars)
	var sb strings.Builder
	for i, v := range vars {
		if i > 0 {
			sb.WriteByte('*')
		}
		sb.WriteString(v)
		if p := t.Powers[Var(v)]; p != 1 {
			fmt.Fprintf(&sb, "^%d", p)
		}
	}
	if sb.Len() == 0 {
		return "1"
	}
	return sb.String()
}

// Clone returns a deep copy of the term.
func (t Term) Clone() Term {
	powers := make(map[Var]int, len(t.Powers))
	for v, p := range t.Powers {
		powers[v] = p
	}
	return Term{Coef: t.Coef, Negative: t.Negative, Powers: powers}
}

// String renders the term with its sign, e.g. "-0.5*x*y^2".
func (t Term) String() string {
	var sb strings.Builder
	if t.Negative {
		sb.WriteByte('-')
	} else {
		sb.WriteByte('+')
	}
	fmt.Fprintf(&sb, "%g", t.Coef)
	key := t.MonomialKey()
	if key != "1" {
		sb.WriteByte('*')
		sb.WriteString(key)
	}
	return sb.String()
}

// OrderedVars returns the term's variables in lexicographic order. The
// paper's One-Time-Sampling rule orders sampled targets "when ordered
// lexicographically" (§3.1); this is the canonical order used there.
func (t Term) OrderedVars() []Var {
	vars := make([]Var, 0, len(t.Powers))
	for v := range t.Powers {
		vars = append(vars, v)
	}
	slices.Sort(vars)
	return vars
}

// Equation is the right-hand side fx(x̄) of a single equation ẋ = fx(x̄).
type Equation struct {
	Var   Var
	Terms []Term
}

// Eval evaluates the right-hand side at the given point.
func (e Equation) Eval(point map[Var]float64) float64 {
	var s float64
	for _, t := range e.Terms {
		s += t.Eval(point)
	}
	return s
}

// String renders the equation, e.g. "x' = -1*x*y +0.01*z".
func (e Equation) String() string {
	parts := make([]string, 0, len(e.Terms))
	for _, t := range e.Terms {
		parts = append(parts, t.String())
	}
	if len(parts) == 0 {
		parts = append(parts, "0")
	}
	return fmt.Sprintf("%s' = %s", e.Var, strings.Join(parts, " "))
}

// System is an ordered system of first-order polynomial differential
// equations, one per variable.
type System struct {
	vars []Var
	eqs  map[Var]Equation
}

// NewSystem returns an empty system.
func NewSystem() *System {
	return &System{eqs: make(map[Var]Equation)}
}

// AddEquation appends the equation ẋ = Σ terms for variable v. Adding a
// second equation for the same variable is an error.
func (s *System) AddEquation(v Var, terms ...Term) error {
	if _, dup := s.eqs[v]; dup {
		return fmt.Errorf("ode: duplicate equation for variable %q", v)
	}
	cloned := make([]Term, len(terms))
	for i, t := range terms {
		cloned[i] = t.Clone()
	}
	s.vars = append(s.vars, v)
	s.eqs[v] = Equation{Var: v, Terms: cloned}
	return nil
}

// MustAddEquation is AddEquation that panics on error; intended for
// package-level protocol definitions whose shape is fixed at compile time.
func (s *System) MustAddEquation(v Var, terms ...Term) {
	if err := s.AddEquation(v, terms...); err != nil {
		panic(err)
	}
}

// Vars returns the system's variables in insertion order. The caller must
// not modify the returned slice.
func (s *System) Vars() []Var { return s.vars }

// HasVar reports whether the system defines an equation for v.
func (s *System) HasVar(v Var) bool {
	_, ok := s.eqs[v]
	return ok
}

// Equation returns the equation for v. The second result is false when the
// system has no equation for v.
func (s *System) Equation(v Var) (Equation, bool) {
	e, ok := s.eqs[v]
	return e, ok
}

// NumVars returns the number of variables (= equations) in the system.
func (s *System) NumVars() int { return len(s.vars) }

// Clone returns a deep copy of the system.
func (s *System) Clone() *System {
	c := NewSystem()
	for _, v := range s.vars {
		eq := s.eqs[v]
		c.MustAddEquation(v, eq.Terms...)
	}
	return c
}

// Validate checks structural invariants: every term references only
// declared variables, exponents are non-negative, and coefficients are
// strictly positive and finite.
func (s *System) Validate() error {
	for _, v := range s.vars {
		for i, t := range s.eqs[v].Terms {
			if t.Coef <= 0 || math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
				return fmt.Errorf("ode: equation %q term %d: coefficient %v is not strictly positive and finite", v, i, t.Coef)
			}
			for _, tv := range t.OrderedVars() {
				if p := t.Powers[tv]; p < 0 {
					return fmt.Errorf("ode: equation %q term %d: negative exponent %d for %q", v, i, p, tv)
				}
				if !s.HasVar(tv) {
					return fmt.Errorf("ode: equation %q term %d: references undeclared variable %q", v, i, tv)
				}
			}
		}
	}
	return nil
}

// Eval evaluates f̄ at point and returns the derivative of each variable in
// insertion order.
func (s *System) Eval(point map[Var]float64) []float64 {
	out := make([]float64, len(s.vars))
	for i, v := range s.vars {
		out[i] = s.eqs[v].Eval(point)
	}
	return out
}

// EvalVec evaluates f̄ at a point given as a vector aligned with Vars().
func (s *System) EvalVec(x []float64) []float64 {
	return s.Eval(s.PointFromVec(x))
}

// PointFromVec converts a vector aligned with Vars() into a point map.
func (s *System) PointFromVec(x []float64) map[Var]float64 {
	if len(x) != len(s.vars) {
		panic(fmt.Sprintf("ode: vector length %d, want %d", len(x), len(s.vars)))
	}
	point := make(map[Var]float64, len(s.vars))
	for i, v := range s.vars {
		point[v] = x[i]
	}
	return point
}

// VecFromPoint converts a point map into a vector aligned with Vars().
func (s *System) VecFromPoint(point map[Var]float64) []float64 {
	x := make([]float64, len(s.vars))
	for i, v := range s.vars {
		x[i] = point[v]
	}
	return x
}

// PartialDerivative returns the symbolic partial derivative ∂fx/∂y as a
// list of terms (possibly empty).
func (s *System) PartialDerivative(x, y Var) []Term {
	eq, ok := s.eqs[x]
	if !ok {
		return nil
	}
	var out []Term
	for _, t := range eq.Terms {
		p := t.Powers[y]
		if p == 0 {
			continue
		}
		d := t.Clone()
		d.Coef *= float64(p)
		if p == 1 {
			delete(d.Powers, y)
		} else {
			d.Powers[y] = p - 1
		}
		out = append(out, d)
	}
	return out
}

// JacobianAt evaluates the Jacobian matrix J[i][j] = ∂f_{vars[i]}/∂vars[j]
// at the given point, as row-major slices aligned with Vars().
func (s *System) JacobianAt(point map[Var]float64) [][]float64 {
	n := len(s.vars)
	jac := make([][]float64, n)
	for i, vi := range s.vars {
		jac[i] = make([]float64, n)
		for j, vj := range s.vars {
			var sum float64
			for _, t := range s.PartialDerivative(vi, vj) {
				sum += t.Eval(point)
			}
			jac[i][j] = sum
		}
	}
	return jac
}

// String renders the full system, one equation per line, in insertion order.
func (s *System) String() string {
	lines := make([]string, 0, len(s.vars))
	for _, v := range s.vars {
		lines = append(lines, s.eqs[v].String())
	}
	return strings.Join(lines, "\n")
}
