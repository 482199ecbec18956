package ode

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
)

// relTol is the relative tolerance used when comparing coefficients during
// completeness and partitionability checks. Source systems are written with
// exact decimal constants, so a tight tolerance suffices.
const relTol = 1e-9

func coefsEqual(a, b float64) bool {
	return math.Abs(a-b) <= relTol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// TermRef locates one term inside a system: the Index-th term of the
// equation for Var.
type TermRef struct {
	Var   Var
	Index int
}

// Term resolves the reference against s. It panics on dangling references,
// which can only arise from programmer error.
func (r TermRef) Term(s *System) Term {
	eq, ok := s.Equation(r.Var)
	if !ok || r.Index < 0 || r.Index >= len(eq.Terms) {
		panic(fmt.Sprintf("ode: dangling term reference %v", r))
	}
	return eq.Terms[r.Index]
}

// Pair is a matched (−T, +T) term pair whose sum is zero. In the
// translation framework a pair induces a flow of processes from the state
// owning the negative term to the state owning the positive term.
type Pair struct {
	Neg TermRef
	Pos TermRef
}

// CompletenessDefect symbolically sums all right-hand sides and returns the
// residual signed coefficient per monomial. An empty map means the system
// is complete (Σ fx = 0 identically, §2).
func (s *System) CompletenessDefect() map[string]float64 {
	residual := make(map[string]float64)
	scale := make(map[string]float64)
	for _, v := range s.vars {
		eq := s.eqs[v]
		for _, t := range eq.Terms {
			k := t.MonomialKey()
			residual[k] += t.Signed()
			scale[k] += t.Coef
		}
	}
	for k, r := range residual {
		if math.Abs(r) <= relTol*(1+scale[k]) {
			delete(residual, k)
		}
	}
	return residual
}

// IsComplete reports whether all right-hand sides sum to zero identically
// (the "complete equation system" property of §2). Completeness is what
// lets variables be read as fractions of a conserved population.
func (s *System) IsComplete() bool {
	return len(s.CompletenessDefect()) == 0
}

// Partition groups every term of the system into (−T, +T) pairs that sum
// to zero, returning one Pair per match. It returns an error describing the
// first unmatched term when no such grouping exists. A system admitting a
// full pairing is "completely partitionable" (§2).
func (s *System) Partition() ([]Pair, error) {
	type bucketEntry struct {
		ref  TermRef
		coef float64
	}
	neg := make(map[string][]bucketEntry)
	pos := make(map[string][]bucketEntry)
	for _, v := range s.vars {
		eq := s.eqs[v]
		for i, t := range eq.Terms {
			entry := bucketEntry{ref: TermRef{Var: v, Index: i}, coef: t.Coef}
			k := t.MonomialKey()
			if t.Negative {
				neg[k] = append(neg[k], entry)
			} else {
				pos[k] = append(pos[k], entry)
			}
		}
	}

	var pairs []Pair
	// Deterministic iteration order over monomial keys.
	keys := make([]string, 0, len(neg))
	for k := range neg {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		negs, poss := neg[k], pos[k]
		sort.SliceStable(negs, func(i, j int) bool { return negs[i].coef < negs[j].coef })
		sort.SliceStable(poss, func(i, j int) bool { return poss[i].coef < poss[j].coef })
		if len(negs) != len(poss) {
			return nil, fmt.Errorf("ode: monomial %s has %d negative and %d positive occurrences; cannot pair", k, len(negs), len(poss))
		}
		for i := range negs {
			if !coefsEqual(negs[i].coef, poss[i].coef) {
				return nil, fmt.Errorf("ode: monomial %s: negative coefficient %g has no matching positive (closest %g)", k, negs[i].coef, poss[i].coef)
			}
			pairs = append(pairs, Pair{Neg: negs[i].ref, Pos: poss[i].ref})
		}
		delete(pos, k)
	}
	for _, k := range slices.Sorted(maps.Keys(pos)) {
		if remaining := pos[k]; len(remaining) > 0 {
			return nil, fmt.Errorf("ode: monomial %s has %d positive terms with no negative partner", k, len(remaining))
		}
	}
	return pairs, nil
}

// IsCompletelyPartitionable reports whether the system is complete and its
// terms can be grouped into zero-sum pairs (§2).
func (s *System) IsCompletelyPartitionable() bool {
	if !s.IsComplete() {
		return false
	}
	_, err := s.Partition()
	return err == nil
}

// RestrictedViolations returns every negative term −c·Π y^i in the equation
// for x whose exponent of x is zero — i.e. the terms that break the
// "restricted polynomial" property of §2. An empty result means the system
// is restricted polynomial and can be translated with Flipping and
// One-Time-Sampling alone; violations require Tokenizing (§6).
func (s *System) RestrictedViolations() []TermRef {
	var out []TermRef
	for _, v := range s.vars {
		eq := s.eqs[v]
		for i, t := range eq.Terms {
			if t.Negative && t.Exponent(v) < 1 {
				out = append(out, TermRef{Var: v, Index: i})
			}
		}
	}
	return out
}

// IsRestrictedPolynomial reports whether every negative term in fx contains
// x with exponent at least one (§2).
func (s *System) IsRestrictedPolynomial() bool {
	return len(s.RestrictedViolations()) == 0
}

// Class summarizes where a system sits in the paper's taxonomy (§2).
type Class struct {
	Polynomial              bool
	Complete                bool
	CompletelyPartitionable bool
	RestrictedPolynomial    bool
}

// Mappable reports whether the framework can translate the system at all:
// it must be polynomial and completely partitionable (Theorem 5, as
// corrected in the errata).
func (c Class) Mappable() bool {
	return c.Polynomial && c.CompletelyPartitionable
}

// NeedsTokenizing reports whether translation requires the Tokenizing
// technique of §6 in addition to Flipping and One-Time-Sampling.
func (c Class) NeedsTokenizing() bool {
	return c.Mappable() && !c.RestrictedPolynomial
}

// String renders the classification compactly.
func (c Class) String() string {
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	return fmt.Sprintf("polynomial=%s complete=%s completely-partitionable=%s restricted=%s",
		mark(c.Polynomial), mark(c.Complete), mark(c.CompletelyPartitionable), mark(c.RestrictedPolynomial))
}

// Classify runs all taxonomy predicates. A system failing Validate is not
// polynomial in the paper's sense (its constructors only admit polynomial
// terms, but coefficients could still be non-finite).
func (s *System) Classify() Class {
	c := Class{Polynomial: s.Validate() == nil}
	if !c.Polynomial {
		return c
	}
	c.Complete = s.IsComplete()
	if c.Complete {
		_, err := s.Partition()
		c.CompletelyPartitionable = err == nil
	}
	c.RestrictedPolynomial = s.IsRestrictedPolynomial()
	return c
}
