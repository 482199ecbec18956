package ode

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
)

// Parse reads an equation system from a small text DSL, one equation per
// line:
//
//	# endemic equations (1)
//	x' = -beta*x*y + alpha*z
//	y' = beta*x*y - gamma*y
//	z' = gamma*y - alpha*z
//
// Identifiers appearing on a left-hand side are variables; all other
// identifiers are parameters and must be present in params with a positive
// value (the paper's term constants c_T are positive by definition; signs
// are written explicitly). '#' starts a comment. Exponents are written
// v^k with integer k ≥ 0. Numeric literals and parameters multiply into the
// term coefficient.
func Parse(src string, params map[string]float64) (*System, error) {
	lines := strings.Split(src, "\n")

	// First pass: collect declared variables from left-hand sides.
	declared := make(map[Var]bool)
	type rawEq struct {
		lhs  Var
		rhs  string
		line int
	}
	var raws []rawEq
	for lineNo, line := range lines {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		eqIdx := strings.IndexByte(line, '=')
		if eqIdx < 0 {
			return nil, fmt.Errorf("ode: line %d: missing '=' in %q", lineNo+1, line)
		}
		lhs := strings.TrimSpace(line[:eqIdx])
		if !strings.HasSuffix(lhs, "'") {
			return nil, fmt.Errorf("ode: line %d: left-hand side %q must be of the form <var>'", lineNo+1, lhs)
		}
		name := strings.TrimSpace(strings.TrimSuffix(lhs, "'"))
		if !isIdent(name) {
			return nil, fmt.Errorf("ode: line %d: invalid variable name %q", lineNo+1, name)
		}
		v := Var(name)
		if declared[v] {
			return nil, fmt.Errorf("ode: line %d: duplicate equation for %q", lineNo+1, v)
		}
		declared[v] = true
		raws = append(raws, rawEq{lhs: v, rhs: line[eqIdx+1:], line: lineNo + 1})
	}
	if len(raws) == 0 {
		return nil, fmt.Errorf("ode: no equations found")
	}

	sys := NewSystem()
	for _, r := range raws {
		terms, err := parseExpr(r.rhs, declared, params)
		if err != nil {
			return nil, fmt.Errorf("ode: line %d: %w", r.line, err)
		}
		if err := sys.AddEquation(r.lhs, terms...); err != nil {
			return nil, err
		}
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	return sys, nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case unicode.IsLetter(r) || r == '_':
		case unicode.IsDigit(r) && i > 0:
		default:
			return false
		}
	}
	return true
}

type token struct {
	kind tokenKind
	text string
}

type tokenKind int

const (
	tokIdent tokenKind = iota + 1
	tokNumber
	tokPlus
	tokMinus
	tokStar
	tokCaret
)

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '+':
			toks = append(toks, token{kind: tokPlus, text: "+"})
			i++
		case c == '-':
			toks = append(toks, token{kind: tokMinus, text: "-"})
			i++
		case c == '*':
			toks = append(toks, token{kind: tokStar, text: "*"})
			i++
		case c == '^':
			toks = append(toks, token{kind: tokCaret, text: "^"})
			i++
		case c >= '0' && c <= '9' || c == '.':
			j := i
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.' || src[j] == 'e' || src[j] == 'E' ||
				((src[j] == '+' || src[j] == '-') && j > i && (src[j-1] == 'e' || src[j-1] == 'E'))) {
				j++
			}
			toks = append(toks, token{kind: tokNumber, text: src[i:j]})
			i = j
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			toks = append(toks, token{kind: tokIdent, text: src[i:j]})
			i = j
		default:
			return nil, fmt.Errorf("unexpected character %q", c)
		}
	}
	return toks, nil
}

// parseExpr parses "[sign] term {sign term}" where each term is a product
// of factors.
func parseExpr(src string, declared map[Var]bool, params map[string]float64) ([]Term, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("empty right-hand side")
	}
	var terms []Term
	pos := 0
	negative := false
	// Optional leading sign.
	if toks[pos].kind == tokPlus || toks[pos].kind == tokMinus {
		negative = toks[pos].kind == tokMinus
		pos++
	}
	for {
		term, next, err := parseProduct(toks, pos, declared, params)
		if err != nil {
			return nil, err
		}
		term.Negative = negative != term.Negative // sign folds with any negative numeric literal
		if term.Coef != 0 {
			// Zero terms (e.g. the bare "0" String() prints for empty
			// equations) contribute nothing and are dropped.
			terms = append(terms, term)
		}
		pos = next
		if pos >= len(toks) {
			return terms, nil
		}
		switch toks[pos].kind {
		case tokPlus:
			negative = false
		case tokMinus:
			negative = true
		default:
			return nil, fmt.Errorf("expected '+' or '-' between terms, got %q", toks[pos].text)
		}
		pos++
		if pos >= len(toks) {
			return nil, fmt.Errorf("dangling sign at end of expression")
		}
	}
}

func parseProduct(toks []token, pos int, declared map[Var]bool, params map[string]float64) (Term, int, error) {
	term := Term{Coef: 1, Powers: make(map[Var]int)}
	first := true
	for {
		if pos >= len(toks) {
			if first {
				return Term{}, pos, fmt.Errorf("expected a factor")
			}
			return term, pos, nil
		}
		t := toks[pos]
		switch t.kind {
		case tokNumber:
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return Term{}, pos, fmt.Errorf("bad number %q: %w", t.text, err)
			}
			term.Coef *= f
			pos++
		case tokIdent:
			pos++
			exp := 1
			if pos < len(toks) && toks[pos].kind == tokCaret {
				pos++
				if pos >= len(toks) || toks[pos].kind != tokNumber {
					return Term{}, pos, fmt.Errorf("expected integer exponent after '^'")
				}
				e, err := strconv.Atoi(toks[pos].text)
				if err != nil || e < 0 {
					return Term{}, pos, fmt.Errorf("exponent must be a non-negative integer, got %q", toks[pos].text)
				}
				exp = e
				pos++
			}
			if declared[Var(t.text)] {
				term.Powers[Var(t.text)] += exp
			} else {
				val, ok := params[t.text]
				if !ok {
					return Term{}, pos, fmt.Errorf("unknown identifier %q (not a variable, and not in params)", t.text)
				}
				term.Coef *= math.Pow(val, float64(exp))
			}
		default:
			if first {
				return Term{}, pos, fmt.Errorf("expected a factor, got %q", t.text)
			}
			return term, pos, nil
		}
		first = false
		// Factors may be separated by explicit '*' or juxtaposed before a sign.
		if pos < len(toks) && toks[pos].kind == tokStar {
			pos++
			continue
		}
		if pos >= len(toks) || toks[pos].kind == tokPlus || toks[pos].kind == tokMinus {
			if term.Coef < 0 {
				term.Negative = !term.Negative
				term.Coef = -term.Coef
			}
			// Drop zero exponents introduced by v^0.
			for v, p := range term.Powers {
				if p == 0 {
					delete(term.Powers, v)
				}
			}
			return term, pos, nil
		}
	}
}
