// Package mc2 implements the paper's §4.1.4 evaluation method: checking
// temporal-logic properties of composed models with a Monte Carlo model
// checker in the style of MC2 (Donaldson & Gilbert, CMSB 2008). Properties
// are linear-time formulae over finite simulation traces; probabilities are
// estimated by the fraction of stochastic simulation runs that satisfy the
// formula.
//
// Formula syntax (atoms are infix comparisons in braces):
//
//	{A > 0.5}                   atomic predicate over species values
//	!φ   φ & ψ   φ | ψ   φ -> ψ boolean connectives
//	G(φ)  F(φ)  X(φ)            globally / finally / next
//	G[a,b](φ)  F[a,b](φ)        time-bounded variants (relative time)
//	φ U ψ                       until
//
// Example: "G({A >= 0}) & F({B > 0.9})".
//
// # Evaluation strategy
//
// Checking runs on a prepared form of the formula: every atom is compiled
// once (mathml.Compile) against the trace's column layout, and each
// temporal operator is evaluated for all sample indexes in a single
// backward dynamic-programming pass — U, G and F are O(trace) per node
// (bounded variants use monotone window endpoints over the strictly
// increasing sample times) instead of the naive recursion's O(trace²)
// suffix rescans. The recursive evaluator is retained as the semantic
// reference and pinned against the DP by tests and FuzzCheckDP. One
// visible difference: preparation resolves every atom eagerly, so a
// formula naming an unknown species fails even when lazy connective
// evaluation would have skipped it. Errors an atom meets on a sample
// (division by zero, ...) follow the reference exactly: the check fails
// only if the reference's evaluation from the first sample reaches one.
//
// Probability estimation runs on a compiled model (sim.Compile) and fans
// the stochastic runs out with par.Do, one worker per proc, with the same
// consecutive per-run seeds as the serial order, so the estimate is
// bit-identical at every GOMAXPROCS. Its confidence interval is a 95%
// Wilson score interval, which stays honest at p̂ = 0 or 1 where the normal
// approximation collapses to zero width.
package mc2

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"sbmlcompose/internal/mathml"
	"sbmlcompose/internal/par"
	"sbmlcompose/internal/sim"
	"sbmlcompose/internal/trace"
)

// Formula is a parsed temporal-logic property.
type Formula interface {
	// holds reports satisfaction at sample index i of tr.
	holds(tr *trace.Trace, i int) (bool, error)
	String() string
}

type atom struct {
	expr mathml.Expr
	src  string
}

type not struct{ f Formula }
type binop struct {
	op   string // "&", "|", "->", "U"
	l, r Formula
}
type temporal struct {
	op      string // "G", "F", "X"
	bounded bool
	lo, hi  float64
	f       Formula
}

func (a atom) String() string { return "{" + a.src + "}" }
func (n not) String() string  { return "!" + n.f.String() }
func (b binop) String() string {
	return "(" + b.l.String() + " " + b.op + " " + b.r.String() + ")"
}
func (t temporal) String() string {
	if t.bounded {
		return fmt.Sprintf("%s[%g,%g](%s)", t.op, t.lo, t.hi, t.f)
	}
	return t.op + "(" + t.f.String() + ")"
}

func (a atom) holds(tr *trace.Trace, i int) (bool, error) {
	vals := make(map[string]float64, len(tr.Names)+1)
	for j, name := range tr.Names {
		vals[name] = tr.Values[i][j]
	}
	vals["time"] = tr.Times[i]
	v, err := mathml.Eval(a.expr, &mathml.MapEnv{Values: vals})
	if err != nil {
		return false, fmt.Errorf("mc2: atom %q: %w", a.src, err)
	}
	return v != 0, nil
}

func (n not) holds(tr *trace.Trace, i int) (bool, error) {
	v, err := n.f.holds(tr, i)
	return !v, err
}

func (b binop) holds(tr *trace.Trace, i int) (bool, error) {
	switch b.op {
	case "&":
		l, err := b.l.holds(tr, i)
		if err != nil || !l {
			return false, err
		}
		return b.r.holds(tr, i)
	case "|":
		l, err := b.l.holds(tr, i)
		if err != nil || l {
			return l, err
		}
		return b.r.holds(tr, i)
	case "->":
		l, err := b.l.holds(tr, i)
		if err != nil {
			return false, err
		}
		if !l {
			return true, nil
		}
		return b.r.holds(tr, i)
	case "U":
		// ∃ j ≥ i: r at j, and l at every k in [i, j).
		for j := i; j < tr.Len(); j++ {
			r, err := b.r.holds(tr, j)
			if err != nil {
				return false, err
			}
			if r {
				return true, nil
			}
			l, err := b.l.holds(tr, j)
			if err != nil {
				return false, err
			}
			if !l {
				return false, nil
			}
		}
		return false, nil
	}
	return false, fmt.Errorf("mc2: unknown operator %q", b.op)
}

func (t temporal) holds(tr *trace.Trace, i int) (bool, error) {
	switch t.op {
	case "X":
		if i+1 >= tr.Len() {
			return false, nil
		}
		return t.f.holds(tr, i+1)
	case "G", "F":
		lo, hi := tr.Times[i], math.Inf(1)
		if t.bounded {
			lo, hi = tr.Times[i]+t.lo, tr.Times[i]+t.hi
		}
		inWindow := false
		for j := i; j < tr.Len(); j++ {
			if tr.Times[j] < lo {
				continue
			}
			if tr.Times[j] > hi {
				break
			}
			inWindow = true
			v, err := t.f.holds(tr, j)
			if err != nil {
				return false, err
			}
			if t.op == "F" && v {
				return true, nil
			}
			if t.op == "G" && !v {
				return false, nil
			}
		}
		if t.op == "F" {
			return false, nil
		}
		// G over an empty window is vacuously true only when the window
		// lies beyond the trace; require at least one sample otherwise.
		return inWindow || !t.bounded, nil
	}
	return false, fmt.Errorf("mc2: unknown temporal operator %q", t.op)
}

// Parse compiles a formula from its textual form.
func Parse(src string) (Formula, error) {
	p := &parser{input: src}
	f, err := p.parseUntil()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.input) {
		return nil, fmt.Errorf("mc2: trailing input at offset %d: %q", p.pos, p.input[p.pos:])
	}
	return f, nil
}

// MustParse is Parse that panics on error, for tests and examples.
func MustParse(src string) Formula {
	f, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

type parser struct {
	input string
	pos   int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.input) && (p.input[p.pos] == ' ' || p.input[p.pos] == '\t' || p.input[p.pos] == '\n') {
		p.pos++
	}
}

func (p *parser) peek(s string) bool {
	p.skipSpace()
	return strings.HasPrefix(p.input[p.pos:], s)
}

func (p *parser) eat(s string) bool {
	if p.peek(s) {
		p.pos += len(s)
		return true
	}
	return false
}

func (p *parser) parseUntil() (Formula, error) {
	left, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		// "U" must be a standalone token (not the start of an identifier).
		if p.pos < len(p.input) && p.input[p.pos] == 'U' &&
			(p.pos+1 == len(p.input) || !isWord(p.input[p.pos+1])) {
			p.pos++
			right, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			left = binop{op: "U", l: left, r: right}
			continue
		}
		return left, nil
	}
}

func isWord(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func (p *parser) parseOr() (Formula, error) {
	left, err := p.parseImplies()
	if err != nil {
		return nil, err
	}
	for p.eat("|") {
		right, err := p.parseImplies()
		if err != nil {
			return nil, err
		}
		left = binop{op: "|", l: left, r: right}
	}
	return left, nil
}

func (p *parser) parseImplies() (Formula, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	if p.eat("->") {
		right, err := p.parseImplies() // right-associative
		if err != nil {
			return nil, err
		}
		return binop{op: "->", l: left, r: right}, nil
	}
	return left, nil
}

func (p *parser) parseAnd() (Formula, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		// Don't consume "&" then fail on "->"; "&" is single-char here.
		if p.pos < len(p.input) && p.input[p.pos] == '&' {
			p.pos++
			right, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			left = binop{op: "&", l: left, r: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parsePrimary() (Formula, error) {
	p.skipSpace()
	if p.pos >= len(p.input) {
		return nil, fmt.Errorf("mc2: unexpected end of formula")
	}
	switch {
	case p.eat("!"):
		f, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return not{f: f}, nil
	case p.peek("G") || p.peek("F") || p.peek("X"):
		op := string(p.input[p.pos])
		// Temporal only if followed by '(' or '['; otherwise it's an atom
		// identifier — but identifiers only occur inside braces, so a bare
		// G/F/X here is always temporal.
		p.pos++
		t := temporal{op: op}
		if p.eat("[") {
			if op == "X" {
				return nil, fmt.Errorf("mc2: X takes no time bound")
			}
			lo, err := p.parseNumber()
			if err != nil {
				return nil, err
			}
			if !p.eat(",") {
				return nil, fmt.Errorf("mc2: expected ',' in time bound at %d", p.pos)
			}
			hi, err := p.parseNumber()
			if err != nil {
				return nil, err
			}
			if !p.eat("]") {
				return nil, fmt.Errorf("mc2: expected ']' at %d", p.pos)
			}
			if hi < lo {
				return nil, fmt.Errorf("mc2: empty time bound [%g,%g]", lo, hi)
			}
			t.bounded, t.lo, t.hi = true, lo, hi
		}
		if !p.eat("(") {
			return nil, fmt.Errorf("mc2: expected '(' after %s at %d", op, p.pos)
		}
		f, err := p.parseUntil()
		if err != nil {
			return nil, err
		}
		if !p.eat(")") {
			return nil, fmt.Errorf("mc2: expected ')' at %d", p.pos)
		}
		t.f = f
		return t, nil
	case p.eat("("):
		f, err := p.parseUntil()
		if err != nil {
			return nil, err
		}
		if !p.eat(")") {
			return nil, fmt.Errorf("mc2: expected ')' at %d", p.pos)
		}
		return f, nil
	case p.eat("{"):
		end := strings.IndexByte(p.input[p.pos:], '}')
		if end < 0 {
			return nil, fmt.Errorf("mc2: unterminated atom at %d", p.pos)
		}
		src := strings.TrimSpace(p.input[p.pos : p.pos+end])
		p.pos += end + 1
		expr, err := mathml.ParseInfix(src)
		if err != nil {
			return nil, fmt.Errorf("mc2: atom %q: %w", src, err)
		}
		return atom{expr: expr, src: src}, nil
	}
	return nil, fmt.Errorf("mc2: unexpected %q at %d", p.input[p.pos], p.pos)
}

func (p *parser) parseNumber() (float64, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.input) {
		c := p.input[p.pos]
		if c >= '0' && c <= '9' || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E' {
			p.pos++
			continue
		}
		break
	}
	if start == p.pos {
		return 0, fmt.Errorf("mc2: expected number at %d", start)
	}
	v, err := strconv.ParseFloat(p.input[start:p.pos], 64)
	if err != nil {
		return 0, fmt.Errorf("mc2: bad number %q", p.input[start:p.pos])
	}
	return v, nil
}

// Check evaluates the formula at the start of the trace.
func Check(tr *trace.Trace, f Formula) (bool, error) {
	p, err := prepare(f, tr.Names)
	if err != nil {
		return false, err
	}
	return p.check(tr)
}

// CheckString parses and evaluates a formula over the trace.
func CheckString(tr *trace.Trace, src string) (bool, error) {
	f, err := Parse(src)
	if err != nil {
		return false, err
	}
	return Check(tr, f)
}

// Estimate is a Monte Carlo probability estimate.
type Estimate struct {
	// Probability is the fraction of satisfying runs.
	Probability float64
	// Runs is the sample count.
	Runs int
	// Lo and Hi bound the 95% Wilson score confidence interval. Unlike the
	// normal approximation, the interval has positive width even when every
	// run agreed (Probability 0 or 1), where small run counts overstate
	// certainty.
	Lo, Hi float64
	// HalfWidth is half the Wilson interval's width, (Hi-Lo)/2.
	HalfWidth float64
}

// newEstimate builds the Wilson-interval estimate for `satisfied` successes
// in `runs` trials.
func newEstimate(satisfied, runs int) Estimate {
	const z = 1.96 // 97.5th normal percentile: two-sided 95%
	n := float64(runs)
	p := float64(satisfied) / n
	denom := 1 + z*z/n
	center := (p + z*z/(2*n)) / denom
	hw := z / denom * math.Sqrt(p*(1-p)/n+z*z/(4*n*n))
	lo, hi := center-hw, center+hw
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return Estimate{
		Probability: p,
		Runs:        runs,
		Lo:          lo,
		Hi:          hi,
		HalfWidth:   (hi - lo) / 2,
	}
}

// Probability estimates P(φ) over stochastic trajectories of the compiled
// model: `runs` SSA simulations with consecutive seeds starting at
// opts.Seed, each checked against the formula. This is the MC2 procedure
// used to compare composed and expected model behaviour. Taking the engine
// lets a caller that holds one (the facade client's LRU) amortize
// compilation across estimates.
//
// The runs fan out with par.Do, one worker per proc; run i writes only its
// own verdict slot and uses the serial order's seed, so the estimate is
// bit-identical at every GOMAXPROCS. ctx is checked before each run by
// par.Do and inside each SSA run, every run has returned before the call
// does, and a cancelled estimate returns ctx's error (never a partial
// fraction).
func Probability(ctx context.Context, eng *sim.Engine, f Formula, runs int, opts sim.Options) (Estimate, error) {
	if runs <= 0 {
		return Estimate{}, fmt.Errorf("mc2: runs must be positive")
	}
	prep, err := prepare(f, eng.SpeciesIDs())
	if err != nil {
		return Estimate{}, err
	}
	sat := make([]bool, runs)
	err = par.Do(ctx, runs, func(_, i int) error {
		runOpts := opts
		runOpts.Seed = opts.Seed + int64(i)
		tr, err := eng.SSA(ctx, runOpts)
		if err != nil {
			return err
		}
		ok, err := prep.check(tr)
		if err != nil {
			return err
		}
		sat[i] = ok
		return nil
	})
	if err != nil {
		return Estimate{}, err
	}
	satisfied := 0
	for _, ok := range sat {
		if ok {
			satisfied++
		}
	}
	return newEstimate(satisfied, runs), nil
}
