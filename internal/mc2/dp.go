package mc2

// Prepared-formula evaluation: atoms compiled to slot programs over the
// trace's column layout, temporal operators computed for every sample index
// in one backward dynamic-programming pass per formula node. This replaces
// the recursive holds evaluation — O(trace²) for U/G/F because every start
// index rescanned its suffix — with O(trace) per node, and is what lets
// Probability's par.Do fan-out check thousands of trajectories cheaply. The
// recursive evaluator remains the semantic reference; the tests pin the two
// against each other on randomized traces and formulae.

import (
	"fmt"

	"sbmlcompose/internal/mathml"
	"sbmlcompose/internal/trace"
)

// pnode is one prepared formula node.
type pnode struct {
	kind    byte // 'a', '!', '&', '|', '>', 'U', 'G', 'F', 'X'
	src     string
	prog    *mathml.Program
	bounded bool
	lo, hi  float64
	l, r    *pnode
}

// prepared is a formula bound to a trace column layout.
type prepared struct {
	root     *pnode
	nCols    int
	timeSlot int
	maxStack int
}

// prepare compiles the formula's atoms against the given column names.
// Like the reference environment, a later column shadows an earlier one of
// the same name and "time" shadows any column so named.
func prepare(f Formula, names []string) (*prepared, error) {
	// Slot i is column i; the extra slot past the columns carries the
	// sample time. Later duplicate columns and the time binding win, as in
	// the map the recursive evaluator builds.
	st := mathml.NewSymbolTable()
	for i, n := range names {
		st.Bind(n, i)
	}
	timeSlot := len(names)
	st.Bind("time", timeSlot)
	p := &prepared{nCols: len(names), timeSlot: timeSlot}
	root, err := p.build(f, st)
	if err != nil {
		return nil, err
	}
	p.root = root
	return p, nil
}

func (p *prepared) build(f Formula, st *mathml.SymbolTable) (*pnode, error) {
	switch x := f.(type) {
	case atom:
		prog, err := mathml.Compile(x.expr, st)
		if err != nil {
			return nil, fmt.Errorf("mc2: atom %q: %w", x.src, err)
		}
		if prog.MaxStack() > p.maxStack {
			p.maxStack = prog.MaxStack()
		}
		return &pnode{kind: 'a', src: x.src, prog: prog}, nil
	case not:
		child, err := p.build(x.f, st)
		if err != nil {
			return nil, err
		}
		return &pnode{kind: '!', l: child}, nil
	case binop:
		l, err := p.build(x.l, st)
		if err != nil {
			return nil, err
		}
		r, err := p.build(x.r, st)
		if err != nil {
			return nil, err
		}
		kind := map[string]byte{"&": '&', "|": '|', "->": '>', "U": 'U'}[x.op]
		if kind == 0 {
			return nil, fmt.Errorf("mc2: unknown operator %q", x.op)
		}
		return &pnode{kind: kind, l: l, r: r}, nil
	case temporal:
		child, err := p.build(x.f, st)
		if err != nil {
			return nil, err
		}
		if x.op != "G" && x.op != "F" && x.op != "X" {
			return nil, fmt.Errorf("mc2: unknown temporal operator %q", x.op)
		}
		return &pnode{kind: x.op[0], bounded: x.bounded, lo: x.lo, hi: x.hi, l: child}, nil
	}
	return nil, fmt.Errorf("mc2: unknown formula type %T", f)
}

// check evaluates the prepared formula at the start of the trace. It
// allocates its own scratch, so one prepared formula may check many traces
// concurrently.
func (p *prepared) check(tr *trace.Trace) (bool, error) {
	if tr.Len() == 0 {
		return false, fmt.Errorf("mc2: empty trace")
	}
	if len(tr.Names) != p.nCols {
		return false, fmt.Errorf("mc2: trace has %d columns, formula prepared for %d", len(tr.Names), p.nCols)
	}
	ev := &dpEval{
		tr:    tr,
		state: make([]float64, p.nCols+1),
		stack: make([]float64, p.maxStack),
		time:  p.timeSlot,
	}
	sat, errs := ev.vec(p.root)
	if errs != nil && errs[0] != nil {
		return false, errs[0]
	}
	return sat[0], nil
}

// dpEval carries per-check scratch.
type dpEval struct {
	tr    *trace.Trace
	state []float64
	stack []float64
	time  int
}

// vec computes the node's satisfaction vector: sat[i] reports
// satisfaction at sample index i. errs is nil when evaluation succeeds at
// every index; otherwise errs[i] is the error the recursive evaluator
// meets at index i (nil where it meets none), so an atom failing on a
// sample only fails the start indexes whose evaluation reaches it. Child
// slices are reused in place where possible.
func (ev *dpEval) vec(nd *pnode) (sat []bool, errs []error) {
	tr := ev.tr
	n := tr.Len()
	switch nd.kind {
	case 'a':
		out := make([]bool, n)
		for i := 0; i < n; i++ {
			copy(ev.state, tr.Values[i])
			ev.state[ev.time] = tr.Times[i]
			v, err := nd.prog.Eval(ev.state, ev.stack, nil)
			if err != nil {
				if errs == nil {
					errs = make([]error, n)
				}
				errs[i] = fmt.Errorf("mc2: atom %q: %w", nd.src, err)
			}
			out[i] = v != 0
		}
		return out, errs
	case '!':
		out, errs := ev.vec(nd.l)
		for i := range out {
			out[i] = !out[i]
		}
		return out, errs
	case '&', '|', '>':
		l, lerrs := ev.vec(nd.l)
		r, rerrs := ev.vec(nd.r)
		// Short-circuit exactly where the recursive evaluator does: the
		// right operand, and its error, counts only when the left one
		// neither errs nor decides.
		for i := range l {
			switch {
			case at(lerrs, i) != nil:
			case nd.kind == '&' && !l[i]:
			case nd.kind == '|' && l[i]:
			case nd.kind == '>' && !l[i]:
				l[i] = true
			default:
				l[i] = r[i]
				lerrs = ev.setErr(lerrs, i, at(rerrs, i))
			}
		}
		return l, lerrs
	case 'U':
		l, lerrs := ev.vec(nd.l)
		r, rerrs := ev.vec(nd.r)
		// φ U ψ at i ⇔ ψ at i, or φ at i and φ U ψ at i+1 — the backward
		// recurrence of the recursive scan, which tests ψ before φ.
		for i := n - 1; i >= 0; i-- {
			switch {
			case at(rerrs, i) != nil || r[i]:
			case at(lerrs, i) != nil:
				rerrs = ev.setErr(rerrs, i, at(lerrs, i))
			case l[i] && i+1 < n:
				r[i] = r[i+1]
				rerrs = ev.setErr(rerrs, i, at(rerrs, i+1))
			}
		}
		return r, rerrs
	case 'X':
		out, errs := ev.vec(nd.l)
		copy(out, out[1:])
		out[n-1] = false
		if errs != nil {
			copy(errs, errs[1:])
			errs[n-1] = nil
		}
		return out, errs
	case 'G', 'F':
		child, errs := ev.vec(nd.l)
		if nd.bounded {
			return ev.boundedWindow(nd, child, errs)
		}
		// Suffix conjunction / disjunction: a start index takes the
		// verdict of its first sample that fails (G), holds (F) or errs.
		for i := n - 2; i >= 0; i-- {
			if at(errs, i) == nil && child[i] == (nd.kind == 'G') {
				child[i] = child[i+1]
				errs = ev.setErr(errs, i, at(errs, i+1))
			}
		}
		return child, errs
	}
	panic(fmt.Sprintf("mc2: unknown prepared node %q", nd.kind))
}

// at returns errs[i], treating a nil errs as all nil.
func at(errs []error, i int) error {
	if errs == nil {
		return nil
	}
	return errs[i]
}

// setErr stores err at index i of a node's error vector, allocating the
// vector on its first non-nil error.
func (ev *dpEval) setErr(errs []error, i int, err error) []error {
	if errs == nil {
		if err == nil {
			return nil
		}
		errs = make([]error, ev.tr.Len())
	}
	errs[i] = err
	return errs
}

// boundedWindow evaluates G[a,b]/F[a,b] for every start index over a
// monotone sample window. The window of start i is the reference scan's:
// samples j ≥ i with Times[i]+lo ≤ Times[j] ≤ Times[i]+hi; both endpoints
// only move forward as i grows because sample times are strictly
// increasing. The scan stops at the window's first sample that decides
// (false for G, true for F) or errs, and takes its verdict; a window with
// none gives F false and G true when non-empty (an entirely out-of-trace
// bound fails, as in the reference).
func (ev *dpEval) boundedWindow(nd *pnode, child []bool, errs []error) ([]bool, []error) {
	tr := ev.tr
	n := len(child)
	decisive := nd.kind == 'F'
	// stop[j] is the first k ≥ j whose sample decides or errs, n if none.
	stop := make([]int, n+1)
	stop[n] = n
	for j := n - 1; j >= 0; j-- {
		stop[j] = stop[j+1]
		if at(errs, j) != nil || child[j] == decisive {
			stop[j] = j
		}
	}
	out := make([]bool, n)
	var outErrs []error
	a, b := 0, 0 // first j with Times[j] ≥ lo_i; first j with Times[j] > hi_i
	for i := 0; i < n; i++ {
		lo, hi := tr.Times[i]+nd.lo, tr.Times[i]+nd.hi
		for a < n && tr.Times[a] < lo {
			a++
		}
		for b < n && tr.Times[b] <= hi {
			b++
		}
		start, end := a, b
		if start < i {
			start = i // the scan never looks before its own start index
		}
		if k := stop[start]; k < end {
			out[i] = child[k]
			outErrs = ev.setErr(outErrs, i, at(errs, k))
		} else {
			out[i] = !decisive && end > start
		}
	}
	return out, outErrs
}
