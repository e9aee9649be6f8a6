package sim

// This file is the tree-walking reference evaluator: the original
// implementation that re-evaluates MathML ASTs through mathml.Eval against
// a map-backed environment rebuilt at every evaluation point. It is kept —
// verbatim in its arithmetic — for two jobs: the randomized equivalence
// harness pins the compiled engine's trajectories bitwise against it, and
// the package's benchmarks measure both so BENCH_sim.json records the
// speedup. The one deliberate behavioural change, mirrored in the engine:
// evaluation errors in initial assignments and assignment rules propagate
// as simulation errors instead of being silently discarded (initial
// assignments still get a best-effort first pass so chains can resolve).

import (
	"fmt"
	"math"
	"math/rand"

	"sbmlcompose/internal/mathml"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/trace"
)

// treeModel is the reference evaluator's flattened form of a model.
type treeModel struct {
	model   *sbml.Model
	species []*sbml.Species
	index   map[string]int // species id → state index
	consts  map[string]float64
	funcs   map[string]mathml.Lambda
	rate    []*sbml.Rule // rate rules, applied as extra derivatives
	assign  []*sbml.Rule // assignment rules, applied before evaluation
	events  []*sbml.Event
}

// compileTree validates and flattens the model for the reference path.
func compileTree(m *sbml.Model) (*treeModel, error) {
	if err := sbml.Check(m); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	c := &treeModel{
		model:  m,
		index:  make(map[string]int),
		consts: make(map[string]float64),
		funcs:  make(map[string]mathml.Lambda),
	}
	for _, f := range m.FunctionDefinitions {
		c.funcs[f.ID] = f.Math
	}
	for _, comp := range m.Compartments {
		size := 1.0
		if comp.HasSize {
			size = comp.Size
		}
		c.consts[comp.ID] = size
	}
	for _, p := range m.Parameters {
		if p.HasValue {
			c.consts[p.ID] = p.Value
		}
	}
	for _, s := range m.Species {
		c.index[s.ID] = len(c.species)
		c.species = append(c.species, s)
	}
	for _, r := range m.Rules {
		switch r.Kind {
		case sbml.RateRule:
			c.rate = append(c.rate, r)
		case sbml.AssignmentRule:
			c.assign = append(c.assign, r)
		}
	}
	c.events = m.Events
	return c, nil
}

// initialState returns the initial concentration vector (per species).
// Initial assignments run in two passes so simple chains resolve; errors
// remaining on the second pass abort the simulation.
func (c *treeModel) initialState() ([]float64, error) {
	state := make([]float64, len(c.species))
	vals := make(map[string]float64, len(c.consts))
	for k, v := range c.consts {
		vals[k] = v
	}
	for i, s := range c.species {
		switch {
		case s.HasInitialConcentration:
			state[i] = s.InitialConcentration
		case s.HasInitialAmount:
			vol := 1.0
			if comp := c.model.CompartmentByID(s.Compartment); comp != nil && comp.HasSize && comp.Size > 0 {
				vol = comp.Size
			}
			state[i] = s.InitialAmount / vol
		}
		vals[s.ID] = state[i]
	}
	// Initial assignments override attribute values.
	env := &mathml.MapEnv{Values: vals, Functions: c.funcs}
	for pass := 0; pass < 2; pass++ {
		for _, ia := range c.model.InitialAssignments {
			v, err := mathml.Eval(ia.Math, env)
			if err != nil {
				if pass > 0 {
					return nil, fmt.Errorf("sim: initial assignment for %q: %w", ia.Symbol, err)
				}
				continue
			}
			vals[ia.Symbol] = v
			if idx, ok := c.index[ia.Symbol]; ok {
				state[idx] = v
			}
		}
	}
	return state, nil
}

// env builds the evaluation environment for a state at time t, applying
// assignment rules. Rule evaluation errors are simulation errors.
func (c *treeModel) env(t float64, state []float64) (*mathml.MapEnv, error) {
	vals := make(map[string]float64, len(c.consts)+len(state)+1)
	for k, v := range c.consts {
		vals[k] = v
	}
	for i, s := range c.species {
		vals[s.ID] = state[i]
	}
	vals["time"] = t
	env := &mathml.MapEnv{Values: vals, Functions: c.funcs}
	for _, r := range c.assign {
		v, err := mathml.Eval(r.Math, env)
		if err != nil {
			return nil, fmt.Errorf("sim: assignment rule for %q: %w", r.Variable, err)
		}
		vals[r.Variable] = v
		if idx, ok := c.index[r.Variable]; ok {
			state[idx] = v
		}
	}
	return env, nil
}

// derivatives computes dstate/dt at (t, state).
func (c *treeModel) derivatives(t float64, state []float64) ([]float64, error) {
	env, err := c.env(t, state)
	if err != nil {
		return nil, err
	}
	d := make([]float64, len(state))
	for _, r := range c.model.Reactions {
		if r.KineticLaw == nil || r.KineticLaw.Math == nil {
			continue
		}
		// Law-local parameters shadow globals.
		local := env
		if len(r.KineticLaw.Parameters) > 0 {
			vals := make(map[string]float64, len(env.Values)+len(r.KineticLaw.Parameters))
			for k, v := range env.Values {
				vals[k] = v
			}
			for _, p := range r.KineticLaw.Parameters {
				if p.HasValue {
					vals[p.ID] = p.Value
				}
			}
			local = &mathml.MapEnv{Values: vals, Functions: c.funcs}
		}
		rate, err := mathml.Eval(r.KineticLaw.Math, local)
		if err != nil {
			return nil, fmt.Errorf("sim: reaction %q: %w", r.ID, err)
		}
		for _, sr := range r.Reactants {
			if idx, ok := c.index[sr.Species]; ok && dynamic(c.species[idx]) {
				st := sr.Stoichiometry
				if st == 0 {
					st = 1
				}
				d[idx] -= st * rate
			}
		}
		for _, sr := range r.Products {
			if idx, ok := c.index[sr.Species]; ok && dynamic(c.species[idx]) {
				st := sr.Stoichiometry
				if st == 0 {
					st = 1
				}
				d[idx] += st * rate
			}
		}
	}
	for _, r := range c.rate {
		v, err := mathml.Eval(r.Math, env)
		if err != nil {
			return nil, fmt.Errorf("sim: rate rule for %q: %w", r.Variable, err)
		}
		if idx, ok := c.index[r.Variable]; ok {
			d[idx] = v
		}
	}
	return d, nil
}

// pendingEvent is an event whose trigger has fired but whose assignments
// wait for its delay to elapse.
type pendingEvent struct {
	fireAt float64
	event  *sbml.Event
}

// fireEvents applies any event whose trigger switched from false to true.
// Events with a delay are queued on pending and executed once the clock
// passes trigger time + delay (assignment maths evaluated at execution
// time). prevTrig carries the previous trigger values; both it and pending
// are updated in place.
func (c *treeModel) fireEvents(t float64, state []float64, prevTrig []bool, pending *[]pendingEvent) error {
	if len(c.events) == 0 && len(*pending) == 0 {
		return nil
	}
	env, err := c.env(t, state)
	if err != nil {
		return err
	}
	// Execute due delayed events first.
	remaining := (*pending)[:0]
	for _, pe := range *pending {
		if pe.fireAt > t {
			remaining = append(remaining, pe)
			continue
		}
		if err := c.applyAssignments(pe.event, env, state); err != nil {
			return err
		}
		if env, err = c.env(t, state); err != nil { // assignments may feed later triggers
			return err
		}
	}
	*pending = remaining
	for i, e := range c.events {
		v, err := mathml.Eval(e.Trigger, env)
		if err != nil {
			return fmt.Errorf("sim: event trigger: %w", err)
		}
		now := v != 0
		if now && !prevTrig[i] {
			if e.Delay != nil {
				d, err := mathml.Eval(e.Delay, env)
				if err != nil {
					return fmt.Errorf("sim: event delay: %w", err)
				}
				if d > 0 {
					*pending = append(*pending, pendingEvent{fireAt: t + d, event: e})
					prevTrig[i] = now
					continue
				}
			}
			if err := c.applyAssignments(e, env, state); err != nil {
				return err
			}
			if env, err = c.env(t, state); err != nil {
				return err
			}
		}
		prevTrig[i] = now
	}
	return nil
}

func (c *treeModel) applyAssignments(e *sbml.Event, env *mathml.MapEnv, state []float64) error {
	for _, a := range e.Assignments {
		av, err := mathml.Eval(a.Math, env)
		if err != nil {
			return fmt.Errorf("sim: event assignment %q: %w", a.Variable, err)
		}
		if idx, ok := c.index[a.Variable]; ok {
			state[idx] = av
		} else {
			c.consts[a.Variable] = av
		}
	}
	return nil
}

// ReferenceODE integrates the model with the tree-walking evaluator. It is
// the semantic reference for Engine.ODE: same trajectories, bit for bit,
// only slower. New code should compile an Engine and call ODE.
func ReferenceODE(m *sbml.Model, opts Options) (*trace.Trace, error) {
	opts = opts.withDefaults()
	if err := checkInterval(opts); err != nil {
		return nil, err
	}
	c, err := compileTree(m)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(c.species))
	for i, s := range c.species {
		names[i] = s.ID
	}
	tr := trace.New(names)
	state, err := c.initialState()
	if err != nil {
		return nil, err
	}
	prevTrig := make([]bool, len(c.events))
	var pending []pendingEvent
	// Evaluate triggers once at T0 so events true from the start do not
	// fire spuriously.
	if err := c.fireEvents(opts.T0, state, prevTrig, &pending); err != nil {
		return nil, err
	}
	if _, err := c.env(opts.T0, state); err != nil { // refresh assignment-rule variables for output
		return nil, err
	}
	if err := tr.Append(opts.T0, state); err != nil {
		return nil, err
	}
	t := opts.T0
	for t < opts.T1-1e-12 {
		step := opts.Step
		if t+step > opts.T1 {
			step = opts.T1 - t
		}
		var err error
		if opts.Adaptive {
			state, err = c.rkf45Step(t, state, step, opts.Tolerance)
		} else {
			state, err = c.rk4Step(t, state, step)
		}
		if err != nil {
			return nil, err
		}
		t += step
		clampNonNegative(state)
		if err := c.fireEvents(t, state, prevTrig, &pending); err != nil {
			return nil, err
		}
		// Assignment-rule variables were last written at an intermediate
		// Runge–Kutta stage; recompute them at the accepted state before
		// sampling.
		if _, err := c.env(t, state); err != nil {
			return nil, err
		}
		if err := tr.Append(t, state); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// rk4Step advances one classic Runge–Kutta step.
func (c *treeModel) rk4Step(t float64, y []float64, h float64) ([]float64, error) {
	k1, err := c.derivatives(t, y)
	if err != nil {
		return nil, err
	}
	k2, err := c.derivatives(t+h/2, axpy(y, k1, h/2))
	if err != nil {
		return nil, err
	}
	k3, err := c.derivatives(t+h/2, axpy(y, k2, h/2))
	if err != nil {
		return nil, err
	}
	k4, err := c.derivatives(t+h, axpy(y, k3, h))
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(y))
	for i := range y {
		out[i] = y[i] + h/6*(k1[i]+2*k2[i]+2*k3[i]+k4[i])
	}
	return out, nil
}

// rkf45Step advances from t to t+h using embedded RKF45 sub-steps with
// local error control.
func (c *treeModel) rkf45Step(t float64, y []float64, h, tol float64) ([]float64, error) {
	target := t + h
	sub := h
	cur := append([]float64(nil), y...)
	for t < target-1e-12 {
		if t+sub > target {
			sub = target - t
		}
		next, errEst, err := c.rkf45Once(t, cur, sub)
		if err != nil {
			return nil, err
		}
		if errEst <= tol || sub <= h*1e-6 {
			cur = next
			t += sub
			if errEst > 0 {
				sub = math.Min(h, 0.9*sub*math.Pow(tol/errEst, 0.2))
			}
			continue
		}
		sub = math.Max(h*1e-6, 0.9*sub*math.Pow(tol/errEst, 0.25))
	}
	return cur, nil
}

// rkf45Once takes one Fehlberg 4(5) step and returns the 5th-order solution
// plus an error estimate.
func (c *treeModel) rkf45Once(t float64, y []float64, h float64) ([]float64, float64, error) {
	k := make([][]float64, 6)
	var err error
	eval := func(dt float64, coeffs ...float64) ([]float64, error) {
		yy := append([]float64(nil), y...)
		for j, cf := range coeffs {
			if cf == 0 {
				continue
			}
			for i := range yy {
				yy[i] += h * cf * k[j][i]
			}
		}
		return c.derivatives(t+dt*h, yy)
	}
	if k[0], err = c.derivatives(t, y); err != nil {
		return nil, 0, err
	}
	if k[1], err = eval(1.0/4, 1.0/4); err != nil {
		return nil, 0, err
	}
	if k[2], err = eval(3.0/8, 3.0/32, 9.0/32); err != nil {
		return nil, 0, err
	}
	if k[3], err = eval(12.0/13, 1932.0/2197, -7200.0/2197, 7296.0/2197); err != nil {
		return nil, 0, err
	}
	if k[4], err = eval(1, 439.0/216, -8, 3680.0/513, -845.0/4104); err != nil {
		return nil, 0, err
	}
	if k[5], err = eval(1.0/2, -8.0/27, 2, -3544.0/2565, 1859.0/4104, -11.0/40); err != nil {
		return nil, 0, err
	}
	y5 := make([]float64, len(y))
	var errEst float64
	for i := range y {
		v5 := y[i] + h*(16.0/135*k[0][i]+6656.0/12825*k[2][i]+28561.0/56430*k[3][i]-9.0/50*k[4][i]+2.0/55*k[5][i])
		v4 := y[i] + h*(25.0/216*k[0][i]+1408.0/2565*k[2][i]+2197.0/4104*k[3][i]-1.0/5*k[4][i])
		y5[i] = v5
		if d := math.Abs(v5 - v4); d > errEst {
			errEst = d
		}
	}
	return y5, errEst, nil
}

func axpy(y, k []float64, h float64) []float64 {
	out := make([]float64, len(y))
	for i := range y {
		out[i] = y[i] + h*k[i]
	}
	return out
}

// ReferenceSSA runs Gillespie's direct method with the tree-walking
// evaluator: the semantic reference for Engine.SSA, reproducing identical
// trajectories for identical seeds. New code should compile an Engine and
// call SSA.
func ReferenceSSA(m *sbml.Model, opts Options) (*trace.Trace, error) {
	opts = opts.withDefaults()
	if err := checkInterval(opts); err != nil {
		return nil, err
	}
	c, err := compileTree(m)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	counts := make([]float64, len(c.species))
	for i, s := range c.species {
		switch {
		case s.HasInitialAmount:
			counts[i] = math.Round(s.InitialAmount)
		case s.HasInitialConcentration:
			counts[i] = math.Round(s.InitialConcentration * opts.ScaleFactor)
		}
	}

	names := make([]string, len(c.species))
	for i, s := range c.species {
		names[i] = s.ID
	}
	tr := trace.New(names)

	type change struct {
		idx   int
		delta float64
	}
	reactions := make([][]change, 0, len(c.model.Reactions))
	laws := make([]mathml.Expr, 0, len(c.model.Reactions))
	locals := make([]map[string]float64, 0, len(c.model.Reactions))
	for _, r := range c.model.Reactions {
		if r.KineticLaw == nil || r.KineticLaw.Math == nil {
			continue
		}
		var ch []change
		for _, sr := range r.Reactants {
			if idx, ok := c.index[sr.Species]; ok && dynamic(c.species[idx]) {
				st := sr.Stoichiometry
				if st == 0 {
					st = 1
				}
				ch = append(ch, change{idx, -st})
			}
		}
		for _, sr := range r.Products {
			if idx, ok := c.index[sr.Species]; ok && dynamic(c.species[idx]) {
				st := sr.Stoichiometry
				if st == 0 {
					st = 1
				}
				ch = append(ch, change{idx, st})
			}
		}
		reactions = append(reactions, ch)
		laws = append(laws, r.KineticLaw.Math)
		lp := make(map[string]float64)
		for _, p := range r.KineticLaw.Parameters {
			if p.HasValue {
				lp[p.ID] = p.Value
			}
		}
		locals = append(locals, lp)
	}

	propensity := func(i int, env *mathml.MapEnv) (float64, error) {
		if len(locals[i]) > 0 {
			vals := make(map[string]float64, len(env.Values)+len(locals[i]))
			for k, v := range env.Values {
				vals[k] = v
			}
			for k, v := range locals[i] {
				vals[k] = v
			}
			env = &mathml.MapEnv{Values: vals, Functions: c.funcs}
		}
		a, err := mathml.Eval(laws[i], env)
		if err != nil {
			return 0, err
		}
		if a < 0 || math.IsNaN(a) {
			a = 0
		}
		return a, nil
	}

	t := opts.T0
	nextSample := opts.T0
	appendSample := func() error {
		if err := tr.Append(nextSample, counts); err != nil {
			return err
		}
		nextSample += opts.Step
		return nil
	}
	if err := appendSample(); err != nil {
		return nil, err
	}

	props := make([]float64, len(laws))
	for t < opts.T1 {
		env, err := c.env(t, counts)
		if err != nil {
			return nil, err
		}
		var total float64
		for i := range laws {
			a, err := propensity(i, env)
			if err != nil {
				return nil, fmt.Errorf("sim: propensity: %w", err)
			}
			props[i] = a
			total += a
		}
		if total <= 0 {
			// System exhausted: flat-line remaining samples.
			for nextSample <= opts.T1+1e-12 {
				if err := appendSample(); err != nil {
					return nil, err
				}
			}
			break
		}
		// Time to next event ~ Exp(total).
		t += rng.ExpFloat64() / total
		for nextSample <= t && nextSample <= opts.T1+1e-12 {
			if err := appendSample(); err != nil {
				return nil, err
			}
		}
		if t >= opts.T1 {
			break
		}
		// Pick the reaction proportionally to its propensity.
		u := rng.Float64() * total
		chosen := 0
		for i, a := range props {
			if u < a {
				chosen = i
				break
			}
			u -= a
		}
		for _, ch := range reactions[chosen] {
			counts[ch.idx] += ch.delta
			if counts[ch.idx] < 0 {
				counts[ch.idx] = 0
			}
		}
	}
	// Fill any remaining samples (e.g. the final grid point).
	for nextSample <= opts.T1+1e-12 {
		if err := appendSample(); err != nil {
			return nil, err
		}
	}
	return tr, nil
}
