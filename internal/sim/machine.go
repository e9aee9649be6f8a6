package sim

// This file implements the compiled slot-based simulation engine. The
// tree-walking reference path (tree.go) rebuilds a map[string]float64
// environment and re-walks every MathML AST at every evaluation point; the
// Engine does that work once at compile time. Every symbol the model can
// ever bind — species, compartments, parameters, "time", kinetic-law-local
// parameters, rule and event targets — is assigned a dense slot in one
// []float64 state vector, every kinetic law, rule, initial assignment and
// event expression is compiled to a mathml.Program over those slots, and
// reaction stoichiometry is precomputed as sparse (slot, coefficient)
// lists. The RK4/RKF45 derivative loop and the Gillespie propensity loop
// then run with no map operations, no interface dispatch and no per-step
// allocation, while producing bitwise-identical trajectories to the
// reference evaluator (pinned by the randomized equivalence tests).
//
// An Engine is immutable after Compile and safe for concurrent use: all
// mutable run state (the slot vector, scratch stacks, integrator buffers,
// the event queue) lives in a per-run runState, which is what lets
// Engine.EnsembleSSA and mc2.Probability run one compiled model on
// par.Do's concurrent workers, one per proc.

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"sbmlcompose/internal/mathml"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/trace"
)

// slotProg pairs a compiled expression with the slot its result lands in.
type slotProg struct {
	slot  int
	prog  *mathml.Program
	label string // target symbol, for error messages
}

// iaProg is an initial assignment. Compilation errors are deferred, not
// eager: the reference evaluator only surfaces them when the assignment is
// actually evaluated (the SSA path never evaluates initial assignments at
// all), and the engine must fail in exactly the same situations.
type iaProg struct {
	slot  int
	prog  *mathml.Program
	err   error
	label string
}

// stoich is one sparse stoichiometry entry: dstate[slot] += coeff × rate.
type stoich struct {
	slot  int
	coeff float64
}

// reactionProg is a compiled kinetic law plus its stoichiometry. changes
// preserves the reference order (reactants before products) so derivative
// accumulation is bitwise identical.
type reactionProg struct {
	id      string
	prog    *mathml.Program
	changes []stoich
}

// eventProg is a compiled event.
type eventProg struct {
	trigger *mathml.Program
	delay   *mathml.Program // nil when the event has none
	assigns []slotProg
}

// Engine is the compiled form of a model, shared by the ODE and SSA
// simulators and the Monte Carlo model checker.
type Engine struct {
	model   *sbml.Model
	species []*sbml.Species
	names   []string // species ids, in state order (trace columns)

	nSpecies int
	nSlots   int
	timeSlot int

	// base holds the attribute-derived value of every non-species slot
	// (compartment sizes, parameter values, law-local parameters); the
	// species region is unused. baseBound marks which slots hold a value at
	// all — a parameter without a value is a bound-checked slot whose reads
	// fail until a rule or event assigns it, exactly like the reference
	// evaluator's missing map entry. Both are copied per run because event
	// assignments may rewrite them.
	base      []float64
	baseBound []bool
	checked   bool

	ias       []iaProg
	assigns   []slotProg
	rates     []slotProg // rate rules in document order; slot -1 for non-species targets (evaluated, result dropped, as in the reference)
	reactions []reactionProg
	events    []eventProg
	// odeErr holds a deferred compile error from ODE-only machinery (rate
	// rules, events): the SSA path ignores those components, so a model
	// whose only defect lives there must still simulate stochastically.
	odeErr error

	maxStack int
}

// engineResolver implements mathml.Resolver with SBML's layered
// resolution: law-local parameters shadow everything, then "time", species,
// global parameters, compartments — the same precedence the reference
// environment realizes through map-overwrite order.
type engineResolver struct {
	binds       map[string]int
	locals      map[string]int
	funcs       map[string]mathml.Lambda
	staticBound []bool
}

func (r *engineResolver) Resolve(name string) (int, bool) {
	if r.locals != nil {
		if s, ok := r.locals[name]; ok {
			return s, true
		}
	}
	s, ok := r.binds[name]
	return s, ok
}

func (r *engineResolver) Function(name string) (mathml.Lambda, bool) {
	f, ok := r.funcs[name]
	return f, ok
}

func (r *engineResolver) NeedsBoundCheck(slot int) bool { return !r.staticBound[slot] }

// Compile validates and compiles the model. The model is not copied; the
// caller must not mutate it while the engine is in use.
func Compile(m *sbml.Model) (*Engine, error) {
	if err := sbml.Check(m); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	e := &Engine{model: m, nSpecies: len(m.Species)}

	// --- slot allocation ---
	nextSlot := 0
	alloc := func() int { n := nextSlot; nextSlot++; return n }

	e.species = make([]*sbml.Species, 0, len(m.Species))
	e.names = make([]string, 0, len(m.Species))
	speciesSlot := make(map[string]int, len(m.Species))
	for _, s := range m.Species {
		speciesSlot[s.ID] = alloc()
		e.species = append(e.species, s)
		e.names = append(e.names, s.ID)
	}
	compSlot := make(map[string]int, len(m.Compartments))
	for _, c := range m.Compartments {
		compSlot[c.ID] = alloc()
	}
	paramSlot := make(map[string]int, len(m.Parameters))
	for _, p := range m.Parameters {
		paramSlot[p.ID] = alloc()
	}
	e.timeSlot = alloc()

	type localKey struct{ reaction, param string }
	localSlot := make(map[localKey]int)
	for _, r := range m.Reactions {
		if r.KineticLaw == nil {
			continue
		}
		for _, p := range r.KineticLaw.Parameters {
			if p.HasValue {
				localSlot[localKey{r.ID, p.ID}] = alloc()
			}
		}
	}

	// Visible bindings in reference precedence: compartments, overridden by
	// parameters, overridden by species. The runtime view additionally
	// binds "time"; the initial-assignment view does not (the reference's
	// initial environment has no time either).
	iaBinds := make(map[string]int, nextSlot)
	for id, s := range compSlot {
		iaBinds[id] = s
	}
	for id, s := range paramSlot {
		iaBinds[id] = s
	}
	for id, s := range speciesSlot {
		iaBinds[id] = s
	}
	runBinds := make(map[string]int, len(iaBinds)+1)
	for id, s := range iaBinds {
		runBinds[id] = s
	}
	runBinds["time"] = e.timeSlot

	// Targets of rules, initial assignments and event assignments that name
	// no declared component get fresh slots: the reference creates their
	// map entries on first write, and reads before that write fail.
	ensure := func(name string) {
		if _, ok := runBinds[name]; ok {
			return
		}
		s := alloc()
		runBinds[name] = s
		if _, ok := iaBinds[name]; !ok {
			iaBinds[name] = s
		}
	}
	for _, ia := range m.InitialAssignments {
		ensure(ia.Symbol)
	}
	for _, r := range m.Rules {
		if r.Kind != sbml.AlgebraicRule {
			ensure(r.Variable)
		}
	}
	for _, ev := range m.Events {
		for _, a := range ev.Assignments {
			ensure(a.Variable)
		}
	}
	e.nSlots = nextSlot

	// --- base values and static boundness ---
	e.base = make([]float64, e.nSlots)
	e.baseBound = make([]bool, e.nSlots)
	for i := 0; i < e.nSpecies; i++ {
		e.baseBound[i] = true // species are always present in the environment
	}
	e.baseBound[e.timeSlot] = true
	for _, c := range m.Compartments {
		size := 1.0
		if c.HasSize {
			size = c.Size
		}
		e.base[compSlot[c.ID]] = size
		e.baseBound[compSlot[c.ID]] = true
	}
	for _, p := range m.Parameters {
		if p.HasValue {
			e.base[paramSlot[p.ID]] = p.Value
			e.baseBound[paramSlot[p.ID]] = true
		}
	}
	for _, r := range m.Reactions {
		if r.KineticLaw == nil {
			continue
		}
		for _, p := range r.KineticLaw.Parameters {
			if p.HasValue {
				s := localSlot[localKey{r.ID, p.ID}]
				e.base[s] = p.Value
				e.baseBound[s] = true
			}
		}
	}

	funcs := make(map[string]mathml.Lambda, len(m.FunctionDefinitions))
	for _, f := range m.FunctionDefinitions {
		funcs[f.ID] = f.Math
	}
	runRes := &engineResolver{binds: runBinds, funcs: funcs, staticBound: e.baseBound}
	iaRes := &engineResolver{binds: iaBinds, funcs: funcs, staticBound: e.baseBound}

	track := func(p *mathml.Program) *mathml.Program {
		if p.MaxStack() > e.maxStack {
			e.maxStack = p.MaxStack()
		}
		if p.Checked() {
			e.checked = true
		}
		return p
	}

	// --- programs ---
	for _, r := range m.Reactions {
		if r.KineticLaw == nil || r.KineticLaw.Math == nil {
			continue
		}
		res := runRes
		if len(r.KineticLaw.Parameters) > 0 {
			locals := make(map[string]int)
			for _, p := range r.KineticLaw.Parameters {
				if p.HasValue {
					locals[p.ID] = localSlot[localKey{r.ID, p.ID}]
				}
			}
			if len(locals) > 0 {
				res = &engineResolver{binds: runBinds, locals: locals, funcs: funcs, staticBound: e.baseBound}
			}
		}
		prog, err := mathml.Compile(r.KineticLaw.Math, res)
		if err != nil {
			return nil, fmt.Errorf("sim: reaction %q: %w", r.ID, err)
		}
		rp := reactionProg{id: r.ID, prog: track(prog)}
		addChange := func(sr *sbml.SpeciesReference, sign float64) {
			idx, ok := speciesSlot[sr.Species]
			if !ok || !dynamic(e.species[idx]) {
				return
			}
			st := sr.Stoichiometry
			if st == 0 {
				st = 1
			}
			rp.changes = append(rp.changes, stoich{slot: idx, coeff: sign * st})
		}
		for _, sr := range r.Reactants {
			addChange(sr, -1)
		}
		for _, sr := range r.Products {
			addChange(sr, 1)
		}
		e.reactions = append(e.reactions, rp)
	}

	for _, ia := range m.InitialAssignments {
		p := iaProg{slot: iaBinds[ia.Symbol], label: ia.Symbol}
		prog, err := mathml.Compile(ia.Math, iaRes)
		if err != nil {
			// Deferred: the reference only fails when it evaluates.
			p.err = fmt.Errorf("sim: initial assignment for %q: %w", ia.Symbol, err)
		} else {
			p.prog = track(prog)
		}
		e.ias = append(e.ias, p)
	}

	for _, r := range m.Rules {
		switch r.Kind {
		case sbml.AssignmentRule:
			prog, err := mathml.Compile(r.Math, runRes)
			if err != nil {
				return nil, fmt.Errorf("sim: assignment rule for %q: %w", r.Variable, err)
			}
			e.assigns = append(e.assigns, slotProg{slot: runBinds[r.Variable], prog: track(prog), label: r.Variable})
		case sbml.RateRule:
			// A non-species target contributes no derivative, but the
			// reference still evaluates its maths every step (and fails on
			// its errors), so it compiles to a slot of -1: evaluated,
			// result dropped.
			idx, ok := speciesSlot[r.Variable]
			if !ok {
				idx = -1
			}
			prog, err := mathml.Compile(r.Math, runRes)
			if err != nil {
				if e.odeErr == nil {
					e.odeErr = fmt.Errorf("sim: rate rule for %q: %w", r.Variable, err)
				}
				continue
			}
			e.rates = append(e.rates, slotProg{slot: idx, prog: track(prog), label: r.Variable})
		}
	}

	for _, ev := range m.Events {
		ep := eventProg{}
		ok := true
		deferErr := func(what string, err error) {
			if e.odeErr == nil {
				e.odeErr = fmt.Errorf("sim: event %s: %w", what, err)
			}
			ok = false
		}
		if prog, err := mathml.Compile(ev.Trigger, runRes); err != nil {
			deferErr("trigger", err)
		} else {
			ep.trigger = track(prog)
		}
		if ev.Delay != nil {
			if prog, err := mathml.Compile(ev.Delay, runRes); err != nil {
				deferErr("delay", err)
			} else {
				ep.delay = track(prog)
			}
		}
		for _, a := range ev.Assignments {
			if prog, err := mathml.Compile(a.Math, runRes); err != nil {
				deferErr(fmt.Sprintf("assignment %q", a.Variable), err)
			} else {
				ep.assigns = append(ep.assigns, slotProg{slot: runBinds[a.Variable], prog: track(prog), label: a.Variable})
			}
		}
		if ok {
			e.events = append(e.events, ep)
		}
	}
	return e, nil
}

// Model returns the compiled model.
func (e *Engine) Model() *sbml.Model { return e.model }

// SpeciesIDs returns the species ids in state (trace column) order. The
// slice is live; callers must not mutate it.
func (e *Engine) SpeciesIDs() []string { return e.names }

// pendingFire is a triggered event waiting out its delay.
type pendingFire struct {
	fireAt float64
	event  int
}

// runState is the mutable state of one simulation run. Engines are shared;
// runStates never are.
type runState struct {
	e     *Engine
	state []float64 // species vector: concentrations (ODE) or counts (SSA)
	vec   []float64 // full slot vector rebuilt at every evaluation point
	base  []float64 // run-local base (event assignments rewrite it)
	stack []float64

	bound, pbound []bool // nil unless the engine has checked loads

	dydt     []float64
	k        [6][]float64
	yy       []float64
	cur      []float64
	out      []float64
	props    []float64
	prevTrig []bool
	pending  []pendingFire
}

func (e *Engine) newRunState() *runState {
	rs := &runState{
		e:     e,
		state: make([]float64, e.nSpecies),
		vec:   make([]float64, e.nSlots),
		base:  append([]float64(nil), e.base...),
		stack: make([]float64, e.maxStack),
		props: make([]float64, len(e.reactions)),
	}
	if e.checked {
		rs.bound = make([]bool, e.nSlots)
		rs.pbound = append([]bool(nil), e.baseBound...)
	}
	return rs
}

// ensureODEBuffers allocates the integrator work arrays.
func (rs *runState) ensureODEBuffers() {
	n := rs.e.nSpecies
	for i := range rs.k {
		rs.k[i] = make([]float64, n)
	}
	rs.dydt = make([]float64, n)
	rs.yy = make([]float64, n)
	rs.cur = make([]float64, n)
	rs.out = make([]float64, n)
	rs.prevTrig = make([]bool, len(rs.e.events))
}

// refresh rebuilds the slot vector for (t, y) and applies assignment rules,
// mirroring the reference environment build: species from y, everything
// else from the (run-local) base, time, then rules in document order —
// whose results are written back into y when they target species, exactly
// as the reference writes through to its state slice.
func (rs *runState) refresh(t float64, y []float64) error {
	e := rs.e
	n := e.nSpecies
	copy(rs.vec[:n], y)
	copy(rs.vec[n:], rs.base[n:])
	rs.vec[e.timeSlot] = t
	if rs.bound != nil {
		copy(rs.bound, rs.pbound)
	}
	for i := range e.assigns {
		ar := &e.assigns[i]
		v, err := ar.prog.Eval(rs.vec, rs.stack, rs.bound)
		if err != nil {
			return fmt.Errorf("sim: assignment rule for %q: %w", ar.label, err)
		}
		rs.vec[ar.slot] = v
		if ar.slot < n {
			y[ar.slot] = v
		}
		if rs.bound != nil {
			rs.bound[ar.slot] = true
		}
	}
	return nil
}

// derivAt computes dy/dt at (t, y) into dydt. y may be an integrator
// work array; like the reference, assignment rules write through to it.
func (rs *runState) derivAt(t float64, y, dydt []float64) error {
	if err := rs.refresh(t, y); err != nil {
		return err
	}
	e := rs.e
	for i := range dydt {
		dydt[i] = 0
	}
	for i := range e.reactions {
		rx := &e.reactions[i]
		rate, err := rx.prog.Eval(rs.vec, rs.stack, rs.bound)
		if err != nil {
			return fmt.Errorf("sim: reaction %q: %w", rx.id, err)
		}
		for _, ch := range rx.changes {
			dydt[ch.slot] += ch.coeff * rate
		}
	}
	for i := range e.rates {
		rr := &e.rates[i]
		v, err := rr.prog.Eval(rs.vec, rs.stack, rs.bound)
		if err != nil {
			return fmt.Errorf("sim: rate rule for %q: %w", rr.label, err)
		}
		if rr.slot >= 0 {
			dydt[rr.slot] = v
		}
	}
	return nil
}

// applyEventAssignments executes one event's assignments against the
// current slot vector. Species targets write the species state; anything
// else rewrites the run-local base, which is what makes the assignment
// stick across later environment rebuilds (the reference writes its consts
// map). The slot vector itself is left stale — callers refresh afterwards,
// matching the reference's env rebuild.
func (rs *runState) applyEventAssignments(ep *eventProg) error {
	n := rs.e.nSpecies
	for i := range ep.assigns {
		a := &ep.assigns[i]
		v, err := a.prog.Eval(rs.vec, rs.stack, rs.bound)
		if err != nil {
			return fmt.Errorf("sim: event assignment %q: %w", a.label, err)
		}
		if a.slot < n {
			rs.state[a.slot] = v
		} else {
			rs.base[a.slot] = v
			if rs.pbound != nil {
				rs.pbound[a.slot] = true
			}
		}
	}
	return nil
}

// fireEvents applies due delayed events and any event whose trigger
// crossed false→true, replicating the reference scheduling precisely.
func (rs *runState) fireEvents(t float64) error {
	e := rs.e
	if len(e.events) == 0 && len(rs.pending) == 0 {
		return nil
	}
	if err := rs.refresh(t, rs.state); err != nil {
		return err
	}
	remaining := rs.pending[:0]
	for _, pe := range rs.pending {
		if pe.fireAt > t {
			remaining = append(remaining, pe)
			continue
		}
		if err := rs.applyEventAssignments(&e.events[pe.event]); err != nil {
			return err
		}
		if err := rs.refresh(t, rs.state); err != nil { // assignments may feed later triggers
			return err
		}
	}
	rs.pending = remaining
	for i := range e.events {
		ep := &e.events[i]
		v, err := ep.trigger.Eval(rs.vec, rs.stack, rs.bound)
		if err != nil {
			return fmt.Errorf("sim: event trigger: %w", err)
		}
		now := v != 0
		if now && !rs.prevTrig[i] {
			if ep.delay != nil {
				d, err := ep.delay.Eval(rs.vec, rs.stack, rs.bound)
				if err != nil {
					return fmt.Errorf("sim: event delay: %w", err)
				}
				if d > 0 {
					rs.pending = append(rs.pending, pendingFire{fireAt: t + d, event: i})
					rs.prevTrig[i] = now
					continue
				}
			}
			if err := rs.applyEventAssignments(ep); err != nil {
				return err
			}
			if err := rs.refresh(t, rs.state); err != nil {
				return err
			}
		}
		rs.prevTrig[i] = now
	}
	return nil
}

// initODEState computes the initial concentration vector: attribute values
// first, then initial assignments in two passes (the second pass resolves
// simple chains; its errors — including deferred compile errors — are the
// run's errors, where the first pass stays best-effort like the
// reference's historical behaviour on not-yet-resolvable chains).
func (rs *runState) initODEState() error {
	e := rs.e
	for i, s := range e.species {
		switch {
		case s.HasInitialConcentration:
			rs.state[i] = s.InitialConcentration
		case s.HasInitialAmount:
			vol := 1.0
			if comp := e.model.CompartmentByID(s.Compartment); comp != nil && comp.HasSize && comp.Size > 0 {
				vol = comp.Size
			}
			rs.state[i] = s.InitialAmount / vol
		}
	}
	if len(e.ias) == 0 {
		return nil
	}
	// Initial-assignment environment: species + base, no time binding.
	n := e.nSpecies
	copy(rs.vec[:n], rs.state)
	copy(rs.vec[n:], rs.base[n:])
	if rs.bound != nil {
		copy(rs.bound, rs.pbound)
	}
	for pass := 0; pass < 2; pass++ {
		for i := range e.ias {
			ia := &e.ias[i]
			if ia.prog == nil {
				if pass > 0 {
					return ia.err
				}
				continue
			}
			v, err := ia.prog.Eval(rs.vec, rs.stack, rs.bound)
			if err != nil {
				if pass > 0 {
					return fmt.Errorf("sim: initial assignment for %q: %w", ia.label, err)
				}
				continue
			}
			rs.vec[ia.slot] = v
			if rs.bound != nil {
				rs.bound[ia.slot] = true
			}
			if ia.slot < n {
				rs.state[ia.slot] = v
			}
		}
	}
	return nil
}

// sampleCapacity sizes the output trace from the sampling grid so the
// simulation loops append without per-sample allocation (the SSA boundary
// fill may run one or two past it; the trace grows amortized then). The
// hint is clamped: a pathological span/step ratio must not pre-allocate
// unbounded memory or overflow the int conversion.
func sampleCapacity(opts Options) int {
	if opts.Step <= 0 {
		return 0
	}
	const maxHint = 1 << 20
	samples := (opts.T1 - opts.T0) / opts.Step
	if !(samples >= 0) || samples > maxHint {
		return maxHint
	}
	return int(samples) + 2
}

// ODE integrates the model deterministically; see SimulateODE.
func (e *Engine) ODE(opts Options) (*trace.Trace, error) {
	return e.ODECtx(context.Background(), opts)
}

// ODECtx is ODE honoring cancellation: the integrator checks ctx between
// output steps, and the adaptive path additionally checks it inside the
// RKF45 sub-step loop (every rkf45CtxCheckEvery sub-steps), so even a
// sub-step storm — a stiff system driving the controller to its minimum
// step size for up to ~1e6 sub-steps per output step — returns ctx's
// error promptly. The run state is private to the call, so a cancelled
// run leaves nothing behind; an uncancelled context produces a trace
// bitwise identical to ODE's.
func (e *Engine) ODECtx(ctx context.Context, opts Options) (*trace.Trace, error) {
	opts = opts.withDefaults()
	if opts.T1 <= opts.T0 {
		return nil, fmt.Errorf("sim: T1 (%g) must exceed T0 (%g)", opts.T1, opts.T0)
	}
	if e.odeErr != nil {
		return nil, e.odeErr
	}
	rs := e.newRunState()
	rs.ensureODEBuffers()
	if err := rs.initODEState(); err != nil {
		return nil, err
	}
	tr := trace.NewWithCapacity(e.names, sampleCapacity(opts))
	// Evaluate triggers once at T0 so events true from the start do not
	// fire spuriously.
	if err := rs.fireEvents(opts.T0); err != nil {
		return nil, err
	}
	if err := rs.refresh(opts.T0, rs.state); err != nil { // assignment-rule variables for output
		return nil, err
	}
	if err := tr.Append(opts.T0, rs.state); err != nil {
		return nil, err
	}
	t := opts.T0
	for t < opts.T1-1e-12 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		step := opts.Step
		if t+step > opts.T1 {
			step = opts.T1 - t
		}
		var err error
		if opts.Adaptive {
			err = rs.rkf45StepCtx(ctx, t, step, opts.Tolerance)
		} else {
			err = rs.rk4Step(t, step)
		}
		if err != nil {
			return nil, err
		}
		t += step
		clampNonNegative(rs.state)
		if err := rs.fireEvents(t); err != nil {
			return nil, err
		}
		if err := rs.refresh(t, rs.state); err != nil {
			return nil, err
		}
		if err := tr.Append(t, rs.state); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// rk4Step advances rs.state by one classic Runge–Kutta step.
func (rs *runState) rk4Step(t, h float64) error {
	y := rs.state
	if err := rs.derivAt(t, y, rs.k[0]); err != nil {
		return err
	}
	for i := range y {
		rs.yy[i] = y[i] + h/2*rs.k[0][i]
	}
	if err := rs.derivAt(t+h/2, rs.yy, rs.k[1]); err != nil {
		return err
	}
	for i := range y {
		rs.yy[i] = y[i] + h/2*rs.k[1][i]
	}
	if err := rs.derivAt(t+h/2, rs.yy, rs.k[2]); err != nil {
		return err
	}
	for i := range y {
		rs.yy[i] = y[i] + h*rs.k[2][i]
	}
	if err := rs.derivAt(t+h, rs.yy, rs.k[3]); err != nil {
		return err
	}
	for i := range y {
		rs.out[i] = y[i] + h/6*(rs.k[0][i]+2*rs.k[1][i]+2*rs.k[2][i]+rs.k[3][i])
	}
	copy(rs.state, rs.out)
	return nil
}

// rkf45CtxCheckEvery is how many RKF45 sub-steps run between context
// checks. Rejections shrink the sub-step down to a floor of h*1e-6, and
// floor-size accepts advance t by only ~1e-6·h each, so one output step
// can cost on the order of a million sub-steps on a stiff system with a
// tight tolerance — far too long to wait for the between-steps check in
// ODECtx. The counter counts every loop iteration (rejections and
// floor accepts alike — both are storm modes); at 6 derivative
// evaluations per sub-step, a check every 32 is noise.
const rkf45CtxCheckEvery = 32

// rkf45Step advances rs.state from t to t+h with embedded RKF45 sub-steps.
// The arithmetic replicates the reference step-size controller exactly.
func (rs *runState) rkf45Step(t, h, tol float64) error {
	return rs.rkf45StepCtx(context.Background(), t, h, tol)
}

// rkf45StepCtx is rkf45Step honoring cancellation from inside the
// sub-step loop; see rkf45CtxCheckEvery. The step-size arithmetic is
// untouched, so an uncancelled context integrates bitwise identically.
func (rs *runState) rkf45StepCtx(ctx context.Context, t, h, tol float64) error {
	target := t + h
	sub := h
	copy(rs.cur, rs.state)
	for substeps := 0; t < target-1e-12; substeps++ {
		if substeps%rkf45CtxCheckEvery == rkf45CtxCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if t+sub > target {
			sub = target - t
		}
		errEst, err := rs.rkf45Once(t, rs.cur, sub)
		if err != nil {
			return err
		}
		if errEst <= tol || sub <= h*1e-6 {
			copy(rs.cur, rs.out)
			t += sub
			if errEst > 0 {
				sub = math.Min(h, 0.9*sub*math.Pow(tol/errEst, 0.2))
			}
			continue
		}
		sub = math.Max(h*1e-6, 0.9*sub*math.Pow(tol/errEst, 0.25))
	}
	copy(rs.state, rs.cur)
	return nil
}

// rkf45Once takes one Fehlberg 4(5) step from y, leaving the 5th-order
// solution in rs.out and returning the error estimate.
func (rs *runState) rkf45Once(t float64, y []float64, h float64) (float64, error) {
	k := &rs.k
	// stage assembles y + h·Σ cf·k[j] into rs.yy, in the reference's
	// coefficient order so the floating-point result is identical.
	stage := func(coeffs ...float64) {
		copy(rs.yy, y)
		for j, cf := range coeffs {
			if cf == 0 {
				continue
			}
			for i := range rs.yy {
				rs.yy[i] += h * cf * k[j][i]
			}
		}
	}
	if err := rs.derivAt(t, y, k[0]); err != nil {
		return 0, err
	}
	stage(1.0 / 4)
	if err := rs.derivAt(t+1.0/4*h, rs.yy, k[1]); err != nil {
		return 0, err
	}
	stage(3.0/32, 9.0/32)
	if err := rs.derivAt(t+3.0/8*h, rs.yy, k[2]); err != nil {
		return 0, err
	}
	stage(1932.0/2197, -7200.0/2197, 7296.0/2197)
	if err := rs.derivAt(t+12.0/13*h, rs.yy, k[3]); err != nil {
		return 0, err
	}
	stage(439.0/216, -8, 3680.0/513, -845.0/4104)
	if err := rs.derivAt(t+1*h, rs.yy, k[4]); err != nil {
		return 0, err
	}
	stage(-8.0/27, 2, -3544.0/2565, 1859.0/4104, -11.0/40)
	if err := rs.derivAt(t+1.0/2*h, rs.yy, k[5]); err != nil {
		return 0, err
	}
	var errEst float64
	for i := range y {
		v5 := y[i] + h*(16.0/135*k[0][i]+6656.0/12825*k[2][i]+28561.0/56430*k[3][i]-9.0/50*k[4][i]+2.0/55*k[5][i])
		v4 := y[i] + h*(25.0/216*k[0][i]+1408.0/2565*k[2][i]+2197.0/4104*k[3][i]-1.0/5*k[4][i])
		rs.out[i] = v5
		if d := math.Abs(v5 - v4); d > errEst {
			errEst = d
		}
	}
	return errEst, nil
}

// propensities evaluates every reaction's propensity at (t, counts) into
// rs.props, returning the total. Negative and NaN propensities clamp to
// zero like the reference.
func (rs *runState) propensities(t float64) (float64, error) {
	if err := rs.refresh(t, rs.state); err != nil {
		return 0, err
	}
	e := rs.e
	var total float64
	for i := range e.reactions {
		a, err := e.reactions[i].prog.Eval(rs.vec, rs.stack, rs.bound)
		if err != nil {
			return 0, fmt.Errorf("sim: propensity: %w", err)
		}
		if a < 0 || math.IsNaN(a) {
			a = 0
		}
		rs.props[i] = a
		total += a
	}
	return total, nil
}

// ssaCtxCheckEvery is how many Gillespie events, and separately how many
// output samples, an SSA run produces between context checks: frequent
// enough that cancellation lands within microseconds even on stiff models
// or a fine sampling grid, rare enough that the counters are invisible
// next to the per-event propensity evaluation and the per-sample copy.
const ssaCtxCheckEvery = 1024

// SSA runs Gillespie's direct method; see SimulateSSA.
func (e *Engine) SSA(opts Options) (*trace.Trace, error) {
	return e.SSACtx(context.Background(), opts)
}

// SSACtx is SSA honoring cancellation: ctx is checked before the first
// sample, then every ssaCtxCheckEvery reaction events and every
// ssaCtxCheckEvery samples, so neither a busy event loop nor the sample
// fill of an exhausted system outruns it, and ctx's error is returned
// mid-run. An uncancelled context produces a trace bitwise identical to
// SSA's (the RNG consumption sequence is untouched).
func (e *Engine) SSACtx(ctx context.Context, opts Options) (*trace.Trace, error) {
	opts = opts.withDefaults()
	if opts.T1 <= opts.T0 {
		return nil, fmt.Errorf("sim: T1 (%g) must exceed T0 (%g)", opts.T1, opts.T0)
	}
	rs := e.newRunState()
	rng := rand.New(rand.NewSource(opts.Seed))
	for i, s := range e.species {
		switch {
		case s.HasInitialAmount:
			rs.state[i] = math.Round(s.InitialAmount)
		case s.HasInitialConcentration:
			rs.state[i] = math.Round(s.InitialConcentration * opts.ScaleFactor)
		}
	}
	tr := trace.NewWithCapacity(e.names, sampleCapacity(opts))
	t := opts.T0
	nextSample := opts.T0
	appendSample := func() error {
		if tr.Len()%ssaCtxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := tr.Append(nextSample, rs.state); err != nil {
			return err
		}
		nextSample += opts.Step
		return nil
	}
	if err := appendSample(); err != nil {
		return nil, err
	}
	events := 0
	for t < opts.T1 {
		if events++; events >= ssaCtxCheckEvery {
			events = 0
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		total, err := rs.propensities(t)
		if err != nil {
			return nil, err
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
		for i, a := range rs.props {
			if u < a {
				chosen = i
				break
			}
			u -= a
		}
		for _, ch := range e.reactions[chosen].changes {
			rs.state[ch.slot] += ch.coeff
			if rs.state[ch.slot] < 0 {
				rs.state[ch.slot] = 0
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
