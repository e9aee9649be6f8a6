package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"sbmlcompose/internal/index"
	"sbmlcompose/internal/mathml"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/synonym"
)

// This file implements the compiled-model layer. The paper's Figure 5 merge
// is "look the component up in an index of the first model"; the seed built
// that index from scratch for every component type on every pairwise
// Compose, which made an n-model ComposeAll re-derive every synonym
// canonicalization, Figure 7 math pattern and reduced unit vector of the
// accumulator O(n) times. A CompiledModel computes the keys once and then
// keeps each per-component-type index consistent in place as composition
// appends (or renames) components, so an incremental fold touches each
// accumulator component once.

// --- options-derived key functions ---
//
// These are free functions parameterized by Options so the composer and the
// compiled indexes provably derive identical keys.

// mathKeyFor returns the index key for an expression: the Figure 7 pattern
// under light/heavy semantics, the exact structural rendering under none.
func mathKeyFor(opts Options, e mathml.Expr) string {
	if e == nil {
		return ""
	}
	if opts.Semantics == NoSemantics {
		return mathml.FormatInfix(e)
	}
	return mathml.Pattern(e, nil)
}

// canonicalNameFor returns the index key for an entity name under the given
// semantics level.
func canonicalNameFor(opts Options, name string) string {
	switch opts.Semantics {
	case NoSemantics:
		return name
	case LightSemantics:
		return synonym.Normalize(name)
	default:
		if opts.Synonyms != nil {
			return opts.Synonyms.Canonical(name)
		}
		return synonym.Normalize(name)
	}
}

// speciesKeysFor matches the paper's rule: species are identical when their
// names or identifiers are identical or synonymous. Species in different
// compartments are different entities, so the (mapped) compartment is part
// of the key.
func speciesKeysFor(opts Options, s *sbml.Species) []string {
	keys := []string{"id:" + s.ID + "@" + s.Compartment}
	if s.Name != "" && opts.Semantics != NoSemantics {
		keys = append(keys, "n:"+canonicalNameFor(opts, s.Name)+"@"+s.Compartment)
	}
	if opts.Semantics != NoSemantics {
		// An id in one model can match a name in the other.
		keys = append(keys, "n:"+canonicalNameFor(opts, s.ID)+"@"+s.Compartment)
	}
	return keys
}

// eventKeyFor canonicalizes an event by its trigger, delay and assignment
// patterns.
func eventKeyFor(opts Options, e *sbml.Event) string {
	var b strings.Builder
	b.WriteString("t:")
	writeMathKey(&b, opts, e.Trigger)
	b.WriteString("|d:")
	writeMathKey(&b, opts, e.Delay)
	assigns := make([]string, len(e.Assignments))
	for i, a := range e.Assignments {
		assigns[i] = a.Variable + "=" + mathKeyFor(opts, a.Math)
	}
	sort.Strings(assigns)
	for _, a := range assigns {
		b.WriteString("|")
		b.WriteString(a)
	}
	return b.String()
}

// writeMathKey appends an expression's key to b without an intermediate
// string allocation.
func writeMathKey(b *strings.Builder, opts Options, e mathml.Expr) {
	if e == nil {
		return
	}
	if opts.Semantics == NoSemantics {
		b.WriteString(mathml.FormatInfix(e))
		return
	}
	mathml.PatternAppend(b, e, nil)
}

// ruleKeyFor identifies an assignment or rate rule by its kind and target.
func ruleKeyFor(r *sbml.Rule) string {
	return r.Kind.String() + ":" + r.Variable
}

// CompiledModel wraps an sbml.Model with its precomputed match keys —
// normalized and synonym-expanded names, commutativity-canonical MathML
// patterns, reduced unit vectors — and prebuilt per-component-type indexes,
// all bound to the Options the model was compiled under. The composer
// updates the indexes in place as it appends components, so a compiled
// accumulator stays consistent across an arbitrarily long incremental fold
// without ever being recompiled.
//
// Index consistency relies on the SBML requirement that ids are unique
// within a model; the composer's rename step preserves it.
type CompiledModel struct {
	opts  Options
	model *sbml.Model

	// ids holds every id defined in the model (components, the model id,
	// kinetic-law-local parameters); the composer consults and extends it
	// when generating fresh names.
	ids map[string]bool

	// values holds the initial value of every symbol (attribute values
	// overridden by initial-assignment results), kept equal at step
	// boundaries to what collectInitialValues would scan from the live
	// model. During a step the map is frozen — the step composer reads it
	// as the first model's pre-collected values, per §3 — and insertions
	// and adoptions buffer onto pendingVals; flushValues applies the
	// buffer once the step's renames have settled. That turns the former
	// per-step O(accumulator) scan into O(step additions + initial
	// assignments).
	values      map[string]float64
	pendingVals []any // *Compartment | *Species | *Parameter | *InitialAssignment touched this step

	funcIdx     index.Index                        // math pattern → *FunctionDefinition
	unitIdx     index.Index                        // reduced unit vector → *UnitDefinition
	compTypeIdx index.Index                        // id and canonical name → *CompartmentType
	specTypeIdx index.Index                        // id and canonical name → *SpeciesType
	compIdx     index.Index                        // id and canonical name → *Compartment
	speciesIdx  index.Index                        // id/name @ compartment → *Species
	params      map[string]*sbml.Parameter         // id → parameter
	assigns     map[string]*sbml.InitialAssignment // symbol → assignment
	rules       map[string]*sbml.Rule              // kind:variable → rule
	algIdx      index.Index                        // math pattern → algebraic *Rule
	consIdx     index.Index                        // math pattern → *Constraint
	reactIdx    index.Index                        // structure key → *Reaction
	eventIdx    index.Index                        // event key → *Event
}

// Compile precomputes a model's match keys and component indexes under the
// given options. The input is cloned, never mutated; the returned
// CompiledModel owns the clone.
func Compile(m *sbml.Model, opts Options) (*CompiledModel, error) {
	if m == nil {
		return nil, fmt.Errorf("core: Compile requires a non-nil model")
	}
	return compile(m.Clone(), opts), nil
}

// compile builds the index layer over a model the caller hands over; the
// CompiledModel takes ownership of m.
func compile(m *sbml.Model, opts Options) *CompiledModel {
	newIdx := func(n int) index.Index { return index.NewWithCapacity(opts.Index, n) }
	cm := &CompiledModel{
		opts:        opts,
		model:       m,
		ids:         m.AllIDs(),
		values:      collectInitialValues(m),
		funcIdx:     newIdx(len(m.FunctionDefinitions)),
		unitIdx:     newIdx(len(m.UnitDefinitions)),
		compTypeIdx: newIdx(2 * len(m.CompartmentTypes)),
		specTypeIdx: newIdx(2 * len(m.SpeciesTypes)),
		compIdx:     newIdx(2 * len(m.Compartments)),
		speciesIdx:  newIdx(3 * len(m.Species)),
		params:      make(map[string]*sbml.Parameter, len(m.Parameters)),
		assigns:     make(map[string]*sbml.InitialAssignment, len(m.InitialAssignments)),
		rules:       make(map[string]*sbml.Rule, len(m.Rules)),
		algIdx:      newIdx(0),
		consIdx:     newIdx(len(m.Constraints)),
		reactIdx:    newIdx(len(m.Reactions)),
		eventIdx:    newIdx(len(m.Events)),
	}
	for _, f := range m.FunctionDefinitions {
		cm.insertFunction(f)
	}
	for _, u := range m.UnitDefinitions {
		cm.insertUnitDef(u)
	}
	for _, ct := range m.CompartmentTypes {
		cm.insertCompartmentType(ct)
	}
	for _, st := range m.SpeciesTypes {
		cm.insertSpeciesType(st)
	}
	for _, comp := range m.Compartments {
		cm.insertCompartment(comp)
	}
	for _, s := range m.Species {
		cm.insertSpecies(s)
	}
	for _, p := range m.Parameters {
		cm.insertParameter(p)
	}
	for _, ia := range m.InitialAssignments {
		cm.insertInitialAssignment(ia)
	}
	for _, r := range m.Rules {
		cm.insertRule(r)
	}
	for _, con := range m.Constraints {
		cm.insertConstraint(con)
	}
	for _, r := range m.Reactions {
		cm.insertReaction(r)
	}
	for _, e := range m.Events {
		cm.insertEvent(e)
	}
	// The insert hooks above buffered every component onto pendingVals, but
	// values was just scanned from this very model; drop the buffer so the
	// first step doesn't replay the whole seed.
	cm.pendingVals = nil
	return cm
}

// Model returns the compiled model's live underlying model. Mutating it
// would desynchronize the indexes; use Snapshot for a safe copy.
func (cm *CompiledModel) Model() *sbml.Model { return cm.model }

// Snapshot returns a deep copy of the underlying model, safe for the caller
// to mutate or serialize while composition continues.
func (cm *CompiledModel) Snapshot() *sbml.Model { return cm.model.Clone() }

// Options returns the options the model was compiled under.
func (cm *CompiledModel) Options() Options { return cm.opts }

// --- per-family insert maintenance ---
//
// Each insert derives the component's keys with the same functions the
// composer's lookups use; keeping them adjacent here is what makes the
// in-place update provably equivalent to a from-scratch rebuild.

func (cm *CompiledModel) insertFunction(f *sbml.FunctionDefinition) {
	cm.funcIdx.Insert(mathKeyFor(cm.opts, f.Math), f)
}

func (cm *CompiledModel) insertUnitDef(u *sbml.UnitDefinition) {
	cm.unitIdx.Insert(unitKey(u), u)
}

func (cm *CompiledModel) insertCompartmentType(ct *sbml.CompartmentType) {
	cm.compTypeIdx.Insert(ct.ID, ct)
	if ct.Name != "" {
		cm.compTypeIdx.Insert("n:"+canonicalNameFor(cm.opts, ct.Name), ct)
	}
}

func (cm *CompiledModel) insertSpeciesType(st *sbml.SpeciesType) {
	cm.specTypeIdx.Insert(st.ID, st)
	if st.Name != "" {
		cm.specTypeIdx.Insert("n:"+canonicalNameFor(cm.opts, st.Name), st)
	}
}

func (cm *CompiledModel) insertCompartment(comp *sbml.Compartment) {
	cm.compIdx.Insert("id:"+comp.ID, comp)
	if comp.Name != "" && cm.opts.Semantics != NoSemantics {
		cm.compIdx.Insert("n:"+canonicalNameFor(cm.opts, comp.Name), comp)
	}
	cm.noteValue(comp)
}

func (cm *CompiledModel) insertSpecies(s *sbml.Species) {
	for _, k := range speciesKeysFor(cm.opts, s) {
		cm.speciesIdx.Insert(k, s)
	}
	cm.noteValue(s)
}

func (cm *CompiledModel) insertParameter(p *sbml.Parameter) {
	cm.params[p.ID] = p
	cm.noteValue(p)
}

func (cm *CompiledModel) insertInitialAssignment(ia *sbml.InitialAssignment) {
	cm.assigns[ia.Symbol] = ia
	// An appended assignment changes the initial-value overlay even when
	// the step adds no attribute values, so it must trigger a flush too.
	cm.noteValue(ia)
}

func (cm *CompiledModel) insertRule(r *sbml.Rule) {
	if r.Kind == sbml.AlgebraicRule {
		cm.algIdx.Insert(mathKeyFor(cm.opts, r.Math), r)
		return
	}
	cm.rules[ruleKeyFor(r)] = r
}

func (cm *CompiledModel) insertConstraint(con *sbml.Constraint) {
	cm.consIdx.Insert(mathKeyFor(cm.opts, con.Math), con)
}

func (cm *CompiledModel) insertReaction(r *sbml.Reaction) {
	cm.reactIdx.Insert(reactionStructureKey(r), r)
	if r.KineticLaw != nil {
		// Law-local parameter ids live in the model's id namespace (AllIDs
		// collects them), so claim them as soon as the reaction lands.
		for _, p := range r.KineticLaw.Parameters {
			if p.ID != "" {
				cm.ids[p.ID] = true
			}
		}
	}
}

func (cm *CompiledModel) insertEvent(e *sbml.Event) {
	cm.eventIdx.Insert(eventKeyFor(cm.opts, e), e)
}

// noteValue buffers a value-carrying component — freshly inserted, or an
// existing one whose quantity a merge adopted — for flushValues. Its value
// is derived at flush time from the live struct, so a rename later in the
// same step (appended components alias the step's second model) cannot
// leave a stale id keyed in the values map.
func (cm *CompiledModel) noteValue(comp any) {
	cm.pendingVals = append(cm.pendingVals, comp)
}

// flushValues folds the step's buffered value changes into the values map
// and re-derives the initial-assignment overlay. Called at step end, after
// renames have settled. Attribute entries are O(step additions); the
// overlay is O(initial assignments) — an appended assignment's maths may
// have been renamed after insertion, and any new attribute value can change
// what an existing assignment evaluates to, so the overlay symbols are
// reset to their attribute bases and recomputed with the same pass loop the
// from-scratch scan uses. A step that added or adopted nothing pays
// nothing.
func (cm *CompiledModel) flushValues() {
	if len(cm.pendingVals) == 0 {
		return
	}
	for _, comp := range cm.pendingVals {
		switch x := comp.(type) {
		case *sbml.Compartment:
			if x.HasSize {
				cm.values[x.ID] = x.Size
			}
		case *sbml.Species:
			if v, ok := speciesAttributeValue(x); ok {
				cm.values[x.ID] = v
			}
		case *sbml.Parameter:
			if x.HasValue {
				cm.values[x.ID] = x.Value
			}
		case *sbml.InitialAssignment:
			// No attribute layer of its own; its effect is the overlay
			// replay below.
		}
	}
	cm.pendingVals = cm.pendingVals[:0]
	m := cm.model
	if len(m.InitialAssignments) == 0 {
		return
	}
	// Reset every overlay symbol to its attribute base, then replay the
	// overlay exactly as collectInitialValues would.
	for _, ia := range m.InitialAssignments {
		if v, ok := cm.attributeValue(ia.Symbol); ok {
			cm.values[ia.Symbol] = v
		} else {
			delete(cm.values, ia.Symbol)
		}
	}
	applyInitialAssignmentOverlay(m, cm.values)
}

// attributeValue looks up a symbol's attribute-declared value in the live
// model. The lookup order is the reverse of collectInitialValues' write
// order (parameters over species over compartments), so even a
// pathologically duplicated id resolves to the same value the scan ends
// with.
func (cm *CompiledModel) attributeValue(id string) (float64, bool) {
	if p, ok := cm.params[id]; ok && p.HasValue {
		return p.Value, true
	}
	if s := cm.model.SpeciesByID(id); s != nil {
		if v, ok := speciesAttributeValue(s); ok {
			return v, true
		}
	}
	if comp := cm.model.CompartmentByID(id); comp != nil && comp.HasSize {
		return comp.Size, true
	}
	return 0, false
}

// rekeyMathIndexes rebuilds the index families whose keys derive from
// component maths, selected by flag. A component added mid-step shares its
// structs with the step's second model, so a rename or mapping later in
// the same step can rewrite its math after it was indexed, leaving the
// index holding the pre-rewrite key. The seed recomputed every key at the
// next pairwise step; the compiled accumulator rebuilds only the families
// where the step composer actually observed a key drift (repairMathKeys),
// so the common step costs nothing here.
func (cm *CompiledModel) rekeyMathIndexes(funcs, algs, cons, events bool) {
	m := cm.model
	newIdx := func(n int) index.Index { return index.NewWithCapacity(cm.opts.Index, n) }
	if funcs {
		cm.funcIdx = newIdx(len(m.FunctionDefinitions))
		for _, f := range m.FunctionDefinitions {
			cm.insertFunction(f)
		}
	}
	if algs {
		cm.algIdx = newIdx(0)
		for _, r := range m.Rules {
			if r.Kind == sbml.AlgebraicRule {
				cm.insertRule(r)
			}
		}
	}
	if cons {
		cm.consIdx = newIdx(len(m.Constraints))
		for _, con := range m.Constraints {
			cm.insertConstraint(con)
		}
	}
	if events {
		cm.eventIdx = newIdx(len(m.Events))
		for _, e := range m.Events {
			cm.insertEvent(e)
		}
	}
}

// --- streaming incremental composer ---

// ErrComposerPoisoned marks a Composer whose accumulator was abandoned
// mid-mutation by a cancelled Add. Every later Add fails
// with an error wrapping it, and Result/Model/Snapshot return nil: the
// accumulator holds an arbitrary prefix of the cancelled step and must not
// be observed. Err exposes the original cancellation cause.
var ErrComposerPoisoned = errors.New("composer poisoned by cancelled Add")

// Composer assembles a composed model incrementally: each Add folds one
// more model into a persistent compiled accumulator, updating the
// accumulator's indexes in place instead of recompiling them — the
// incremental model-assembly workflow the paper notes semanticSBML cannot
// offer ("it is not possible for the model to be built incrementally").
type Composer struct {
	opts Options
	acc  *CompiledModel
	res  *Result
	// err, once set, poisons the composer: a cancelled Add
	// interrupted the step pipeline mid-mutation, so the accumulator is an
	// arbitrary prefix of that step and no longer safe to extend or read.
	err error
}

// NewComposer returns an empty streaming composer. The first Add seeds the
// accumulator; every later Add merges into it under Figures 4 and 5.
func NewComposer(opts Options) *Composer {
	return &Composer{
		opts: opts,
		res:  &Result{Mappings: map[string]string{}, Renames: map[string]string{}},
	}
}

// NewComposerFrom returns a streaming composer seeded with an
// already-compiled accumulator. The composer takes ownership of cm: the
// caller must not compose through cm afterwards.
func NewComposerFrom(cm *CompiledModel) *Composer {
	c := NewComposer(cm.opts)
	c.acc = cm
	c.res.Model = cm.model
	return c
}

// Add folds one more model into the accumulator. The input is cloned, never
// mutated. Warnings, matches, mappings, renames and statistics accumulate
// onto the composer's Result exactly as the sequential left fold reports
// them: earlier steps win when two steps map or rename the same id.
//
// The step pipeline checks ctx between component families. Cancellation
// observed before the first family leaves the accumulator untouched and
// the composer usable — the same Add can simply be retried. Cancellation
// observed mid-pipeline has already mutated the accumulator, so the
// composer poisons itself: the interrupted state is never exposed
// (Result/Model/Snapshot return nil) and every later Add fails with an
// error wrapping ErrComposerPoisoned.
func (c *Composer) Add(ctx context.Context, m *sbml.Model) error {
	if c.err != nil {
		return c.err
	}
	if m == nil {
		return fmt.Errorf("core: Composer.Add requires a non-nil model")
	}
	if err := ctx.Err(); err != nil {
		// Nothing has been touched yet: fail cleanly without poisoning.
		return err
	}
	start := time.Now()
	defer func() { c.res.Stats.Duration += time.Since(start) }()

	if c.acc == nil {
		// First model: the fold's seed, contributing no merge statistics.
		c.acc = compile(m.Clone(), c.opts)
		c.res.Model = c.acc.model
		return nil
	}
	// Figure 5 lines 1-2: composing with an empty model returns the other —
	// like the pairwise Compose, an empty accumulator adopts the incoming
	// model even when that model is empty too (its id and name win).
	if c.acc.model.ComponentCount() == 0 {
		c.acc = compile(m.Clone(), c.opts)
		c.res.Model = c.acc.model
		c.res.Stats.Added += m.ComponentCount()
		return nil
	}
	if m.ComponentCount() == 0 {
		return nil
	}

	step := &Result{Mappings: map[string]string{}, Renames: map[string]string{}}
	cs := newStepComposer(c.acc, m.Clone(), step)
	cs.secondValues = collectInitialValues(m)
	if err := cs.runPipeline(ctx); err != nil {
		// The pipeline stopped between families: earlier families already
		// landed in the accumulator, so it no longer equals any fold
		// prefix. Refuse all further use rather than expose it.
		c.err = fmt.Errorf("core: %w: %w", ErrComposerPoisoned, err)
		c.acc = nil
		c.res = &Result{Mappings: map[string]string{}, Renames: map[string]string{}}
		return err
	}
	// The accumulator outlives this step; repair any math keys the step's
	// renames rewrote and fold the step's value changes into the values
	// map. A one-shot Compose skips both, its compiled state dies with the
	// call.
	cs.repairMathKeys()
	c.acc.flushValues()
	c.mergeStep(step)
	return nil
}

// Err returns the poison error set by a cancelled Add, or nil while
// the composer is healthy.
func (c *Composer) Err() error { return c.err }

// mergeStep folds one pairwise step's result into the cumulative result,
// replicating the left fold's aggregation: warnings and matches append in
// step order, and on an id collision across steps the earlier mapping or
// rename wins.
func (c *Composer) mergeStep(step *Result) {
	c.res.Warnings = append(c.res.Warnings, step.Warnings...)
	c.res.Matches = append(c.res.Matches, step.Matches...)
	for k, v := range step.Mappings {
		if _, ok := c.res.Mappings[k]; !ok {
			c.res.Mappings[k] = v
		}
	}
	for k, v := range step.Renames {
		if _, ok := c.res.Renames[k]; !ok {
			c.res.Renames[k] = v
		}
	}
	c.res.Stats.Merged += step.Stats.Merged
	c.res.Stats.Added += step.Stats.Added
	c.res.Stats.Renamed += step.Stats.Renamed
	c.res.Stats.Conflicts += step.Stats.Conflicts
}

// Result returns the cumulative composition result, or nil when the
// composer was poisoned by a cancelled Add. The result (and its
// Model) is live: subsequent Adds keep extending it.
func (c *Composer) Result() *Result {
	if c.err != nil {
		return nil
	}
	return c.res
}

// Model returns the live accumulator model, or nil before the first Add or
// after poisoning. Mutating it would desynchronize the compiled indexes;
// use Snapshot for a safe copy.
func (c *Composer) Model() *sbml.Model {
	if c.acc == nil {
		return nil
	}
	return c.acc.model
}

// Snapshot returns a deep copy of the accumulator, or nil before the first
// Add or after poisoning.
func (c *Composer) Snapshot() *sbml.Model {
	if c.acc == nil {
		return nil
	}
	return c.acc.model.Clone()
}
