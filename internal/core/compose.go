// Package core implements SBMLCompose, the paper's primary contribution:
// unsupervised composition of SBML biochemical network models.
//
// The composition follows the paper's two algorithms exactly in structure:
//
//   - Figure 4 fixes the order in which component types are composed
//     (function definitions → unit definitions → compartment types → species
//     types → compartments → species → parameters → rules → constraints →
//     reactions → events), so every reference a later component makes is
//     already resolved when it is processed;
//
//   - Figure 5 is the generic per-component merge: look the second model's
//     component up in an index over the first model's components; on a hit,
//     record the duplicate, check for conflicts and record an id mapping; on
//     a miss, check for id collisions (renaming the newcomer when its id is
//     taken by a different component) and add the component to the first
//     model.
//
// Equality is type-specific (§3): species match by identical or synonymous
// names, unit definitions by reduction against the list of known units,
// parameters only when value and units agree ("all parameters have to be
// included … if two parameters have the same name, then one is renamed"),
// and everything carrying maths — function definitions, rules, constraints,
// kinetic laws, initial assignments, event triggers — by the
// commutativity-aware MathML patterns of Figure 7. Conflicts resolve
// first-component-wins with a warning written to the composition log, and
// rate-constant conflicts are reconciled by the mole↔molecule conversions of
// Figure 6 before being declared conflicts.
package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"sbmlcompose/internal/index"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/synonym"
)

// SemanticsLevel selects how much meaning the matcher uses, implementing the
// heavy/light/none comparison proposed in the paper's future work (§5).
type SemanticsLevel int

const (
	// HeavySemantics is the paper's full treatment: synonym tables, math
	// patterns and unit conversion.
	HeavySemantics SemanticsLevel = iota
	// LightSemantics matches on exact ids/names and math patterns but uses
	// no synonym table and performs no unit conversion.
	LightSemantics
	// NoSemantics is a purely structural merge: components are equal only
	// when their ids and their maths are exactly equal.
	NoSemantics
)

// String names the level.
func (s SemanticsLevel) String() string {
	switch s {
	case LightSemantics:
		return "light"
	case NoSemantics:
		return "none"
	default:
		return "heavy"
	}
}

// Options configures a composition.
type Options struct {
	// Semantics selects the matching depth; the default is HeavySemantics.
	Semantics SemanticsLevel
	// Synonyms supplies the synonym table for heavy semantics. Nil falls
	// back to exact name matching.
	Synonyms *synonym.Table
	// Index selects the component index structure (the paper uses a hash
	// map; others exist for the index ablation).
	Index index.Kind
	// Log receives warning lines as they are produced; nil discards them.
	// Warnings are also collected on the Result.
	Log io.Writer
}

// Warning records a decision the composer took on the user's behalf, such as
// resolving a conflict by keeping the first model's value.
type Warning struct {
	// Component identifies the SBML component, e.g. `species "A"`.
	Component string
	// Message explains the decision.
	Message string
}

func (w Warning) String() string { return w.Component + ": " + w.Message }

// Stats summarizes a composition.
type Stats struct {
	// Merged counts second-model components recognized as duplicates.
	Merged int
	// Added counts second-model components appended to the result.
	Added int
	// Renamed counts second-model components renamed to avoid collisions.
	Renamed int
	// Conflicts counts conflicting duplicates resolved first-wins.
	Conflicts int
	// Duration is the wall-clock composition time.
	Duration time.Duration
}

// Match records that a second-model component was identified with a
// first-model component — the "matching" half of the paper's title. First
// and Second are the component ids in their respective models (equal when
// the models already agreed on the id).
type Match struct {
	First  string
	Second string
}

// Result is the outcome of a composition.
type Result struct {
	// Model is the composed model; inputs are never mutated.
	Model *sbml.Model
	// Warnings lists every conflict decision, in order.
	Warnings []Warning
	// Matches lists every identified component correspondence, in
	// composition order.
	Matches []Match
	// Mappings maps second-model ids to the first-model ids they merged
	// with ("add mapping" in Figure 5).
	Mappings map[string]string
	// Renames maps second-model ids to the fresh ids they received.
	Renames map[string]string
	// Stats summarizes the merge.
	Stats Stats
}

// composer carries the mutable state of one pairwise composition step. It
// merges the second model into the compiled accumulator, keeping the
// accumulator's indexes consistent as components land.
type composer struct {
	opts   Options
	acc    *CompiledModel // compiled accumulator; owns out and its indexes
	out    *sbml.Model    // the grown first model (acc's model)
	second *sbml.Model    // private clone of the second model, renamed in place
	res    *Result
	outIDs map[string]bool // all ids in out (acc's live id set), for fresh-name generation
	// initialValues holds the pre-collected initial value of every symbol
	// in each input model (§3: "the initial values of all component
	// attributes are collected before composition begins").
	firstValues  map[string]float64
	secondValues map[string]float64
	// secondIDs caches the second model's id set for fresh-name generation,
	// built on the first rename and maintained through later renames and
	// mappings so renameID stays O(1) instead of re-walking the model.
	secondIDs map[string]bool
	// mathWatch records each math-keyed component added this step with its
	// at-insert key, so repairMathKeys can detect keys a later rename
	// rewrote and rebuild only the affected families.
	mathWatch []watchedKey
}

// watchedKey is one math-keyed component inserted during the current step.
type watchedKey struct {
	key  string
	comp any // *FunctionDefinition, algebraic *Rule, *Constraint or *Event
}

// watchMath records a freshly indexed math-keyed component.
func (c *composer) watchMath(key string, comp any) {
	c.mathWatch = append(c.mathWatch, watchedKey{key: key, comp: comp})
}

// repairMathKeys re-derives the key of every math-keyed component the step
// inserted and rebuilds the families where a key drifted — the only way an
// accumulator index can go stale, since RenameSymbols touches only the
// second model, whose appended components alias the accumulator's. Callers
// that keep the accumulator past this step must invoke it after
// runPipeline; the scan is O(step additions) and skipped entirely when the
// step recorded no renames or mappings (keys cannot drift without a
// RenameSymbols call).
func (c *composer) repairMathKeys() {
	if len(c.res.Mappings) == 0 && len(c.res.Renames) == 0 {
		return
	}
	var funcs, algs, cons, events bool
	for _, w := range c.mathWatch {
		switch x := w.comp.(type) {
		case *sbml.FunctionDefinition:
			funcs = funcs || mathKeyFor(c.opts, x.Math) != w.key
		case *sbml.Rule:
			algs = algs || mathKeyFor(c.opts, x.Math) != w.key
		case *sbml.Constraint:
			cons = cons || mathKeyFor(c.opts, x.Math) != w.key
		case *sbml.Event:
			events = events || eventKeyFor(c.opts, x) != w.key
		}
	}
	if funcs || algs || cons || events {
		c.acc.rekeyMathIndexes(funcs, algs, cons, events)
	}
}

// newStepComposer wires a pairwise step against a compiled accumulator. The
// caller supplies secondValues (collected from the uncloned input, which is
// equivalent and avoids touching the clone twice). The first model's values
// come from the accumulator's incrementally-maintained map — frozen for the
// duration of the step, exactly like the scan the seed performed here —
// and callers that keep the accumulator flush the step's value changes
// afterwards (flushValues).
func newStepComposer(acc *CompiledModel, second *sbml.Model, res *Result) *composer {
	return &composer{
		opts:        acc.opts,
		acc:         acc,
		out:         acc.model,
		second:      second,
		res:         res,
		outIDs:      acc.ids,
		firstValues: acc.values,
	}
}

// runPipeline executes Figure 4's fixed composition order, checking ctx
// between component families (the stages are the step's natural units of
// work). On cancellation it stops before the next family and returns the
// context's error; families already composed have mutated the accumulator,
// so callers that keep the accumulator must treat a non-nil return as
// poisoning it. Callers that keep the accumulator beyond this step must
// also repair math-derived index keys afterwards (rekeyMathIndexes) if the
// step mapped or renamed ids; a one-shot Compose skips that, its indexes
// die with the call.
func (c *composer) runPipeline(ctx context.Context) error {
	stages := []func(){
		c.composeFunctionDefinitions,
		c.composeUnitDefinitions,
		c.composeCompartmentTypes,
		c.composeSpeciesTypes,
		c.composeCompartments,
		c.composeSpecies,
		c.composeParameters,
		c.composeInitialAssignments,
		c.composeRules,
		c.composeConstraints,
		c.composeReactions,
		c.composeEvents,
	}
	for _, stage := range stages {
		if err := ctx.Err(); err != nil {
			return err
		}
		stage()
	}
	return nil
}

// Compose merges model b into a copy of model a following Figures 4 and 5.
// Neither input is modified. The error is non-nil for nil inputs and for a
// cancelled ctx; model-level conflicts are resolved first-wins and reported
// as warnings. The pairwise step checks ctx between component families and
// returns ctx's error without producing a model when the context is done.
// All compiled state is private to the call, so a cancelled Compose leaves
// nothing half-mutated.
func Compose(ctx context.Context, a, b *sbml.Model, opts Options) (*Result, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("core: Compose requires two non-nil models (got %v, %v)", a != nil, b != nil)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	// Figure 5 lines 1-2: if one model is empty, return the other.
	if a.ComponentCount() == 0 {
		res := &Result{Model: b.Clone(), Mappings: map[string]string{}, Renames: map[string]string{}}
		res.Stats.Added = b.ComponentCount()
		res.Stats.Duration = time.Since(start)
		return res, nil
	}
	if b.ComponentCount() == 0 {
		res := &Result{Model: a.Clone(), Mappings: map[string]string{}, Renames: map[string]string{}}
		res.Stats.Duration = time.Since(start)
		return res, nil
	}

	res := &Result{Mappings: map[string]string{}, Renames: map[string]string{}}
	c := newStepComposer(compile(a.Clone(), opts), b.Clone(), res)
	c.secondValues = collectInitialValues(b)
	if err := c.runPipeline(ctx); err != nil {
		return nil, err
	}
	res.Model = c.out
	res.Stats.Duration = time.Since(start)
	return res, nil
}

// MatchModels computes the component correspondence between two models
// without producing a merged model: the matching problem of the paper's
// title, answered with the same machinery composition uses. The returned
// matches pair first-model ids with the second-model ids identified with
// them. ctx is checked like Compose.
func MatchModels(ctx context.Context, a, b *sbml.Model, opts Options) ([]Match, error) {
	res, err := Compose(ctx, a, b, opts)
	if err != nil {
		return nil, err
	}
	return res.Matches, nil
}

// ComposeAll batch-composes the models, supporting the incremental model
// assembly workflow the paper says semanticSBML cannot offer ("should a
// group of modelers be creating a large new model … it is not possible for
// the model to be built incrementally").
//
// It folds left-to-right through one persistent compiled
// accumulator, so each input model is matched against indexes that are
// updated in place rather than rebuilt every step. The fold checks ctx
// between component families of every Add. A cancelled call returns ctx's
// error and no model; the accumulator is private to the call, so nothing
// half-mutated escapes.
func ComposeAll(ctx context.Context, models []*sbml.Model, opts Options) (*Result, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("core: ComposeAll requires at least one model")
	}
	for i, m := range models {
		if m == nil {
			return nil, fmt.Errorf("core: ComposeAll model %d is nil", i)
		}
	}
	c := NewComposer(opts)
	for _, m := range models {
		if err := c.Add(ctx, m); err != nil {
			return nil, err
		}
	}
	return c.Result(), nil
}

// warn records a conflict decision and mirrors it to the log writer.
func (c *composer) warn(component, format string, args ...any) {
	w := Warning{Component: component, Message: fmt.Sprintf(format, args...)}
	c.res.Warnings = append(c.res.Warnings, w)
	if c.opts.Log != nil {
		fmt.Fprintf(c.opts.Log, "warning: %s\n", w)
	}
}

// note records an informational decision (e.g. a successful unit
// conversion) to the log only.
func (c *composer) note(component, format string, args ...any) {
	if c.opts.Log != nil {
		fmt.Fprintf(c.opts.Log, "info: %s: %s\n", component, fmt.Sprintf(format, args...))
	}
}

// mapID records that second-model id `from` now denotes `to` in the
// composed model, and rewrites the remaining second-model components so
// later comparisons see the mapped name (Figure 5 "add mapping" plus
// Figure 7's "after applying mappings").
func (c *composer) mapID(from, to string) {
	if from != "" && to != "" {
		c.res.Matches = append(c.res.Matches, Match{First: to, Second: from})
	}
	if from == to {
		return
	}
	c.res.Mappings[from] = to
	c.second.RenameSymbols(map[string]string{from: to})
	if c.secondIDs != nil {
		delete(c.secondIDs, from)
		c.secondIDs[to] = true
	}
}

// renameID gives a second-model component a fresh id derived from `from`
// and rewrites the second model accordingly. The fresh id must avoid both
// the composed model's ids and every id still pending in the second model:
// colliding with a pending id would make the in-place rename capture an
// unrelated component.
func (c *composer) renameID(from, component string) string {
	if c.secondIDs == nil {
		c.secondIDs = c.second.AllIDs()
	}
	fresh := from
	for i := 2; ; i++ {
		fresh = fmt.Sprintf("%s_m%d", from, i)
		if !c.outIDs[fresh] && !c.secondIDs[fresh] {
			break
		}
	}
	c.res.Renames[from] = fresh
	c.second.RenameSymbols(map[string]string{from: fresh})
	delete(c.secondIDs, from)
	c.secondIDs[fresh] = true
	c.warn(component, "id %q already used in first model; renamed to %q", from, fresh)
	c.res.Stats.Renamed++
	return fresh
}

// claimID marks an id as used in the composed model.
func (c *composer) claimID(id string) {
	if id != "" {
		c.outIDs[id] = true
	}
}

// matchNames reports whether two component names/ids denote the same entity
// under the current semantics level.
func (c *composer) matchNames(a, b string) bool {
	if a == "" || b == "" {
		return false
	}
	switch c.opts.Semantics {
	case NoSemantics:
		return a == b
	case LightSemantics:
		return a == b || synonym.Normalize(a) == synonym.Normalize(b)
	default:
		if c.opts.Synonyms != nil {
			return c.opts.Synonyms.Match(a, b)
		}
		return a == b || synonym.Normalize(a) == synonym.Normalize(b)
	}
}

// canonicalName returns the index key for an entity name under the current
// semantics level.
func (c *composer) canonicalName(name string) string {
	return canonicalNameFor(c.opts, name)
}
