package core

// Tests for the compiled-model engine: the incremental fold must behave
// exactly like the seed's re-compose-from-scratch left fold, the compiled
// accumulator's in-place index updates must match a from-scratch rebuild
// after renames.

import (
	"context"
	"reflect"
	"testing"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/index"
	"sbmlcompose/internal/mathml"
	"sbmlcompose/internal/sbml"
)

// renameHeavyBatch generates synthetic models whose global parameters all
// collide (k1, k2, … with different random values), so every fold step
// renames components — the adversarial case for in-place index updates.
func renameHeavyBatch(t testing.TB, n int) []*sbml.Model {
	t.Helper()
	models := make([]*sbml.Model, n)
	for i := range models {
		models[i] = biomodels.Generate(biomodels.Config{
			ID:             "hard" + string(rune('a'+i)),
			Nodes:          12 + i,
			Edges:          18 + i,
			Seed:           int64(7000 + 13*i),
			VocabularySize: 60,
			Decorate:       true,
		})
	}
	return models
}

// seedFold replicates the seed's ComposeAll exactly: re-Compose the
// accumulator from scratch at every step and union the reports.
func seedFold(t testing.TB, models []*sbml.Model, opts Options) *Result {
	t.Helper()
	acc := &Result{Model: models[0].Clone(), Mappings: map[string]string{}, Renames: map[string]string{}}
	for _, m := range models[1:] {
		step, err := Compose(context.Background(), acc.Model, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		step.Warnings = append(acc.Warnings, step.Warnings...)
		step.Matches = append(acc.Matches, step.Matches...)
		for k, v := range acc.Mappings {
			step.Mappings[k] = v
		}
		for k, v := range acc.Renames {
			step.Renames[k] = v
		}
		step.Stats.Merged += acc.Stats.Merged
		step.Stats.Added += acc.Stats.Added
		step.Stats.Renamed += acc.Stats.Renamed
		step.Stats.Conflicts += acc.Stats.Conflicts
		acc = step
	}
	return acc
}

func modelBytes(m *sbml.Model) string {
	return sbml.WrapModel(m).ToXML().Canonical()
}

// equalResults compares everything except wall-clock Duration.
func equalResults(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if got, want := modelBytes(a.Model), modelBytes(b.Model); got != want {
		t.Errorf("%s: composed models differ", label)
	}
	if !reflect.DeepEqual(a.Warnings, b.Warnings) {
		t.Errorf("%s: warnings differ:\n%v\nvs\n%v", label, a.Warnings, b.Warnings)
	}
	if !reflect.DeepEqual(a.Matches, b.Matches) {
		t.Errorf("%s: matches differ:\n%v\nvs\n%v", label, a.Matches, b.Matches)
	}
	if !reflect.DeepEqual(a.Mappings, b.Mappings) {
		t.Errorf("%s: mappings differ:\n%v\nvs\n%v", label, a.Mappings, b.Mappings)
	}
	if !reflect.DeepEqual(a.Renames, b.Renames) {
		t.Errorf("%s: renames differ:\n%v\nvs\n%v", label, a.Renames, b.Renames)
	}
	sa, sb := a.Stats, b.Stats
	sa.Duration, sb.Duration = 0, 0
	if sa != sb {
		t.Errorf("%s: stats differ: %+v vs %+v", label, sa, sb)
	}
}

// TestComposeAllMatchesSeedFold pins the incremental compiled-accumulator
// fold to the seed's recompose-every-step behavior, across semantics levels
// and index kinds, on rename-heavy input.
func TestComposeAllMatchesSeedFold(t *testing.T) {
	models := renameHeavyBatch(t, 6)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"heavy-hash", Options{}},
		{"light-hash", Options{Semantics: LightSemantics}},
		{"none-hash", Options{Semantics: NoSemantics}},
		{"heavy-sorted", Options{Index: index.Sorted}},
		{"heavy-suffixtree", Options{Index: index.SuffixTree}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := seedFold(t, models, tc.opts)
			got, err := ComposeAll(context.Background(), models, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			equalResults(t, tc.name, got, want)
			if err := sbml.Check(got.Model); err != nil {
				t.Errorf("composed model invalid: %v", err)
			}
		})
	}
}

// TestComposerStreamingIncremental drives the exported streaming API and
// checks that composing through a persistent accumulator step by step gives
// the same model as pairwise Compose against a snapshot at every step —
// i.e. the in-place index updates never go stale between steps.
func TestComposerStreamingIncremental(t *testing.T) {
	models := renameHeavyBatch(t, 5)
	comp := NewComposer(Options{})
	if comp.Model() != nil || comp.Snapshot() != nil {
		t.Fatal("empty composer should have no model")
	}
	if err := comp.Add(context.Background(), nil); err == nil {
		t.Fatal("Add(nil) should error")
	}
	for i, m := range models {
		if i > 0 {
			// What a from-scratch compose of the current accumulator
			// snapshot would produce for this step.
			want, err := Compose(context.Background(), comp.Snapshot(), m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := comp.Add(context.Background(), m); err != nil {
				t.Fatal(err)
			}
			if got := modelBytes(comp.Model()); got != modelBytes(want.Model) {
				t.Fatalf("step %d: incremental accumulator diverged from from-scratch compose", i)
			}
		} else if err := comp.Add(context.Background(), m); err != nil {
			t.Fatal(err)
		}
	}
	if comp.Result().Model != comp.Model() {
		t.Error("Result().Model should be the live accumulator")
	}
}

// TestCompiledIndexesMatchRebuild composes rename-heavy models through one
// compiled accumulator, then recompiles the final model from scratch and
// checks every per-component-type index agrees: same key count, and every
// key of the rebuilt index resolves to the same component in the
// incrementally maintained one.
func TestCompiledIndexesMatchRebuild(t *testing.T) {
	models := renameHeavyBatch(t, 6)
	for _, opts := range []Options{{}, {Semantics: NoSemantics}} {
		comp := NewComposer(opts)
		for _, m := range models {
			if err := comp.Add(context.Background(), m); err != nil {
				t.Fatal(err)
			}
		}
		if comp.Result().Stats.Renamed == 0 {
			t.Fatal("batch should exercise renames")
		}
		inc := comp.acc
		fresh := compile(inc.model.Clone(), opts)
		compareCompiled(t, inc, fresh)

		// The live id set must match a recollection from the final model.
		if got, want := inc.ids, inc.model.AllIDs(); !reflect.DeepEqual(got, want) {
			t.Errorf("incremental id set diverged from AllIDs rebuild")
		}
	}
}

// compareCompiled asserts that the incrementally maintained compiled model
// and a from-scratch compile of the same underlying model index identically.
func compareCompiled(t *testing.T, inc, fresh *CompiledModel) {
	t.Helper()
	m := fresh.model
	type family struct {
		name       string
		inc, fresh index.Index
		keys       []string
		idOf       func(v any) string
	}
	var families []family
	add := func(name string, i, f index.Index, keys []string, idOf func(v any) string) {
		families = append(families, family{name, i, f, keys, idOf})
	}

	var funcKeys []string
	for _, fd := range m.FunctionDefinitions {
		funcKeys = append(funcKeys, mathKeyFor(fresh.opts, fd.Math))
	}
	add("functions", inc.funcIdx, fresh.funcIdx, funcKeys,
		func(v any) string { return v.(*sbml.FunctionDefinition).ID })

	var unitKeys []string
	for _, u := range m.UnitDefinitions {
		unitKeys = append(unitKeys, unitKey(u))
	}
	add("units", inc.unitIdx, fresh.unitIdx, unitKeys,
		func(v any) string { return v.(*sbml.UnitDefinition).ID })

	var compKeys []string
	for _, comp := range m.Compartments {
		compKeys = append(compKeys, "id:"+comp.ID)
	}
	add("compartments", inc.compIdx, fresh.compIdx, compKeys,
		func(v any) string { return v.(*sbml.Compartment).ID })

	var spKeys []string
	for _, s := range m.Species {
		spKeys = append(spKeys, speciesKeysFor(fresh.opts, s)...)
	}
	add("species", inc.speciesIdx, fresh.speciesIdx, spKeys,
		func(v any) string { return v.(*sbml.Species).ID })

	var rxKeys []string
	for _, r := range m.Reactions {
		rxKeys = append(rxKeys, reactionStructureKey(r))
	}
	add("reactions", inc.reactIdx, fresh.reactIdx, rxKeys,
		func(v any) string { return v.(*sbml.Reaction).ID })

	var evKeys []string
	for _, e := range m.Events {
		evKeys = append(evKeys, eventKeyFor(fresh.opts, e))
	}
	add("events", inc.eventIdx, fresh.eventIdx, evKeys,
		func(v any) string { return v.(*sbml.Event).ID })

	var conKeys []string
	for _, con := range m.Constraints {
		conKeys = append(conKeys, mathKeyFor(fresh.opts, con.Math))
	}
	add("constraints", inc.consIdx, fresh.consIdx, conKeys, nil)

	for _, f := range families {
		if f.inc.Len() != f.fresh.Len() {
			t.Errorf("%s: incremental index has %d keys, rebuild has %d", f.name, f.inc.Len(), f.fresh.Len())
		}
		for _, k := range f.keys {
			iv, iok := f.inc.Lookup(k)
			fv, fok := f.fresh.Lookup(k)
			if iok != fok {
				t.Errorf("%s: key %q present=%v in incremental, %v in rebuild", f.name, k, iok, fok)
				continue
			}
			if f.idOf != nil && iok && f.idOf(iv) != f.idOf(fv) {
				t.Errorf("%s: key %q resolves to %q incrementally but %q on rebuild",
					f.name, k, f.idOf(iv), f.idOf(fv))
			}
		}
	}
	if len(inc.params) != len(fresh.params) {
		t.Errorf("params: %d incremental vs %d rebuilt", len(inc.params), len(fresh.params))
	}
	if len(inc.rules) != len(fresh.rules) {
		t.Errorf("rules: %d incremental vs %d rebuilt", len(inc.rules), len(fresh.rules))
	}
	if len(inc.assigns) != len(fresh.assigns) {
		t.Errorf("assigns: %d incremental vs %d rebuilt", len(inc.assigns), len(fresh.assigns))
	}
}

// TestComposerFigure5EmptyCases covers the streaming equivalents of Figure
// 5 lines 1-2: empty accumulators and empty inputs short-circuit.
func TestComposerFigure5EmptyCases(t *testing.T) {
	empty := sbml.NewModel("empty")
	full := mkModel("full", []string{"A", "B"}, []string{"A>B:k1"})

	comp := NewComposer(Options{})
	if err := comp.Add(context.Background(), empty); err != nil {
		t.Fatal(err)
	}
	if err := comp.Add(context.Background(), full); err != nil {
		t.Fatal(err)
	}
	res := comp.Result()
	if res.Stats.Added != full.ComponentCount() {
		t.Errorf("empty-then-full: Added = %d, want %d", res.Stats.Added, full.ComponentCount())
	}
	if len(res.Model.Species) != 2 {
		t.Errorf("species = %d, want 2", len(res.Model.Species))
	}

	comp = NewComposer(Options{})
	if err := comp.Add(context.Background(), full); err != nil {
		t.Fatal(err)
	}
	if err := comp.Add(context.Background(), empty); err != nil {
		t.Fatal(err)
	}
	if got := comp.Result(); got.Stats.Added != 0 || len(got.Model.Species) != 2 {
		t.Errorf("full-then-empty: added=%d species=%d", got.Stats.Added, len(got.Model.Species))
	}

	// Both empty: the later model's identity wins, exactly as pairwise
	// Compose(empty, empty) returns the second model's clone.
	e1, e2 := sbml.NewModel("e1"), sbml.NewModel("e2")
	res2, err := ComposeAll(context.Background(), []*sbml.Model{e1, e2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Model.ID != "e2" {
		t.Errorf("empty+empty fold kept %q, want e2", res2.Model.ID)
	}
}

// TestNewComposerFrom seeds a streaming composer with a precompiled model.
func TestNewComposerFrom(t *testing.T) {
	base := mkModel("base", []string{"A", "B"}, []string{"A>B:k1"})
	cm, err := Compile(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(nil, Options{}); err == nil {
		t.Error("Compile(nil) should error")
	}
	if cm.Model() == base {
		t.Error("Compile must clone its input")
	}
	if got := cm.Options(); got != (Options{}) {
		t.Errorf("Options() = %+v", got)
	}

	comp := NewComposerFrom(cm)
	next := mkModel("next", []string{"B", "C"}, []string{"B>C:k2"})
	if err := comp.Add(context.Background(), next); err != nil {
		t.Fatal(err)
	}
	want, err := Compose(context.Background(), base, next, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if modelBytes(comp.Model()) != modelBytes(want.Model) {
		t.Error("composer seeded from Compile diverged from Compose")
	}
	// The original input stayed intact.
	if len(base.Species) != 2 {
		t.Errorf("input mutated: %d species", len(base.Species))
	}
}

// TestRekeyAfterMidStepRename pins the stale-key repair: a component added
// mid-step can have its math rewritten by a rename later in the same step
// (here a constraint referencing a reaction id that then collides and is
// renamed). The compiled accumulator must re-key it at step end, exactly as
// the seed's next-step rebuild did, so a later model carrying the
// post-rename constraint merges instead of duplicating.
func TestRekeyAfterMidStepRename(t *testing.T) {
	// m1: owns reaction id "r_A_B"; no constraint.
	m1 := mkModel("m1", []string{"A", "B"}, []string{"A>B:k1"})
	// m2: structurally different reaction under the same id → renamed to
	// r_A_B_m2 during the reaction phase, after m2's constraint
	// "r_A_B >= 0" was already added and indexed.
	m2 := mkModel("m2", []string{"C", "D"}, []string{"C>D:k2"})
	m2.Reactions[0].ID = "r_A_B"
	m2.Constraints = append(m2.Constraints, &sbml.Constraint{
		Math: mathml.Call("geq", mathml.S("r_A_B"), mathml.N(0)),
	})
	// m3: carries the constraint under the post-rename id.
	m3 := mkModel("m3", []string{"E"}, nil)
	m3.Constraints = append(m3.Constraints, &sbml.Constraint{
		Math: mathml.Call("geq", mathml.S("r_A_B_m2"), mathml.N(0)),
	})

	models := []*sbml.Model{m1, m2, m3}
	want := seedFold(t, models, Options{})
	got, err := ComposeAll(context.Background(), models, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Model.Constraints) != 1 {
		t.Fatalf("seed fold should merge to 1 constraint, got %d", len(want.Model.Constraints))
	}
	equalResults(t, "mid-step rename rekey", got, want)
}

// TestAdoptedLawParamsClaimed pins the id bookkeeping for kinetic-law
// adoption: when a merged reaction adopts the second model's law, the law's
// local parameter ids join the accumulator's namespace, so a later step's
// fresh-name generation must skip them — exactly what the seed's per-step
// AllIDs recollection did.
func TestAdoptedLawParamsClaimed(t *testing.T) {
	// m1: reaction without a kinetic law.
	m1 := mkModel("m1", []string{"A", "B"}, nil)
	m1.Reactions = append(m1.Reactions, &sbml.Reaction{
		ID:        "rx",
		Reactants: []*sbml.SpeciesReference{{Species: "A", Stoichiometry: 1}},
		Products:  []*sbml.SpeciesReference{{Species: "B", Stoichiometry: 1}},
	})
	// m2: structurally identical reaction whose adopted law carries a local
	// parameter occupying the first fresh-name slot for "P".
	m2 := mkModel("m2", []string{"A", "B"}, nil)
	m2.Reactions = append(m2.Reactions, &sbml.Reaction{
		ID:        "rx",
		Reactants: []*sbml.SpeciesReference{{Species: "A", Stoichiometry: 1}},
		Products:  []*sbml.SpeciesReference{{Species: "B", Stoichiometry: 1}},
		KineticLaw: &sbml.KineticLaw{
			Math:       mathml.Mul(mathml.S("P_m2"), mathml.S("A")),
			Parameters: []*sbml.Parameter{{ID: "P_m2", Value: 0.5, HasValue: true}},
		},
	})
	m2.Parameters = append(m2.Parameters, &sbml.Parameter{ID: "P", Value: 1, HasValue: true})
	// m3: conflicting "P" forces a rename, whose fresh name must not
	// collide with the adopted local "P_m2".
	m3 := mkModel("m3", []string{"C"}, nil)
	m3.Parameters = append(m3.Parameters, &sbml.Parameter{ID: "P", Value: 2, HasValue: true})

	models := []*sbml.Model{m1, m2, m3}
	want := seedFold(t, models, Options{})
	got, err := ComposeAll(context.Background(), models, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Renames["P"] != "P_m3" {
		t.Fatalf("seed fold renamed P to %q, expected P_m3 (test setup drifted)", want.Renames["P"])
	}
	equalResults(t, "adopted-law params", got, want)
}
