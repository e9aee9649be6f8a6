package core

import (
	"context"
	"testing"

	"sbmlcompose/internal/mathml"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/synonym"
	"sbmlcompose/internal/units"
)

func TestCompartmentAndSpeciesTypesMerge(t *testing.T) {
	mk := func(id, ctID, ctName, stID string) *sbml.Model {
		m := mkModel(id, nil, nil)
		m.CompartmentTypes = append(m.CompartmentTypes, &sbml.CompartmentType{ID: ctID, Name: ctName})
		m.SpeciesTypes = append(m.SpeciesTypes, &sbml.SpeciesType{ID: stID})
		return m
	}
	// Same ids merge.
	res := compose(t, mk("a", "membrane", "", "protein"), mk("b", "membrane", "", "protein"), Options{})
	if len(res.Model.CompartmentTypes) != 1 || len(res.Model.SpeciesTypes) != 1 {
		t.Errorf("same-id types did not merge: %d/%d",
			len(res.Model.CompartmentTypes), len(res.Model.SpeciesTypes))
	}
	// Different id but same name merges via the name key.
	res = compose(t, mk("a", "ct1", "membrane bound", "protein"),
		mk("b", "ct2", "membrane-bound", "protein"), Options{})
	if len(res.Model.CompartmentTypes) != 1 {
		t.Errorf("name-matched compartment types did not merge: %d", len(res.Model.CompartmentTypes))
	}
	if res.Mappings["ct2"] != "ct1" {
		t.Errorf("mappings = %v", res.Mappings)
	}
	// Different id and name: both kept.
	res = compose(t, mk("a", "ct1", "membrane", "st1"), mk("b", "ct2", "vesicle", "st2"), Options{})
	if len(res.Model.CompartmentTypes) != 2 || len(res.Model.SpeciesTypes) != 2 {
		t.Errorf("distinct types merged wrongly: %d/%d",
			len(res.Model.CompartmentTypes), len(res.Model.SpeciesTypes))
	}
	// Same id but... id always wins; rename path: id clash where name differs
	// is impossible for types (id match implies merge), so no rename here.
}

func TestFunctionDefinitionIDClashDifferentBody(t *testing.T) {
	mk := func(id, body string) *sbml.Model {
		m := sbml.NewModel(id)
		m.FunctionDefinitions = append(m.FunctionDefinitions, &sbml.FunctionDefinition{
			ID: "f", Math: mathml.Lambda{Params: []string{"x"}, Body: mathml.MustParseInfix(body)},
		})
		return m
	}
	res := compose(t, mk("a", "x*2"), mk("b", "x*3"), Options{})
	if len(res.Model.FunctionDefinitions) != 2 {
		t.Fatalf("different-bodied functions must both survive: %d", len(res.Model.FunctionDefinitions))
	}
	if res.Renames["f"] == "" {
		t.Errorf("expected rename: %v", res.Renames)
	}
}

func TestAlgebraicRulesMergeByPattern(t *testing.T) {
	mk := func(id, expr string) *sbml.Model {
		m := mkModel(id, []string{"A", "B"}, nil)
		m.Rules = append(m.Rules, &sbml.Rule{Kind: sbml.AlgebraicRule, Math: mathml.MustParseInfix(expr)})
		return m
	}
	// Commuted algebraic rules merge.
	res := compose(t, mk("a", "A + B - 1"), mk("b", "B + A - 1"), Options{})
	if len(res.Model.Rules) != 1 {
		t.Errorf("rules = %d, want 1", len(res.Model.Rules))
	}
	// Different algebraic rules both survive.
	res = compose(t, mk("a", "A + B - 1"), mk("b", "A - B"), Options{})
	if len(res.Model.Rules) != 2 {
		t.Errorf("rules = %d, want 2", len(res.Model.Rules))
	}
}

func TestRateRuleVsAssignmentRuleDistinct(t *testing.T) {
	a := mkModel("a", []string{"A"}, nil)
	a.Species[0].Constant = false
	a.Rules = append(a.Rules, &sbml.Rule{Kind: sbml.RateRule, Variable: "A", Math: mathml.N(1)})
	b := mkModel("b", []string{"A"}, nil)
	b.Species[0].Constant = false
	b.Rules = append(b.Rules, &sbml.Rule{Kind: sbml.AssignmentRule, Variable: "A", Math: mathml.N(1)})
	res, err := Compose(context.Background(), a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Different kinds for the same variable are distinct components; both
	// survive (the result is semantically invalid SBML, which Validate
	// reports — but the composer's job is to preserve, not to drop).
	if len(res.Model.Rules) != 2 {
		t.Errorf("rules = %d, want 2", len(res.Model.Rules))
	}
}

func TestParameterUnitsDisagreementRenames(t *testing.T) {
	mk := func(id, unitsRef string) *sbml.Model {
		m := mkModel(id, nil, nil)
		m.UnitDefinitions = append(m.UnitDefinitions,
			&sbml.UnitDefinition{ID: "per_second", Units: []units.Unit{{Kind: "second", Exponent: -1, Multiplier: 1}}},
			&sbml.UnitDefinition{ID: "per_minute", Units: []units.Unit{{Kind: "second", Exponent: -1, Multiplier: 60}}},
		)
		m.Parameters = append(m.Parameters, &sbml.Parameter{ID: "k", Value: 1, HasValue: true, Units: unitsRef, Constant: true})
		return m
	}
	// Same value, same units → merge.
	res := compose(t, mk("a", "per_second"), mk("b", "per_second"), Options{})
	if len(res.Model.Parameters) != 1 {
		t.Errorf("same-unit params = %d, want 1", len(res.Model.Parameters))
	}
	// Same value, different units → rename (they are different quantities).
	res = compose(t, mk("a", "per_second"), mk("b", "per_minute"), Options{})
	if len(res.Model.Parameters) != 2 {
		t.Errorf("different-unit params = %d, want 2", len(res.Model.Parameters))
	}
	// Unit reference to a base kind resolves too.
	res = compose(t, mk("a", "second"), mk("b", "second"), Options{})
	if len(res.Model.Parameters) != 1 {
		t.Errorf("base-kind params = %d, want 1", len(res.Model.Parameters))
	}
}

func TestMatchNamesSemanticsLevels(t *testing.T) {
	tab := synonym.NewTable()
	tab.Add("glucose", "dextrose")
	c := &composer{opts: Options{Semantics: HeavySemantics, Synonyms: tab}}
	if !c.matchNames("glucose", "dextrose") {
		t.Error("heavy+table should match synonyms")
	}
	if !c.matchNames("Glucose", "glucose") {
		t.Error("case-insensitive match failed")
	}
	if c.matchNames("", "x") || c.matchNames("x", "") {
		t.Error("empty names must not match")
	}
	c.opts = Options{Semantics: HeavySemantics} // heavy without table
	if !c.matchNames("D-Glucose", "d glucose") {
		t.Error("heavy without table should normalize")
	}
	c.opts = Options{Semantics: LightSemantics, Synonyms: tab}
	if c.matchNames("glucose", "dextrose") {
		t.Error("light must ignore the synonym table")
	}
	if !c.matchNames("A B", "a-b") {
		t.Error("light should still normalize")
	}
	c.opts = Options{Semantics: NoSemantics}
	if c.matchNames("Glucose", "glucose") {
		t.Error("none must be exact")
	}
	if !c.matchNames("x", "x") {
		t.Error("none should match identical")
	}
}

func TestReactionBasisProductsOnly(t *testing.T) {
	// Zeroth-order reaction: basis comes from the product species.
	m := mkModel("m", nil, nil)
	m.Species = append(m.Species, &sbml.Species{
		ID: "X", Compartment: "cell", InitialAmount: 10, HasInitialAmount: true,
		SubstanceUnits: "item",
	})
	r := &sbml.Reaction{
		ID:       "synth",
		Products: []*sbml.SpeciesReference{{Species: "X", Stoichiometry: 1}},
	}
	if got := reactionBasis(m, r); got != units.Molecules {
		t.Errorf("basis = %v, want molecules", got)
	}
	// No species resolvable → default moles.
	empty := &sbml.Reaction{ID: "none"}
	if got := reactionBasis(m, empty); got != units.Moles {
		t.Errorf("empty reaction basis = %v, want moles", got)
	}
}

func TestCompartmentVolumeDefaults(t *testing.T) {
	m := mkModel("m", nil, nil)
	if v := compartmentVolume(m, "cell"); v != 1 {
		t.Errorf("volume = %g", v)
	}
	if v := compartmentVolume(m, "missing"); v != 1 {
		t.Errorf("missing compartment volume = %g, want default 1", v)
	}
	m.Compartments[0].Size = 0.25
	if v := compartmentVolume(m, "cell"); v != 0.25 {
		t.Errorf("volume = %g, want 0.25", v)
	}
}

func TestRateConstantValueLookupOrder(t *testing.T) {
	m := mkModel("m", []string{"A", "B"}, []string{"A>B:k1"})
	r := m.Reactions[0]
	c := &composer{out: m, firstValues: collectInitialValues(m)}
	// Global parameter resolves.
	if v, ok := c.rateConstantValue(m, r, "k1", c.firstValues); !ok || v != 0.1 {
		t.Errorf("global lookup = %v %v", v, ok)
	}
	// Local parameter shadows.
	r.KineticLaw.Parameters = append(r.KineticLaw.Parameters,
		&sbml.Parameter{ID: "k1", Value: 9, HasValue: true, Constant: true})
	if v, ok := c.rateConstantValue(m, r, "k1", c.firstValues); !ok || v != 9 {
		t.Errorf("local lookup = %v %v", v, ok)
	}
	// Unknown id fails.
	if _, ok := c.rateConstantValue(m, r, "nope", c.firstValues); ok {
		t.Error("unknown id should not resolve")
	}
}

func TestDecomposeCarriesFunctionsAndEvents(t *testing.T) {
	m := mkModel("m", []string{"A", "B", "X", "Y"}, []string{"A>B:k1", "X>Y:k2"})
	m.FunctionDefinitions = append(m.FunctionDefinitions, &sbml.FunctionDefinition{
		ID: "dbl", Math: mathml.Lambda{Params: []string{"v"}, Body: mathml.MustParseInfix("v*2")},
	})
	// Make the first chain's law call the function.
	m.Reactions[0].KineticLaw.Math = mathml.MustParseInfix("dbl(k1)*A")
	m.Species[1].Constant = false // B
	m.Events = append(m.Events, &sbml.Event{
		ID:      "ev",
		Trigger: mathml.MustParseInfix("A > 5"),
		Assignments: []*sbml.EventAssignment{
			{Variable: "B", Math: mathml.N(0)},
		},
	})
	parts, err := Decompose(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 {
		t.Fatalf("parts = %d", len(parts))
	}
	// Part 1 (A,B) needs dbl and the event; part 2 (X,Y) needs neither.
	if parts[0].FunctionByID("dbl") == nil {
		t.Error("part 1 lost its function definition")
	}
	if len(parts[0].Events) != 1 {
		t.Errorf("part 1 events = %d", len(parts[0].Events))
	}
	if parts[1].FunctionByID("dbl") != nil {
		t.Error("part 2 should not carry the unused function")
	}
	if len(parts[1].Events) != 0 {
		t.Errorf("part 2 events = %d", len(parts[1].Events))
	}
	for _, p := range parts {
		if err := sbml.Check(p); err != nil {
			t.Errorf("part %s invalid: %v", p.ID, err)
		}
	}
}
