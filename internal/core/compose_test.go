package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"sbmlcompose/internal/index"
	"sbmlcompose/internal/mathml"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/synonym"
	"sbmlcompose/internal/units"
)

func TestSynonymousSpeciesMerge(t *testing.T) {
	a := mkModel("m1", nil, nil)
	a.Species = append(a.Species, &sbml.Species{
		ID: "glucose", Name: "glucose", Compartment: "cell",
		InitialConcentration: 2, HasInitialConcentration: true,
	})
	b := mkModel("m2", nil, nil)
	b.Species = append(b.Species, &sbml.Species{
		ID: "dex", Name: "dextrose", Compartment: "cell",
		InitialConcentration: 2, HasInitialConcentration: true,
	})
	tab := synonym.NewTable()
	tab.Add("glucose", "dextrose")
	res := compose(t, a, b, Options{Synonyms: tab})
	if len(res.Model.Species) != 1 {
		t.Fatalf("synonymous species should merge, got %d", len(res.Model.Species))
	}
	if res.Mappings["dex"] != "glucose" {
		t.Errorf("mapping = %v", res.Mappings)
	}
	// Without the table they stay distinct.
	res = compose(t, a, b, Options{})
	if len(res.Model.Species) != 2 {
		t.Errorf("without synonyms: %d species", len(res.Model.Species))
	}
}

func TestSpeciesMappingRewritesReactions(t *testing.T) {
	// Model 2 calls the species "G"; after matching via name, its reaction
	// must reference model 1's id.
	a := mkModel("m1", nil, nil)
	a.Species = append(a.Species, &sbml.Species{
		ID: "glc", Name: "glucose", Compartment: "cell",
		InitialConcentration: 1, HasInitialConcentration: true,
	})
	b := mkModel("m2", []string{"P"}, nil)
	b.Species = append(b.Species, &sbml.Species{
		ID: "G", Name: "glucose", Compartment: "cell",
		InitialConcentration: 1, HasInitialConcentration: true,
	})
	b.Parameters = append(b.Parameters, &sbml.Parameter{ID: "k", Value: 0.3, HasValue: true, Constant: true})
	b.Reactions = append(b.Reactions, &sbml.Reaction{
		ID:         "conv",
		Reactants:  []*sbml.SpeciesReference{{Species: "G", Stoichiometry: 1}},
		Products:   []*sbml.SpeciesReference{{Species: "P", Stoichiometry: 1}},
		KineticLaw: &sbml.KineticLaw{Math: mathml.MustParseInfix("k*G")},
	})
	res := compose(t, a, b, Options{})
	m := res.Model
	if len(m.Species) != 2 { // glucose merged + P added
		t.Fatalf("species = %d, want 2", len(m.Species))
	}
	r := m.ReactionByID("conv")
	if r == nil {
		t.Fatal("reaction lost")
	}
	if r.Reactants[0].Species != "glc" {
		t.Errorf("reactant = %q, want glc", r.Reactants[0].Species)
	}
	if got := mathml.FormatInfix(r.KineticLaw.Math); !strings.Contains(got, "glc") {
		t.Errorf("kinetic law not remapped: %s", got)
	}
}

func TestSpeciesDifferentCompartmentsStayDistinct(t *testing.T) {
	a := mkModel("m1", nil, nil)
	a.Species = append(a.Species, &sbml.Species{ID: "Ca", Name: "calcium", Compartment: "cell"})
	b := sbml.NewModel("m2")
	b.Compartments = append(b.Compartments, &sbml.Compartment{ID: "er", SpatialDimensions: 3, Size: 0.1, HasSize: true, Constant: true})
	b.Species = append(b.Species, &sbml.Species{ID: "Ca", Name: "calcium", Compartment: "er"})
	res := compose(t, a, b, Options{})
	if len(res.Model.Species) != 2 {
		t.Fatalf("species in different compartments must not merge: %d", len(res.Model.Species))
	}
	// The colliding id must have been renamed.
	if res.Renames["Ca"] == "" {
		t.Errorf("expected rename, got %v", res.Renames)
	}
}

func TestInitialValueConflictWarns(t *testing.T) {
	a := mkModel("m1", []string{"A"}, nil)
	b := mkModel("m2", []string{"A"}, nil)
	b.Species[0].InitialConcentration = 5
	var log strings.Builder
	res := compose(t, a, b, Options{Log: &log})
	if len(res.Warnings) != 1 || !strings.Contains(res.Warnings[0].Message, "initial value conflict") {
		t.Fatalf("warnings = %v", res.Warnings)
	}
	// First model wins.
	if res.Model.Species[0].InitialConcentration != 1 {
		t.Errorf("value = %g, want first model's 1", res.Model.Species[0].InitialConcentration)
	}
	if !strings.Contains(log.String(), "warning:") {
		t.Errorf("log = %q", log.String())
	}
	if res.Stats.Conflicts != 1 {
		t.Errorf("conflicts = %d", res.Stats.Conflicts)
	}
}

func TestAmountVsConcentrationConversion(t *testing.T) {
	// First model: concentration 2 mol/L in a 0.5 L compartment. Second:
	// amount 1 mol in the same compartment. 1/0.5 = 2 → no conflict.
	a := mkModel("m1", nil, nil)
	a.Compartments[0].Size = 0.5
	a.Species = append(a.Species, &sbml.Species{
		ID: "S", Compartment: "cell", InitialConcentration: 2, HasInitialConcentration: true,
	})
	b := mkModel("m2", nil, nil)
	b.Compartments[0].Size = 0.5
	b.Species = append(b.Species, &sbml.Species{
		ID: "S", Compartment: "cell", InitialAmount: 1, HasInitialAmount: true,
	})
	res := compose(t, a, b, Options{})
	if len(res.Warnings) != 0 {
		t.Errorf("amount/concentration agreement should not warn: %v", res.Warnings)
	}
	// A genuinely different amount must warn.
	b.Species[0].InitialAmount = 3
	res = compose(t, a, b, Options{})
	if len(res.Warnings) != 1 {
		t.Errorf("expected conflict warning, got %v", res.Warnings)
	}
}

func TestMoleculeCountConversion(t *testing.T) {
	// Second model counts molecules (substanceUnits=item): N = nA·c·V.
	const conc, vol = 1e-6, 1e-15
	count := units.Avogadro * conc * vol
	a := mkModel("m1", nil, nil)
	a.Compartments[0].Size = vol
	a.Species = append(a.Species, &sbml.Species{
		ID: "S", Compartment: "cell", InitialConcentration: conc, HasInitialConcentration: true,
	})
	b := mkModel("m2", nil, nil)
	b.Compartments[0].Size = vol
	b.Species = append(b.Species, &sbml.Species{
		ID: "S", Compartment: "cell", InitialAmount: count, HasInitialAmount: true,
		SubstanceUnits: "item",
	})
	res := compose(t, a, b, Options{})
	if len(res.Warnings) != 0 {
		t.Errorf("mole/molecule agreement should not warn: %v", res.Warnings)
	}
	// Light semantics performs no basis conversion → conflict.
	res = compose(t, a, b, Options{Semantics: LightSemantics})
	if len(res.Warnings) == 0 {
		t.Error("light semantics should flag the raw mismatch")
	}
}

func TestRateConstantFigure6Conversion(t *testing.T) {
	// Two second-order models: one in concentration units, one in
	// molecules. k_molecules = k_moles/(nA·V) must be recognized as the
	// same constant.
	const kMoles, vol = 1e6, 1e-15
	kMolecules := kMoles / (units.Avogadro * vol)

	build := func(id string, k float64, inItems bool) *sbml.Model {
		m := sbml.NewModel(id)
		m.Compartments = append(m.Compartments, &sbml.Compartment{ID: "cell", SpatialDimensions: 3, Size: vol, HasSize: true, Constant: true})
		su := ""
		if inItems {
			su = "item"
		}
		for _, sid := range []string{"X", "Y", "Z"} {
			m.Species = append(m.Species, &sbml.Species{
				ID: sid, Compartment: "cell", InitialConcentration: 1, HasInitialConcentration: true,
				SubstanceUnits: su,
			})
		}
		m.Reactions = append(m.Reactions, &sbml.Reaction{
			ID:        "bind",
			Reactants: []*sbml.SpeciesReference{{Species: "X", Stoichiometry: 1}, {Species: "Y", Stoichiometry: 1}},
			Products:  []*sbml.SpeciesReference{{Species: "Z", Stoichiometry: 1}},
			KineticLaw: &sbml.KineticLaw{
				Math:       mathml.MustParseInfix("k2*X*Y"),
				Parameters: []*sbml.Parameter{{ID: "k2", Value: k, HasValue: true, Constant: true}},
			},
		})
		return m
	}
	a := build("m1", kMoles, false)
	b := build("m2", kMolecules, true)
	var log strings.Builder
	res := compose(t, a, b, Options{Log: &log})
	if len(res.Warnings) != 0 {
		t.Errorf("Figure 6 conversion should reconcile the constants: %v", res.Warnings)
	}
	if !strings.Contains(log.String(), "conversion") {
		t.Errorf("expected a conversion note in the log: %q", log.String())
	}
	// A genuinely different constant must still conflict.
	b2 := build("m3", kMolecules*7, true)
	res = compose(t, a, b2, Options{})
	if len(res.Warnings) == 0 {
		t.Error("wrong constant should conflict")
	}
}

func TestParameterRules(t *testing.T) {
	a := mkModel("m1", nil, nil)
	a.Parameters = append(a.Parameters, &sbml.Parameter{ID: "k", Value: 1, HasValue: true, Constant: true})
	// Same id, same value → merge.
	b := mkModel("m2", nil, nil)
	b.Parameters = append(b.Parameters, &sbml.Parameter{ID: "k", Value: 1, HasValue: true, Constant: true})
	res := compose(t, a, b, Options{})
	if len(res.Model.Parameters) != 1 {
		t.Errorf("identical parameters should merge: %d", len(res.Model.Parameters))
	}
	// Same id, different value → both kept, second renamed ("if two
	// parameters have the same name, then one is renamed").
	b.Parameters[0].Value = 2
	res = compose(t, a, b, Options{})
	if len(res.Model.Parameters) != 2 {
		t.Fatalf("conflicting parameters should both survive: %d", len(res.Model.Parameters))
	}
	renamed := res.Renames["k"]
	if renamed == "" || res.Model.ParameterByID(renamed) == nil {
		t.Errorf("rename = %v", res.Renames)
	}
	if res.Model.ParameterByID(renamed).Value != 2 {
		t.Error("renamed parameter lost its value")
	}
}

func TestParameterRenameRewritesKineticLaw(t *testing.T) {
	a := mkModel("m1", []string{"A", "B"}, []string{"A>B:k1"})
	b := mkModel("m2", []string{"P", "Q"}, []string{"P>Q:k1"})
	// Same parameter id k1 but different value in model 2.
	b.ParameterByID("k1").Value = 99
	res := compose(t, a, b, Options{})
	fresh := res.Renames["k1"]
	if fresh == "" {
		t.Fatalf("expected k1 rename, got %v", res.Renames)
	}
	r := res.Model.ReactionByID("r_P_Q")
	if r == nil {
		t.Fatal("model-2 reaction lost")
	}
	if got := mathml.FormatInfix(r.KineticLaw.Math); !strings.Contains(got, fresh) {
		t.Errorf("kinetic law should use renamed parameter: %s", got)
	}
}

func TestFunctionDefinitionsMergeByPattern(t *testing.T) {
	a := sbml.NewModel("m1")
	a.FunctionDefinitions = append(a.FunctionDefinitions, &sbml.FunctionDefinition{
		ID: "mm", Math: mathml.Lambda{Params: []string{"s", "v", "km"}, Body: mathml.MustParseInfix("v*s/(km+s)")},
	})
	b := sbml.NewModel("m2")
	b.FunctionDefinitions = append(b.FunctionDefinitions, &sbml.FunctionDefinition{
		// Alpha-equivalent with commuted operands and a different id.
		ID: "menten", Math: mathml.Lambda{Params: []string{"x", "vm", "k"}, Body: mathml.MustParseInfix("x*vm/(x+k)")},
	})
	res := compose(t, a, b, Options{})
	if len(res.Model.FunctionDefinitions) != 1 {
		t.Fatalf("equivalent lambdas should merge: %d", len(res.Model.FunctionDefinitions))
	}
	if res.Mappings["menten"] != "mm" {
		t.Errorf("mapping = %v", res.Mappings)
	}
}

func TestUnitDefinitionsMergeByCanonicalForm(t *testing.T) {
	a := sbml.NewModel("m1")
	a.UnitDefinitions = append(a.UnitDefinitions, &sbml.UnitDefinition{
		ID: "molar", Units: []units.Unit{
			{Kind: "mole", Exponent: 1, Multiplier: 1},
			{Kind: "litre", Exponent: -1, Multiplier: 1},
		},
	})
	b := sbml.NewModel("m2")
	b.UnitDefinitions = append(b.UnitDefinitions, &sbml.UnitDefinition{
		ID: "conc_unit", Units: []units.Unit{
			{Kind: "litre", Exponent: -1, Multiplier: 1},
			{Kind: "mole", Exponent: 1, Multiplier: 1},
		},
	})
	res := compose(t, a, b, Options{})
	if len(res.Model.UnitDefinitions) != 1 {
		t.Fatalf("equivalent units should merge: %d", len(res.Model.UnitDefinitions))
	}
	if res.Mappings["conc_unit"] != "molar" {
		t.Errorf("mapping = %v", res.Mappings)
	}
}

func TestRulesAndConstraints(t *testing.T) {
	a := mkModel("m1", []string{"A"}, nil)
	a.Parameters = append(a.Parameters, &sbml.Parameter{ID: "p", Constant: false})
	a.Rules = append(a.Rules, &sbml.Rule{Kind: sbml.AssignmentRule, Variable: "p", Math: mathml.MustParseInfix("A*2")})
	a.Constraints = append(a.Constraints, &sbml.Constraint{Math: mathml.MustParseInfix("A >= 0")})

	// Identical (commuted) rule and constraint merge silently.
	b := mkModel("m2", []string{"A"}, nil)
	b.Parameters = append(b.Parameters, &sbml.Parameter{ID: "p", Constant: false})
	b.Rules = append(b.Rules, &sbml.Rule{Kind: sbml.AssignmentRule, Variable: "p", Math: mathml.MustParseInfix("2*A")})
	b.Constraints = append(b.Constraints, &sbml.Constraint{Math: mathml.MustParseInfix("A >= 0")})
	res := compose(t, a, b, Options{})
	if len(res.Model.Rules) != 1 || len(res.Model.Constraints) != 1 {
		t.Fatalf("rules=%d constraints=%d, want 1/1", len(res.Model.Rules), len(res.Model.Constraints))
	}
	if len(res.Warnings) != 0 {
		t.Errorf("warnings = %v", res.Warnings)
	}

	// Conflicting rule for the same variable warns, first wins.
	b.Rules[0].Math = mathml.MustParseInfix("A*3")
	res = compose(t, a, b, Options{})
	if len(res.Model.Rules) != 1 {
		t.Fatalf("conflicting rules must not duplicate: %d", len(res.Model.Rules))
	}
	if len(res.Warnings) == 0 || !strings.Contains(res.Warnings[0].Message, "conflicting rules") {
		t.Errorf("warnings = %v", res.Warnings)
	}
	if got := mathml.FormatInfix(res.Model.Rules[0].Math); got != "A * 2" {
		t.Errorf("first rule should win, got %s", got)
	}

	// A different constraint is added.
	b.Constraints[0].Math = mathml.MustParseInfix("A <= 100")
	res = compose(t, a, b, Options{})
	if len(res.Model.Constraints) != 2 {
		t.Errorf("constraints = %d, want 2", len(res.Model.Constraints))
	}
}

func TestInitialAssignments(t *testing.T) {
	a := mkModel("m1", nil, nil)
	a.Parameters = append(a.Parameters, &sbml.Parameter{ID: "x", Constant: true})
	a.InitialAssignments = append(a.InitialAssignments, &sbml.InitialAssignment{
		Symbol: "x", Math: mathml.MustParseInfix("2 + 3"),
	})
	// Syntactically different but equal value → merge with note, no warning.
	b := mkModel("m2", nil, nil)
	b.Parameters = append(b.Parameters, &sbml.Parameter{ID: "x", Constant: true})
	b.InitialAssignments = append(b.InitialAssignments, &sbml.InitialAssignment{
		Symbol: "x", Math: mathml.MustParseInfix("5"),
	})
	res := compose(t, a, b, Options{})
	if len(res.Model.InitialAssignments) != 1 {
		t.Fatalf("assignments = %d", len(res.Model.InitialAssignments))
	}
	if len(res.Warnings) != 0 {
		t.Errorf("equal-valued assignments should not warn: %v", res.Warnings)
	}
	// Different value → conflict, first wins.
	b.InitialAssignments[0].Math = mathml.MustParseInfix("7")
	res = compose(t, a, b, Options{})
	if len(res.Warnings) != 1 || !strings.Contains(res.Warnings[0].Message, "conflicting initial assignments") {
		t.Errorf("warnings = %v", res.Warnings)
	}
}

func TestEventsMergeAndAdd(t *testing.T) {
	mkEvent := func(id, trigger string) *sbml.Event {
		return &sbml.Event{
			ID:      id,
			Trigger: mathml.MustParseInfix(trigger),
			Assignments: []*sbml.EventAssignment{
				{Variable: "A", Math: mathml.N(0)},
			},
		}
	}
	a := mkModel("m1", []string{"A"}, nil)
	a.Species[0].Constant = false
	a.Events = append(a.Events, mkEvent("e1", "A > 10"))
	b := mkModel("m2", []string{"A"}, nil)
	b.Species[0].Constant = false
	b.Events = append(b.Events, mkEvent("shutdown", "A > 10")) // same semantics
	res := compose(t, a, b, Options{})
	if len(res.Model.Events) != 1 {
		t.Errorf("identical events should merge: %d", len(res.Model.Events))
	}
	b.Events[0].Trigger = mathml.MustParseInfix("A > 20")
	res = compose(t, a, b, Options{})
	if len(res.Model.Events) != 2 {
		t.Errorf("different events should both survive: %d", len(res.Model.Events))
	}
}

func TestReactionIDCollisionDifferentStructure(t *testing.T) {
	a := mkModel("m1", []string{"A", "B"}, []string{"A>B:k1"})
	b := mkModel("m2", []string{"X", "Y"}, nil)
	b.Parameters = append(b.Parameters, &sbml.Parameter{ID: "kx", Value: 1, HasValue: true, Constant: true})
	b.Reactions = append(b.Reactions, &sbml.Reaction{
		ID:         "r_A_B", // clashes with a's reaction id but different chemistry
		Reactants:  []*sbml.SpeciesReference{{Species: "X", Stoichiometry: 1}},
		Products:   []*sbml.SpeciesReference{{Species: "Y", Stoichiometry: 1}},
		KineticLaw: &sbml.KineticLaw{Math: mathml.MustParseInfix("kx*X")},
	})
	res := compose(t, a, b, Options{})
	if len(res.Model.Reactions) != 2 {
		t.Fatalf("reactions = %d", len(res.Model.Reactions))
	}
	if res.Renames["r_A_B"] == "" {
		t.Errorf("expected reaction rename, got %v", res.Renames)
	}
}

func TestSemanticsLevels(t *testing.T) {
	tab := synonym.NewTable()
	tab.Add("glucose", "dextrose")
	mk := func(id, spName string) *sbml.Model {
		m := mkModel(id, nil, nil)
		m.Species = append(m.Species, &sbml.Species{
			ID: spName, Name: spName, Compartment: "cell",
			InitialConcentration: 1, HasInitialConcentration: true,
		})
		return m
	}
	a, b := mk("m1", "glucose"), mk("m2", "dextrose")
	// Heavy merges via synonym table.
	res := compose(t, a, b, Options{Semantics: HeavySemantics, Synonyms: tab})
	if len(res.Model.Species) != 1 {
		t.Errorf("heavy: %d species", len(res.Model.Species))
	}
	// Light does not.
	res = compose(t, a, b, Options{Semantics: LightSemantics, Synonyms: tab})
	if len(res.Model.Species) != 2 {
		t.Errorf("light: %d species", len(res.Model.Species))
	}
	// None requires exact math too: commuted kinetic laws stop merging.
	a2 := mkModel("m1", []string{"A", "B"}, nil)
	a2.Parameters = append(a2.Parameters, &sbml.Parameter{ID: "k", Value: 1, HasValue: true, Constant: true})
	a2.Reactions = append(a2.Reactions, &sbml.Reaction{
		ID:         "r1",
		Reactants:  []*sbml.SpeciesReference{{Species: "A", Stoichiometry: 1}},
		Products:   []*sbml.SpeciesReference{{Species: "B", Stoichiometry: 1}},
		KineticLaw: &sbml.KineticLaw{Math: mathml.MustParseInfix("k*A")},
	})
	b2 := a2.Clone()
	b2.ID = "m2"
	b2.Reactions[0].KineticLaw.Math = mathml.MustParseInfix("A*k")
	resNone := compose(t, a2, b2, Options{Semantics: NoSemantics})
	if len(resNone.Warnings) == 0 {
		t.Error("none-semantics should flag commuted laws as conflicting")
	}
	resLight := compose(t, a2, b2, Options{Semantics: LightSemantics})
	if len(resLight.Warnings) != 0 {
		t.Errorf("light semantics should accept commuted laws: %v", resLight.Warnings)
	}
}

func TestComposeAllIncremental(t *testing.T) {
	parts := []*sbml.Model{
		mkModel("p1", []string{"A", "B"}, []string{"A>B:k1"}),
		mkModel("p2", []string{"B", "C"}, []string{"B>C:k2"}),
		mkModel("p3", []string{"C", "D"}, []string{"C>D:k3"}),
	}
	res, err := ComposeAll(context.Background(), parts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sbml.Check(res.Model); err != nil {
		t.Fatal(err)
	}
	if len(res.Model.Species) != 4 || len(res.Model.Reactions) != 3 {
		t.Errorf("pipeline = %d species %d reactions", len(res.Model.Species), len(res.Model.Reactions))
	}
	if _, err := ComposeAll(context.Background(), nil, Options{}); err == nil {
		t.Error("empty ComposeAll should error")
	}
	single, err := ComposeAll(context.Background(), parts[:1], Options{})
	if err != nil || len(single.Model.Species) != 2 {
		t.Errorf("single-model fold: %v", err)
	}
}

func TestAllIndexKindsGiveSameResult(t *testing.T) {
	a := mkModel("m1", []string{"A", "B", "C"}, []string{"A>B:k1", "B>C:k2"})
	b := mkModel("m2", []string{"B", "C", "D"}, []string{"B>C:k2", "C>D:k3"})
	var canonical string
	for _, kind := range []index.Kind{index.Hash, index.Linear, index.Sorted, index.SuffixTree} {
		res := compose(t, a, b, Options{Index: kind})
		got := sbml.WrapModel(res.Model).ToXML().Canonical()
		if canonical == "" {
			canonical = got
			continue
		}
		if got != canonical {
			t.Errorf("index kind %s produced a different model", kind)
		}
	}
}

// randomModel builds a small random but valid model for property tests.
func randomModel(r *rand.Rand, id string) *sbml.Model {
	species := []string{"A", "B", "C", "D", "E", "F"}
	n := 2 + r.Intn(4)
	m := mkModel(id, species[:n], nil)
	for i := 0; i < r.Intn(5); i++ {
		from := species[r.Intn(n)]
		to := species[r.Intn(n)]
		if from == to {
			continue
		}
		k := "k" + string(rune('1'+r.Intn(3)))
		if m.ParameterByID(k) == nil {
			m.Parameters = append(m.Parameters, &sbml.Parameter{ID: k, Value: 0.1, HasValue: true, Constant: true})
		}
		rid := "r_" + from + "_" + to
		if m.ReactionByID(rid) != nil {
			continue
		}
		m.Reactions = append(m.Reactions, &sbml.Reaction{
			ID:         rid,
			Reactants:  []*sbml.SpeciesReference{{Species: from, Stoichiometry: 1}},
			Products:   []*sbml.SpeciesReference{{Species: to, Stoichiometry: 1}},
			KineticLaw: &sbml.KineticLaw{Math: mathml.Mul(mathml.S(k), mathml.S(from))},
		})
	}
	return m
}

func TestQuickComposeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomModel(r, "m")
		res, err := Compose(context.Background(), m, m, Options{})
		if err != nil {
			return false
		}
		return len(res.Model.Species) == len(m.Species) &&
			len(res.Model.Reactions) == len(m.Reactions) &&
			len(res.Model.Parameters) == len(m.Parameters) &&
			len(res.Warnings) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickComposePreservesValidity(t *testing.T) {
	f := func(s1, s2 int64) bool {
		a := randomModel(rand.New(rand.NewSource(s1)), "a")
		b := randomModel(rand.New(rand.NewSource(s2)), "b")
		res, err := Compose(context.Background(), a, b, Options{})
		if err != nil {
			return false
		}
		return sbml.Check(res.Model) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickComposeSizeBounds(t *testing.T) {
	f := func(s1, s2 int64) bool {
		a := randomModel(rand.New(rand.NewSource(s1)), "a")
		b := randomModel(rand.New(rand.NewSource(s2)), "b")
		res, err := Compose(context.Background(), a, b, Options{})
		if err != nil {
			return false
		}
		n := len(res.Model.Species)
		// Union bounds: max(|a|,|b|) ≤ |a∪b| ≤ |a|+|b|.
		lo, hi := len(a.Species), len(a.Species)+len(b.Species)
		if len(b.Species) > lo {
			lo = len(b.Species)
		}
		return n >= lo && n <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickComposeCommutativeSizes(t *testing.T) {
	f := func(s1, s2 int64) bool {
		a := randomModel(rand.New(rand.NewSource(s1)), "a")
		b := randomModel(rand.New(rand.NewSource(s2)), "b")
		ab, err1 := Compose(context.Background(), a, b, Options{})
		ba, err2 := Compose(context.Background(), b, a, Options{})
		if err1 != nil || err2 != nil {
			return false
		}
		return len(ab.Model.Species) == len(ba.Model.Species) &&
			len(ab.Model.Reactions) == len(ba.Model.Reactions)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
