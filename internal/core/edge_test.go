package core

import (
	"context"
	"strings"
	"testing"

	"sbmlcompose/internal/mathml"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/units"
)

func TestReactionAdoptsKineticLawFromSecond(t *testing.T) {
	a := mkModel("m1", []string{"A", "B"}, nil)
	a.Reactions = append(a.Reactions, &sbml.Reaction{
		ID:        "r1",
		Reactants: []*sbml.SpeciesReference{{Species: "A", Stoichiometry: 1}},
		Products:  []*sbml.SpeciesReference{{Species: "B", Stoichiometry: 1}},
		// No kinetic law: the first model left it unspecified.
	})
	b := mkModel("m2", []string{"A", "B"}, []string{"A>B:k1"})
	var log strings.Builder
	res := compose(t, a, b, Options{Log: &log})
	r := res.Model.Reactions[0]
	if r.KineticLaw == nil || r.KineticLaw.Math == nil {
		t.Fatal("law not adopted from second model")
	}
	if !strings.Contains(log.String(), "adopted kinetic law") {
		t.Errorf("log = %q", log.String())
	}
}

func TestCompartmentAdoptsSizeFromSecond(t *testing.T) {
	a := mkModel("m1", []string{"A"}, nil)
	a.Compartments[0].HasSize = false
	a.Compartments[0].Size = 0
	b := mkModel("m2", []string{"A"}, nil)
	b.Compartments[0].Size = 2.5
	res := compose(t, a, b, Options{})
	comp := res.Model.CompartmentByID("cell")
	if !comp.HasSize || comp.Size != 2.5 {
		t.Errorf("size not adopted: %+v", comp)
	}
	if len(res.Warnings) != 0 {
		t.Errorf("adoption should not warn: %v", res.Warnings)
	}
}

func TestSpeciesAdoptsInitialValueFromSecond(t *testing.T) {
	a := mkModel("m1", nil, nil)
	a.Species = append(a.Species, &sbml.Species{ID: "S", Compartment: "cell"}) // no value
	b := mkModel("m2", nil, nil)
	b.Species = append(b.Species, &sbml.Species{
		ID: "S", Compartment: "cell", InitialConcentration: 4, HasInitialConcentration: true,
	})
	res := compose(t, a, b, Options{})
	s := res.Model.SpeciesByID("S")
	if !s.HasInitialConcentration || s.InitialConcentration != 4 {
		t.Errorf("value not adopted: %+v", s)
	}
	if len(res.Warnings) != 0 {
		t.Errorf("adoption should not warn: %v", res.Warnings)
	}
}

func TestUnitDefinitionUnknownKindStructuralKey(t *testing.T) {
	// Unknown base kinds can't canonicalize; the structural fallback key
	// still dedupes identical definitions and separates different ones.
	mk := func(id string, kind string) *sbml.Model {
		m := sbml.NewModel(id)
		m.UnitDefinitions = append(m.UnitDefinitions, &sbml.UnitDefinition{
			ID: "u", Units: []units.Unit{{Kind: kind, Exponent: 1, Multiplier: 1}},
		})
		return m
	}
	// Note: these models are structurally fine but semantically invalid
	// (unknown unit kind); composition still behaves deterministically.
	a, b := mk("a", "zorkmids"), mk("b", "zorkmids")
	res, err := Compose(context.Background(), a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Model.UnitDefinitions) != 1 {
		t.Errorf("identical unknown units should merge: %d", len(res.Model.UnitDefinitions))
	}
	c := mk("c", "flurbs")
	res, err = Compose(context.Background(), a, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Model.UnitDefinitions) != 2 {
		t.Errorf("different unknown units should both survive: %d", len(res.Model.UnitDefinitions))
	}
	if res.Renames["u"] == "" {
		t.Errorf("id clash should rename: %v", res.Renames)
	}
}

func TestEventRenameOnIDCollision(t *testing.T) {
	mkEv := func(id string, threshold float64) *sbml.Event {
		return &sbml.Event{
			ID:      id,
			Trigger: mathml.Call("gt", mathml.S("A"), mathml.N(threshold)),
			Assignments: []*sbml.EventAssignment{
				{Variable: "A", Math: mathml.N(0)},
			},
		}
	}
	a := mkModel("m1", []string{"A"}, nil)
	a.Species[0].Constant = false
	a.Events = append(a.Events, mkEv("alarm", 10))
	b := mkModel("m2", []string{"A"}, nil)
	b.Species[0].Constant = false
	b.Events = append(b.Events, mkEv("alarm", 20)) // same id, different trigger
	res := compose(t, a, b, Options{})
	if len(res.Model.Events) != 2 {
		t.Fatalf("events = %d, want 2", len(res.Model.Events))
	}
	if res.Renames["alarm"] == "" {
		t.Errorf("expected event rename: %v", res.Renames)
	}
}

func TestMichaelisMentenLawsMergeByPattern(t *testing.T) {
	mk := func(id string, commuted bool) *sbml.Model {
		m := mkModel(id, []string{"S", "P"}, nil)
		m.Parameters = append(m.Parameters,
			&sbml.Parameter{ID: "Vmax", Value: 1, HasValue: true, Constant: true},
			&sbml.Parameter{ID: "Km", Value: 0.5, HasValue: true, Constant: true},
		)
		law := "Vmax*S/(Km+S)"
		if commuted {
			law = "S*Vmax/(S+Km)"
		}
		m.Reactions = append(m.Reactions, &sbml.Reaction{
			ID:         "mm",
			Reactants:  []*sbml.SpeciesReference{{Species: "S", Stoichiometry: 1}},
			Products:   []*sbml.SpeciesReference{{Species: "P", Stoichiometry: 1}},
			KineticLaw: &sbml.KineticLaw{Math: mathml.MustParseInfix(law)},
		})
		return m
	}
	res := compose(t, mk("a", false), mk("b", true), Options{})
	if len(res.Model.Reactions) != 1 {
		t.Errorf("reactions = %d, want 1", len(res.Model.Reactions))
	}
	if len(res.Warnings) != 0 {
		t.Errorf("commuted MM laws should merge silently: %v", res.Warnings)
	}
}

func TestStoichiometryDifferenceSeparatesReactions(t *testing.T) {
	mk := func(id string, stoich float64) *sbml.Model {
		m := mkModel(id, []string{"A", "B"}, nil)
		m.Parameters = append(m.Parameters, &sbml.Parameter{ID: "k", Value: 1, HasValue: true, Constant: true})
		m.Reactions = append(m.Reactions, &sbml.Reaction{
			ID:         "r",
			Reactants:  []*sbml.SpeciesReference{{Species: "A", Stoichiometry: stoich}},
			Products:   []*sbml.SpeciesReference{{Species: "B", Stoichiometry: 1}},
			KineticLaw: &sbml.KineticLaw{Math: mathml.MustParseInfix("k*A")},
		})
		return m
	}
	// A→B and 2A→B are chemically different reactions: both survive.
	res := compose(t, mk("a", 1), mk("b", 2), Options{})
	if len(res.Model.Reactions) != 2 {
		t.Errorf("reactions = %d, want 2", len(res.Model.Reactions))
	}
}

func TestComposeLogIsOptional(t *testing.T) {
	a := mkModel("m1", []string{"A"}, nil)
	b := mkModel("m2", []string{"A"}, nil)
	b.Species[0].InitialConcentration = 9 // conflict with nil log
	res, err := Compose(context.Background(), a, b, Options{Log: nil})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 1 {
		t.Errorf("warnings should be collected even without a log: %v", res.Warnings)
	}
}

func TestRenameAvoidsSecondModelIDs(t *testing.T) {
	// The fresh name chosen for a clash must not collide with ids still to
	// come from the second model.
	a := mkModel("m1", []string{"X"}, nil)
	a.Parameters = append(a.Parameters, &sbml.Parameter{ID: "k", Value: 1, HasValue: true, Constant: true})
	b := mkModel("m2", []string{"Y"}, nil)
	b.Parameters = append(b.Parameters,
		&sbml.Parameter{ID: "k", Value: 2, HasValue: true, Constant: true},    // clash → rename
		&sbml.Parameter{ID: "k_m2", Value: 3, HasValue: true, Constant: true}, // occupies the obvious fresh name
	)
	res := compose(t, a, b, Options{})
	if err := sbml.Check(res.Model); err != nil {
		t.Fatalf("rename collided: %v", err)
	}
	if len(res.Model.Parameters) != 3 {
		t.Errorf("parameters = %d, want 3", len(res.Model.Parameters))
	}
}

func TestSemanticsLevelString(t *testing.T) {
	if HeavySemantics.String() != "heavy" || LightSemantics.String() != "light" || NoSemantics.String() != "none" {
		t.Error("semantics level names wrong")
	}
}
