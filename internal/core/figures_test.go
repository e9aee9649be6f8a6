package core

import (
	"context"
	"testing"

	"sbmlcompose/internal/mathml"
	"sbmlcompose/internal/sbml"
)

// mkModel builds a one-compartment model with the given species ids and
// mass-action reactions described as "A>B:k1" (k value 0.1 each, parameter
// added globally).
func mkModel(id string, species []string, reactions []string) *sbml.Model {
	m := sbml.NewModel(id)
	m.Compartments = append(m.Compartments, &sbml.Compartment{
		ID: "cell", SpatialDimensions: 3, Size: 1, HasSize: true, Constant: true,
	})
	for _, s := range species {
		m.Species = append(m.Species, &sbml.Species{
			ID: s, Compartment: "cell", InitialConcentration: 1, HasInitialConcentration: true,
		})
	}
	for _, spec := range reactions {
		var from, to, k string
		for i := 0; i < len(spec); i++ {
			if spec[i] == '>' {
				from = spec[:i]
				rest := spec[i+1:]
				for j := 0; j < len(rest); j++ {
					if rest[j] == ':' {
						to = rest[:j]
						k = rest[j+1:]
					}
				}
			}
		}
		if m.ParameterByID(k) == nil {
			m.Parameters = append(m.Parameters, &sbml.Parameter{ID: k, Value: 0.1, HasValue: true, Constant: true})
		}
		m.Reactions = append(m.Reactions, &sbml.Reaction{
			ID:        "r_" + from + "_" + to,
			Reactants: []*sbml.SpeciesReference{{Species: from, Stoichiometry: 1}},
			Products:  []*sbml.SpeciesReference{{Species: to, Stoichiometry: 1}},
			KineticLaw: &sbml.KineticLaw{
				Math: mathml.Mul(mathml.S(k), mathml.S(from)),
			},
		})
	}
	return m
}

// figure1Model is the paper's running example: A → B ⇌ C with constants
// k1, k2, k3.
func figure1Model(id string) *sbml.Model {
	return mkModel(id, []string{"A", "B", "C"},
		[]string{"A>B:k1", "B>C:k2", "C>B:k3"})
}

func compose(t *testing.T, a, b *sbml.Model, opts Options) *Result {
	t.Helper()
	res, err := Compose(context.Background(), a, b, opts)
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	if err := sbml.Check(res.Model); err != nil {
		t.Fatalf("composed model invalid: %v", err)
	}
	return res
}

func TestFigure1IdenticalModels(t *testing.T) {
	// Figure 1: a + a = a. Merging two identical models yields the same
	// model.
	a := figure1Model("m1")
	b := figure1Model("m2")
	res := compose(t, a, b, Options{})
	m := res.Model
	if len(m.Species) != 3 {
		t.Errorf("species = %d, want 3", len(m.Species))
	}
	if len(m.Reactions) != 3 {
		t.Errorf("reactions = %d, want 3", len(m.Reactions))
	}
	if len(m.Parameters) != 3 {
		t.Errorf("parameters = %d, want 3", len(m.Parameters))
	}
	if len(res.Warnings) != 0 {
		t.Errorf("warnings on identical merge: %v", res.Warnings)
	}
	if res.Stats.Added != 0 {
		t.Errorf("Added = %d, want 0", res.Stats.Added)
	}
}

func TestFigure2DisjointModels(t *testing.T) {
	// Figure 2: (A→B→C) + (D→E) keeps both chains side by side.
	a := mkModel("m1", []string{"A", "B", "C"}, []string{"A>B:k1", "B>C:k2"})
	b := mkModel("m2", []string{"D", "E"}, []string{"D>E:k3"})
	res := compose(t, a, b, Options{})
	m := res.Model
	if len(m.Species) != 5 {
		t.Errorf("species = %d, want 5", len(m.Species))
	}
	if len(m.Reactions) != 3 {
		t.Errorf("reactions = %d, want 3", len(m.Reactions))
	}
	// The shared compartment "cell" merges; D and E live in it.
	if len(m.Compartments) != 1 {
		t.Errorf("compartments = %d, want 1", len(m.Compartments))
	}
}

func TestFigure3SharedSubnetwork(t *testing.T) {
	// Figure 3: (A→B⇌C→D) + (A→B→C) = A→B⇌C→D. The overlap merges, the
	// extension survives.
	a := mkModel("m1", []string{"A", "B", "C", "D"},
		[]string{"A>B:k1", "B>C:k2", "C>B:k3", "C>D:k4"})
	b := mkModel("m2", []string{"A", "B", "C"}, []string{"A>B:k1", "B>C:k2"})
	res := compose(t, a, b, Options{})
	m := res.Model
	if len(m.Species) != 4 {
		t.Errorf("species = %d, want 4", len(m.Species))
	}
	if len(m.Reactions) != 4 {
		t.Errorf("reactions = %d, want 4", len(m.Reactions))
	}
	if len(res.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", res.Warnings)
	}
	// Symmetric composition has the same size.
	res2 := compose(t, b, a, Options{})
	if len(res2.Model.Species) != 4 || len(res2.Model.Reactions) != 4 {
		t.Errorf("b+a = %d species %d reactions", len(res2.Model.Species), len(res2.Model.Reactions))
	}
}

func TestEmptyModelCases(t *testing.T) {
	// Figure 5 lines 1-2: composing with an empty model returns the other.
	a := figure1Model("m1")
	empty := sbml.NewModel("empty")
	res := compose(t, a, empty, Options{})
	if len(res.Model.Species) != 3 {
		t.Errorf("a+empty lost species")
	}
	res = compose(t, empty, a, Options{})
	if len(res.Model.Species) != 3 {
		t.Errorf("empty+a lost species")
	}
	if _, err := Compose(context.Background(), nil, a, Options{}); err == nil {
		t.Error("nil model should error")
	}
}

func TestInputsNotMutated(t *testing.T) {
	a := figure1Model("m1")
	b := mkModel("m2", []string{"A", "X"}, []string{"A>X:k9"})
	aBefore := sbml.WrapModel(a).ToXML().Canonical()
	bBefore := sbml.WrapModel(b).ToXML().Canonical()
	compose(t, a, b, Options{})
	if sbml.WrapModel(a).ToXML().Canonical() != aBefore {
		t.Error("first input mutated")
	}
	if sbml.WrapModel(b).ToXML().Canonical() != bBefore {
		t.Error("second input mutated")
	}
}
