package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"sbmlcompose/internal/mathml"
	"sbmlcompose/internal/sbml"
)

func TestDecomposeTwoChains(t *testing.T) {
	// A→B and X→Y are independent subnetworks plus one isolated species.
	m := mkModel("m", []string{"A", "B", "X", "Y", "lone"},
		[]string{"A>B:k1", "X>Y:k2"})
	parts, err := Decompose(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("parts = %d, want 3 (two chains + isolated)", len(parts))
	}
	for _, p := range parts {
		if err := sbml.Check(p); err != nil {
			t.Errorf("part %s invalid: %v", p.ID, err)
		}
	}
	if len(parts[0].Species) != 2 || len(parts[0].Reactions) != 1 {
		t.Errorf("part 1 = %d species %d reactions", len(parts[0].Species), len(parts[0].Reactions))
	}
	// Isolated species land in the last part with no reactions.
	last := parts[len(parts)-1]
	if len(last.Species) != 1 || last.Species[0].ID != "lone" || len(last.Reactions) != 0 {
		t.Errorf("isolated part wrong: %+v", last.Species)
	}
}

func TestDecomposeCarriesReferencedGlobals(t *testing.T) {
	m := mkModel("m", []string{"A", "B", "X", "Y"}, []string{"A>B:k1", "X>Y:k2"})
	parts, err := Decompose(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 {
		t.Fatalf("parts = %d", len(parts))
	}
	// Each part carries exactly its own rate constant.
	if parts[0].ParameterByID("k1") == nil || parts[0].ParameterByID("k2") != nil {
		t.Errorf("part 1 parameters wrong: %+v", parts[0].Parameters)
	}
	if parts[1].ParameterByID("k2") == nil || parts[1].ParameterByID("k1") != nil {
		t.Errorf("part 2 parameters wrong: %+v", parts[1].Parameters)
	}
	// Both carry the shared compartment.
	for _, p := range parts {
		if p.CompartmentByID("cell") == nil {
			t.Errorf("part %s lost its compartment", p.ID)
		}
	}
}

func TestDecomposeComposeRoundTrip(t *testing.T) {
	m := mkModel("m", []string{"A", "B", "C", "X", "Y"},
		[]string{"A>B:k1", "B>C:k2", "X>Y:k3"})
	parts, err := Decompose(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ComposeAll(context.Background(), parts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sbml.Check(res.Model); err != nil {
		t.Fatal(err)
	}
	if len(res.Model.Species) != len(m.Species) {
		t.Errorf("species = %d, want %d", len(res.Model.Species), len(m.Species))
	}
	if len(res.Model.Reactions) != len(m.Reactions) {
		t.Errorf("reactions = %d, want %d", len(res.Model.Reactions), len(m.Reactions))
	}
	if len(res.Model.Parameters) != len(m.Parameters) {
		t.Errorf("parameters = %d, want %d", len(res.Model.Parameters), len(m.Parameters))
	}
}

func TestDecomposeSingleComponent(t *testing.T) {
	m := figure1Model("m")
	parts, err := Decompose(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 {
		t.Fatalf("fully connected model should stay whole, got %d parts", len(parts))
	}
	if len(parts[0].Species) != 3 || len(parts[0].Reactions) != 3 {
		t.Errorf("part = %d/%d", len(parts[0].Species), len(parts[0].Reactions))
	}
}

func TestDecomposeEmptyAndNil(t *testing.T) {
	parts, err := Decompose(sbml.NewModel("empty"))
	if err != nil || len(parts) != 1 {
		t.Errorf("empty model: %v, %d parts", err, len(parts))
	}
	if _, err := Decompose(nil); err == nil {
		t.Error("nil model should error")
	}
}

func TestDecomposePartsAreIndependentCopies(t *testing.T) {
	m := mkModel("m", []string{"A", "B"}, []string{"A>B:k1"})
	parts, err := Decompose(m)
	if err != nil {
		t.Fatal(err)
	}
	parts[0].Species[0].InitialConcentration = 999
	if m.Species[0].InitialConcentration == 999 {
		t.Error("part shares storage with the original model")
	}
}

func TestDecomposeKeepsParameterRules(t *testing.T) {
	m := mkModel("m", []string{"A", "B"}, []string{"A>B:k1"})
	// A rule over parameters only must survive in the first part.
	m.Parameters = append(m.Parameters, &sbml.Parameter{ID: "obs", Constant: false})
	m.Rules = append(m.Rules, &sbml.Rule{
		Kind: sbml.AssignmentRule, Variable: "obs",
		Math: mathml.MustParseInfix("k1 * 2"),
	})
	parts, err := Decompose(m)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range parts {
		total += len(p.Rules)
	}
	if total != 1 {
		t.Errorf("rules across parts = %d, want 1", total)
	}
	for _, p := range parts {
		if err := sbml.Check(p); err != nil {
			t.Errorf("part %s invalid: %v", p.ID, err)
		}
	}
}

func TestQuickDecomposePreservesCounts(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomModel(r, "m")
		parts, err := Decompose(m)
		if err != nil {
			return false
		}
		species, reactions := 0, 0
		for _, p := range parts {
			species += len(p.Species)
			reactions += len(p.Reactions)
			if sbml.Check(p) != nil {
				return false
			}
		}
		return species == len(m.Species) && reactions == len(m.Reactions)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickDecomposeComposeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomModel(r, "m")
		if len(m.Species) == 0 {
			return true
		}
		parts, err := Decompose(m)
		if err != nil {
			return false
		}
		res, err := ComposeAll(context.Background(), parts, Options{})
		if err != nil {
			return false
		}
		return len(res.Model.Species) == len(m.Species) &&
			len(res.Model.Reactions) == len(m.Reactions) &&
			sbml.Check(res.Model) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
