package core

import (
	"context"
	"math"
	"testing"

	"sbmlcompose/internal/mathml"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/synonym"
)

// assertValuesMatchScan pins the incremental contract: at every step
// boundary the accumulator's values map equals the from-scratch
// collectInitialValues scan of the live model.
func assertValuesMatchScan(t *testing.T, label string, cm *CompiledModel) {
	t.Helper()
	scan := collectInitialValues(cm.model)
	if len(scan) != len(cm.values) {
		t.Fatalf("%s: incremental values has %d entries, scan has %d", label, len(cm.values), len(scan))
	}
	for k, want := range scan {
		got, ok := cm.values[k]
		if !ok {
			t.Fatalf("%s: incremental values missing %q (scan: %g)", label, k, want)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: values[%q] = %g, scan says %g", label, k, got, want)
		}
	}
}

// TestComposerValuesMatchScanOnRenameHeavyBatch folds a batch whose models
// fight over ids (renames, conflicts, adoptions all fire) and checks the
// incrementally-maintained values map against the scan after every Add.
func TestComposerValuesMatchScanOnRenameHeavyBatch(t *testing.T) {
	for _, opts := range []Options{
		{Synonyms: synonym.Builtin()},
		{Semantics: LightSemantics},
	} {
		c := NewComposer(opts)
		for i, m := range renameHeavyBatch(t, 8) {
			if err := c.Add(context.Background(), m); err != nil {
				t.Fatal(err)
			}
			assertValuesMatchScan(t, m.ID, c.acc)
			_ = i
		}
	}
}

// TestComposerValuesAdoptionAndAssignments targets the paths a generated
// batch may not hit deterministically: a compartment size adoption, a
// species quantity adoption, and an initial assignment whose input value
// arrives in a later step.
func TestComposerValuesAdoptionAndAssignments(t *testing.T) {
	m1 := sbml.NewModel("first")
	m1.Compartments = append(m1.Compartments, &sbml.Compartment{ID: "cell", SpatialDimensions: 3, Constant: true}) // no size yet
	m1.Species = append(m1.Species,
		&sbml.Species{ID: "A", Compartment: "cell"}, // no quantity yet
		&sbml.Species{ID: "B", Compartment: "cell", InitialConcentration: 2, HasInitialConcentration: true},
	)
	m1.Parameters = append(m1.Parameters, &sbml.Parameter{ID: "scale", Constant: true}) // value set by IA below
	m1.InitialAssignments = append(m1.InitialAssignments, &sbml.InitialAssignment{
		Symbol: "scale",
		Math:   mathml.Mul(mathml.N(3), mathml.S("gain")), // gain arrives with m2
	})

	m2 := sbml.NewModel("second")
	m2.Compartments = append(m2.Compartments, &sbml.Compartment{ID: "cell", SpatialDimensions: 3, Size: 2.5, HasSize: true, Constant: true})
	m2.Species = append(m2.Species,
		&sbml.Species{ID: "A", Compartment: "cell", InitialAmount: 5, HasInitialAmount: true},
	)
	m2.Parameters = append(m2.Parameters, &sbml.Parameter{ID: "gain", Value: 4, HasValue: true, Constant: true})

	c := NewComposer(Options{})
	for _, m := range []*sbml.Model{m1, m2} {
		if err := c.Add(context.Background(), m); err != nil {
			t.Fatal(err)
		}
		assertValuesMatchScan(t, m.ID, c.acc)
	}
	// The adopted quantities and the late-resolving assignment must all be
	// visible without any rescan.
	if v := c.acc.values["cell"]; v != 2.5 {
		t.Errorf("adopted compartment size = %g, want 2.5", v)
	}
	if v := c.acc.values["A"]; v != 5 {
		t.Errorf("adopted species amount = %g, want 5", v)
	}
	if v := c.acc.values["scale"]; v != 12 {
		t.Errorf("initial assignment scale = %g, want 12 (3×gain)", v)
	}
}

// TestComposerValuesAssignmentOnlyStep pins the regression where a step
// whose only contribution is an initial assignment (every attribute-valued
// component merges) still refreshes the overlay: without the assignment
// insert hook buffering a flush, the accumulator would keep the stale
// attribute value.
func TestComposerValuesAssignmentOnlyStep(t *testing.T) {
	base := sbml.NewModel("base")
	base.Compartments = append(base.Compartments, &sbml.Compartment{ID: "cell", SpatialDimensions: 3, Size: 1, HasSize: true, Constant: true})
	base.Parameters = append(base.Parameters, &sbml.Parameter{ID: "k", Value: 2, HasValue: true, Constant: true})

	// Same components plus an assignment overriding k's value.
	overlay := sbml.NewModel("overlay")
	overlay.Compartments = append(overlay.Compartments, &sbml.Compartment{ID: "cell", SpatialDimensions: 3, Size: 1, HasSize: true, Constant: true})
	overlay.Parameters = append(overlay.Parameters, &sbml.Parameter{ID: "k", Value: 2, HasValue: true, Constant: true})
	overlay.InitialAssignments = append(overlay.InitialAssignments, &sbml.InitialAssignment{
		Symbol: "k", Math: mathml.N(5),
	})

	c := NewComposer(Options{})
	// An intermediate no-new-values step drains any seed buffering, so the
	// assignment step below must trigger its own flush.
	for _, m := range []*sbml.Model{base, base.Clone(), overlay} {
		if err := c.Add(context.Background(), m); err != nil {
			t.Fatal(err)
		}
		assertValuesMatchScan(t, m.ID, c.acc)
	}
	if v := c.acc.values["k"]; v != 5 {
		t.Errorf("values[k] = %g, want 5 (assignment-only step must refresh the overlay)", v)
	}
}
