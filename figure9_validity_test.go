package sbmlcompose

// Figure 9 measures speed; this file checks the correctness side of the
// same sweep: every one of the 17×17 annotated-model pairs must compose
// into a valid model under both engines, and the two engines must agree on
// the merged species count (ids aside) on every pair — not just the
// adjacent pairs the integration test samples.

import (
	"context"
	"testing"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/core"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/semanticsbml"
)

func TestFigure9SweepValidity(t *testing.T) {
	if testing.Short() {
		t.Skip("full 17×17 sweep with per-run baseline DB loads")
	}
	models := biomodels.Annotated17()
	merger := semanticsbml.NewMerger() // one load; validity is per-pair identical
	for i, a := range models {
		for j, b := range models {
			ours, err := core.Compose(context.Background(), a, b, core.Options{})
			if err != nil {
				t.Fatalf("pair %d×%d: compose: %v", i, j, err)
			}
			if err := sbml.Check(ours.Model); err != nil {
				t.Fatalf("pair %d×%d: composed model invalid: %v", i, j, err)
			}
			theirs, err := merger.MergeLoaded(a, b)
			if err != nil {
				t.Fatalf("pair %d×%d: baseline: %v", i, j, err)
			}
			if err := sbml.Check(theirs.Model); err != nil {
				t.Fatalf("pair %d×%d: baseline model invalid: %v", i, j, err)
			}
			if len(ours.Model.Species) != len(theirs.Model.Species) {
				t.Errorf("pair %d×%d: species disagree: ours %d, baseline %d",
					i, j, len(ours.Model.Species), len(theirs.Model.Species))
			}
		}
	}
}
