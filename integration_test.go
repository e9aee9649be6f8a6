package sbmlcompose

// Integration tests spanning the whole pipeline: corpus generation →
// composition → the four §4.1 evaluation methods (textual comparison,
// simulation comparison, residual sum of squares, model checking), plus the
// baseline cross-check.

import (
	"context"
	"strings"
	"testing"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/core"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/semanticsbml"
	"sbmlcompose/internal/sim"
	"sbmlcompose/internal/trace"
)

// TestComposedEqualsExpected411 is the §4.1.1 check: composing a model with
// a subset of itself must reproduce the original, verified by the
// order-aware textual comparison.
func TestComposedEqualsExpected411(t *testing.T) {
	full := biomodels.Generate(biomodels.Config{ID: "full", Nodes: 20, Edges: 30, Seed: 11, Decorate: true})
	// The subset model: same generator, same seed, smaller edge budget —
	// its reactions are a prefix-compatible subnetwork by construction.
	subset := biomodels.Generate(biomodels.Config{ID: "full", Nodes: 20, Edges: 30, Seed: 11, Decorate: true})
	subset.Reactions = subset.Reactions[:len(subset.Reactions)/2]

	res, err := core.Compose(context.Background(), full, subset, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	diffs := Diff(full, res.Model)
	if len(diffs) != 0 {
		for _, d := range diffs {
			t.Logf("diff: %s", d)
		}
		t.Fatalf("full + subset != full (%d differences)", len(diffs))
	}
}

// TestTraceEquivalence413 is the §4.1.3 check: the composed model's
// simulation matches the expected model's with RSS ≈ 0 for all species.
func TestTraceEquivalence413(t *testing.T) {
	expected := biomodels.Generate(biomodels.Config{ID: "m", Nodes: 8, Edges: 12, Seed: 21})
	clone := expected.Clone()
	res, err := core.Compose(context.Background(), expected, clone, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{T0: 0, T1: 5, Step: 0.05}
	simulate := func(m *Model) *Trace {
		eng, err := sim.Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := eng.ODE(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	trExpected, trComposed := simulate(expected), simulate(res.Model)
	per, err := trace.RSS(trExpected, trComposed, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, rss := range per {
		if rss > 1e-12 {
			t.Errorf("RSS[%s] = %g, want ≈0", name, rss)
		}
	}
}

// TestModelChecking414 is the §4.1.4 check: temporal properties that hold
// on the expected model hold on the composed model.
func TestModelChecking414(t *testing.T) {
	a, err := ParseModelString(modelA) // A →(0.5) B
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseModelString(modelB) // B →(0.25) C
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cli := New()
	res, err := cli.Compose(ctx, a, b)
	if err != nil {
		t.Fatal(err)
	}
	opts := SimOptions{T0: 0, T1: 30, Step: 0.1}
	for _, prop := range []string{
		"G({A >= 0} & {B >= 0} & {C >= 0})", // non-negativity
		"F({C > 0.9})",                      // mass eventually reaches C
		"G({A + B + C <= 1.000001})",        // conservation
		"{C < 0.5} U {B > 0.1}",             // B rises before C accumulates
	} {
		ok, err := cli.CheckProperty(ctx, res.Model, prop, opts)
		if err != nil {
			t.Fatalf("%s: %v", prop, err)
		}
		if !ok {
			t.Errorf("property %q fails on composed model", prop)
		}
	}
}

// TestComposerAgreesWithBaseline cross-checks the two engines on the
// annotated collection: for models the baseline can handle, both must
// produce the same species set (ids aside).
func TestComposerAgreesWithBaseline(t *testing.T) {
	models := biomodels.Annotated17()
	for i := 0; i < len(models)-1; i++ {
		a, b := models[i], models[i+1]
		ours, err := core.Compose(context.Background(), a, b, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		theirs, err := semanticsbml.Merge(a, b)
		if err != nil {
			t.Fatal(err)
		}
		ourNames := speciesNameSet(ours.Model)
		theirNames := speciesNameSet(theirs.Model)
		if len(ourNames) != len(theirNames) {
			t.Errorf("pair %d: species %d vs baseline %d", i, len(ourNames), len(theirNames))
			continue
		}
		for n := range ourNames {
			if !theirNames[n] {
				t.Errorf("pair %d: baseline missing species %q", i, n)
			}
		}
	}
}

func speciesNameSet(m *sbml.Model) map[string]bool {
	out := make(map[string]bool, len(m.Species))
	for _, s := range m.Species {
		key := s.Name
		if key == "" {
			key = s.ID
		}
		out[strings.ToLower(key)] = true
	}
	return out
}

// TestFigure8SweepSlice runs a slice of the Figure 8 sweep end to end:
// every composition must succeed and validate.
func TestFigure8SweepSlice(t *testing.T) {
	models := biomodels.Corpus187()
	stride := 23 // prime stride samples the size spectrum
	count := 0
	for i := 0; i < len(models); i += stride {
		for j := i; j < len(models); j += stride {
			res, err := core.Compose(context.Background(), models[i], models[j], core.Options{})
			if err != nil {
				t.Fatalf("compose %d×%d: %v", i, j, err)
			}
			if err := sbml.Check(res.Model); err != nil {
				t.Fatalf("compose %d×%d invalid: %v", i, j, err)
			}
			count++
		}
	}
	if count < 30 {
		t.Fatalf("sweep too small: %d pairs", count)
	}
}

// TestOrderOfMagnitudeGap asserts the Figure 9 headline on a small sample:
// SBMLCompose is at least 10× faster than the baseline on the annotated
// collection.
func TestOrderOfMagnitudeGap(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	models := biomodels.Annotated17()
	a, b := models[3], models[8]
	// Warm up both paths once.
	if _, err := core.Compose(context.Background(), a, b, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := semanticsbml.Merge(a, b); err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	var ours, theirs float64
	for i := 0; i < rounds; i++ {
		res, err := core.Compose(context.Background(), a, b, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ours += res.Stats.Duration.Seconds()
		bres, err := semanticsbml.Merge(a, b)
		if err != nil {
			t.Fatal(err)
		}
		theirs += bres.Duration.Seconds()
	}
	if theirs < 10*ours {
		t.Errorf("expected ≥10× gap: ours %.3gs, baseline %.3gs (%.1f×)",
			ours/rounds, theirs/rounds, theirs/ours)
	}
}
