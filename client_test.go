package sbmlcompose

// Tests for the Client facade: functional options resolve like the
// *Options defaulting of NewCorpus, and the compiled-engine LRU serves the
// exact traces, verdicts and estimates of the uncached path.

import (
	"context"
	"io"
	"reflect"
	"testing"

	"sbmlcompose/internal/biomodels"
)

func clientBatch(n int, seed int64) []*Model {
	models := make([]*Model, n)
	for i := range models {
		models[i] = biomodels.Generate(biomodels.Config{
			ID:             "cli" + string(rune('a'+i)),
			Nodes:          12 + i%5,
			Edges:          16 + i%7,
			Seed:           seed + int64(17*i),
			VocabularySize: 90,
			Decorate:       true,
		})
	}
	return models
}

func TestFunctionalOptionsResolveDefaults(t *testing.T) {
	// No options: heavy semantics with the built-in synonym table, like
	// resolveOptions(Options{}).
	cli := New()
	if cli.Options().Synonyms == nil {
		t.Fatal("default client has no synonym table")
	}
	if cli.Options().Semantics != HeavySemantics {
		t.Fatal("default client is not heavy-semantics")
	}
	// Light semantics: no implicit synonym injection.
	if opts := New(WithSemantics(LightSemantics)).Options(); opts.Synonyms != nil || opts.Semantics != LightSemantics {
		t.Fatalf("WithSemantics(light) resolved to %+v", opts)
	}
	// An explicit table wins over the builtin.
	tab := NewSynonymTable()
	if opts := New(WithSynonyms(tab)).Options(); opts.Synonyms != tab {
		t.Fatal("WithSynonyms table not used")
	}
	// An explicit WithSynonyms(nil) suppresses the builtin: heavy
	// semantics with exact-name matching only.
	if opts := New(WithSynonyms(nil)).Options(); opts.Synonyms != nil || opts.Semantics != HeavySemantics {
		t.Fatalf("WithSynonyms(nil) resolved to %+v", opts)
	}
	// ...while the WithMatchOptions escape hatch keeps the facade
	// defaulting (nil table under heavy semantics gets the builtin).
	if opts := New(WithMatchOptions(Options{})).Options(); opts.Synonyms == nil {
		t.Fatal("WithMatchOptions lost the builtin-synonyms defaulting")
	}
	// WithMatchOptions is the escape hatch; later options layer on top.
	base := Options{Semantics: NoSemantics}
	if opts := New(WithMatchOptions(base), WithLog(io.Discard)).Options(); opts.Semantics != NoSemantics || opts.Log != io.Discard {
		t.Fatalf("WithMatchOptions+WithLog resolved to %+v", opts)
	}
}

// TestEngineLRUPinnedToUncached pins the satellite requirement: the
// client's cached engines produce bitwise-identical traces, verdicts and
// estimates to a cache-disabled client, on both the first (miss) and
// second (hit) call.
func TestEngineLRUPinnedToUncached(t *testing.T) {
	m := clientBatch(1, 4600)[0]
	ctx := context.Background()
	cached := New()
	uncached := New(WithEngineCache(-1))
	simOpts := SimOptions{T1: 3, Step: 0.05}
	ssaOpts := SimOptions{T1: 3, Step: 0.5, Seed: 11}

	for round := 0; round < 2; round++ {
		a, err := cached.SimulateODE(ctx, m, simOpts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := uncached.SimulateODE(ctx, m, simOpts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Values, b.Values) {
			t.Fatalf("round %d: cached ODE trace differs from uncached", round)
		}
		sa, err := cached.SimulateSSA(ctx, m, ssaOpts)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := uncached.SimulateSSA(ctx, m, ssaOpts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sa.Values, sb.Values) {
			t.Fatalf("round %d: cached SSA trace differs from uncached", round)
		}
	}
	if n := cached.engines.Len(); n != 1 {
		t.Fatalf("engine cache holds %d entries, want 1", n)
	}

	formula := "G({" + m.Species[0].ID + " >= 0})"
	v1, err := cached.CheckProperty(ctx, m, formula, simOpts)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := uncached.CheckProperty(ctx, m, formula, simOpts)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatal("cached CheckProperty verdict differs from uncached")
	}

	e1, err := cached.ProbabilityEstimate(ctx, m, formula, 20, ssaOpts)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := uncached.ProbabilityEstimate(ctx, m, formula, 20, ssaOpts)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatalf("cached estimate %+v differs from uncached %+v", e1, e2)
	}
}

// TestEngineCacheSurvivesCallerMutation pins the clone-on-cache contract:
// mutating the caller's model after a cached simulation must not corrupt
// the cached engine for other holders of the original bytes.
func TestEngineCacheSurvivesCallerMutation(t *testing.T) {
	cli := New()
	ctx := context.Background()
	m := clientBatch(1, 4700)[0]
	twin := m.Clone()
	simOpts := SimOptions{T1: 2, Step: 0.1}

	ref, err := cli.SimulateODE(ctx, m, simOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Vandalize the model the engine was compiled from.
	m.Parameters = nil
	m.Reactions = nil
	m.ID = "vandalized"

	// A caller presenting the original bytes (the twin) must still get
	// the original trace from the cache.
	got, err := cli.SimulateODE(ctx, twin, simOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Values, ref.Values) {
		t.Fatal("cached engine was corrupted by caller mutation")
	}
}

func TestClientCorpusInheritsMatchOptions(t *testing.T) {
	cli := New(WithSemantics(NoSemantics))
	c := cli.NewCorpus(nil)
	if got := c.Options().Match.Semantics; got != NoSemantics {
		t.Fatalf("corpus inherited semantics %v, want none", got)
	}
	// An explicit options struct is respected as-is.
	c2 := cli.NewCorpus(&CorpusOptions{Shards: 2})
	if got := c2.Options().Match.Semantics; got != HeavySemantics {
		t.Fatalf("explicit corpus options overridden: %v", got)
	}
}
