package sbmlcompose

// Facade coverage for the corpus subsystem and the engine-holding
// simulation path.

import (
	"context"
	"testing"

	"sbmlcompose/internal/biomodels"
)

func TestFacadeCorpusDefaultsAndSearch(t *testing.T) {
	ctx := context.Background()
	c := NewCorpus(nil)
	models := facadeBatch(6)
	for _, m := range models {
		if _, err := c.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 6 {
		t.Fatalf("Len = %d, want 6", c.Len())
	}
	// The default synonym table must have been resolved: a clone query
	// must rank its original first with heavy-semantics evidence.
	hits, err := c.Search(ctx, models[2].Clone(), SearchOptions{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].ModelID != models[2].ID {
		t.Fatalf("top hit = %+v, want %s", hits, models[2].ID)
	}
	res, err := c.ComposeWith(ctx, hits[0].ModelID, models[3])
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res.Model); err != nil {
		t.Fatalf("composed model invalid: %v", err)
	}
}

func TestFacadeEngineMatchesOneShots(t *testing.T) {
	m := biomodels.Generate(biomodels.Config{
		ID: "engfacade", Nodes: 12, Edges: 16, Seed: 451, VocabularySize: 60, Decorate: true,
	})
	eng, err := CompileEngine(m)
	if err != nil {
		t.Fatal(err)
	}
	opts := SimOptions{T0: 0, T1: 1, Step: 0.05, Seed: 11}
	ctx := context.Background()
	oneShot := New(WithEngineCache(-1))
	want, err := oneShot.SimulateODE(ctx, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.ODE(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatal("engine ODE trace length differs from one-shot")
	}
	for i := range want.Values {
		for j := range want.Values[i] {
			if got.Values[i][j] != want.Values[i][j] {
				t.Fatal("engine ODE trace differs from one-shot")
			}
		}
	}

	f, err := ParseFormula("G({" + m.Species[0].ID + " >= 0})")
	if err != nil {
		t.Fatal(err)
	}
	ok, err := CheckTrace(got, f)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := oneShot.CheckProperty(ctx, m, "G({"+m.Species[0].ID+" >= 0})", opts)
	if err != nil {
		t.Fatal(err)
	}
	if ok != direct {
		t.Fatalf("engine-held check = %v, one-shot = %v", ok, direct)
	}
}
