package core

import (
	"context"
	"testing"

	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/synonym"
)

func TestMatchModelsIdentical(t *testing.T) {
	a := figure1Model("m1")
	b := figure1Model("m2")
	matches, err := MatchModels(context.Background(), a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Everything with an id matches: compartment, 3 species, 3 parameters,
	// 3 reactions = 10.
	if len(matches) != 10 {
		t.Fatalf("matches = %d, want 10: %v", len(matches), matches)
	}
	for _, m := range matches {
		if m.First != m.Second {
			t.Errorf("identical models should match by same id: %v", m)
		}
	}
}

func TestMatchModelsDisjoint(t *testing.T) {
	a := mkModel("m1", []string{"A"}, nil)
	b := mkModel("m2", []string{"X"}, nil)
	matches, err := MatchModels(context.Background(), a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Only the shared compartment matches.
	if len(matches) != 1 || matches[0].First != "cell" {
		t.Errorf("matches = %v, want only the compartment", matches)
	}
}

func TestMatchModelsSynonyms(t *testing.T) {
	tab := synonym.NewTable()
	tab.Add("glucose", "dextrose")
	a := mkModel("m1", nil, nil)
	a.Species = append(a.Species, &sbml.Species{ID: "glc", Name: "glucose", Compartment: "cell"})
	b := mkModel("m2", nil, nil)
	b.Species = append(b.Species, &sbml.Species{ID: "dex", Name: "dextrose", Compartment: "cell"})
	matches, err := MatchModels(context.Background(), a, b, Options{Synonyms: tab})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range matches {
		if m.First == "glc" && m.Second == "dex" {
			found = true
		}
	}
	if !found {
		t.Errorf("synonym match glc←dex missing: %v", matches)
	}
	// Matching is read-only: inputs untouched.
	if len(a.Species) != 1 || len(b.Species) != 1 {
		t.Error("MatchModels mutated its inputs")
	}
}

func TestMatchesOnComposeResult(t *testing.T) {
	a := mkModel("m1", []string{"A", "B"}, []string{"A>B:k1"})
	b := mkModel("m2", []string{"B", "C"}, []string{"B>C:k2"})
	res, err := Compose(context.Background(), a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Shared: compartment "cell" and species "B".
	wantFirst := map[string]bool{"cell": true, "B": true}
	for _, m := range res.Matches {
		if !wantFirst[m.First] {
			t.Errorf("unexpected match %v", m)
		}
		delete(wantFirst, m.First)
	}
	if len(wantFirst) != 0 {
		t.Errorf("missing matches for %v", wantFirst)
	}
}
