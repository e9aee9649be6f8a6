package sbmlcompose

import (
	"context"
	"testing"
)

func TestFacadeMatchModels(t *testing.T) {
	a, err := ParseModelString(modelA) // A → B
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseModelString(modelB) // B → C
	if err != nil {
		t.Fatal(err)
	}
	matches, err := New().MatchModels(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Shared: compartment "cell" and species "B".
	got := make(map[string]string, len(matches))
	for _, m := range matches {
		got[m.First] = m.Second
	}
	if got["cell"] != "cell" || got["B"] != "B" {
		t.Errorf("matches = %v", matches)
	}
	if len(matches) != 2 {
		t.Errorf("len(matches) = %d, want 2", len(matches))
	}
	// Matching must not mutate inputs.
	if len(a.Species) != 2 || len(b.Species) != 2 {
		t.Error("MatchModels mutated inputs")
	}
}

func TestFacadeDecompose(t *testing.T) {
	a, err := ParseModelString(modelA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseModelString(modelB)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cli := New()
	res, err := cli.Compose(ctx, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// A→B→C is one connected chain: decomposition keeps it whole.
	parts, err := Decompose(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 {
		t.Fatalf("connected chain split into %d parts", len(parts))
	}
	// Break the chain and decompose again.
	res.Model.Reactions = res.Model.Reactions[:1] // keep only A→B
	parts, err = Decompose(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 { // {A,B} chain + isolated C
		t.Fatalf("parts = %d, want 2", len(parts))
	}
	for _, p := range parts {
		if err := Validate(p); err != nil {
			t.Errorf("part %s invalid: %v", p.ID, err)
		}
	}
	// Round trip: recompose restores counts.
	back, err := cli.ComposeAll(ctx, parts)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Model.Species) != 3 || len(back.Model.Reactions) != 1 {
		t.Errorf("recomposed = %d species %d reactions", len(back.Model.Species), len(back.Model.Reactions))
	}
}
