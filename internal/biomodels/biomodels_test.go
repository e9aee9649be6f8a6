package biomodels

import (
	"context"
	"testing"

	"sbmlcompose/internal/core"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/semanticsbml"
)

func TestGenerateExactSizes(t *testing.T) {
	cases := []struct{ nodes, edges int }{
		{0, 0}, {1, 0}, {1, 1}, {5, 3}, {10, 17}, {50, 80}, {194, 313},
	}
	for _, tc := range cases {
		m := Generate(Config{ID: "t", Nodes: tc.nodes, Edges: tc.edges, Seed: 1})
		if m.Nodes() != tc.nodes {
			t.Errorf("Nodes(%d,%d) = %d", tc.nodes, tc.edges, m.Nodes())
		}
		if m.Edges() != tc.edges {
			t.Errorf("Edges(%d,%d) = %d", tc.nodes, tc.edges, m.Edges())
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{ID: "d", Nodes: 20, Edges: 30, Seed: 99, Decorate: true})
	b := Generate(Config{ID: "d", Nodes: 20, Edges: 30, Seed: 99, Decorate: true})
	if sbml.WrapModel(a).ToXML().Canonical() != sbml.WrapModel(b).ToXML().Canonical() {
		t.Error("same seed produced different models")
	}
	c := Generate(Config{ID: "d", Nodes: 20, Edges: 30, Seed: 100, Decorate: true})
	if sbml.WrapModel(a).ToXML().Canonical() == sbml.WrapModel(c).ToXML().Canonical() {
		t.Error("different seeds produced identical models")
	}
}

func TestGeneratedModelsValid(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		m := Generate(Config{ID: "v", Nodes: 15, Edges: 25, Seed: seed, Decorate: true})
		if err := sbml.Check(m); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestCorpus187Shape(t *testing.T) {
	corpus := Corpus187()
	if len(corpus) != CorpusSize {
		t.Fatalf("corpus size = %d", len(corpus))
	}
	maxNodes, maxEdges := 0, 0
	for i, m := range corpus {
		if m.Nodes() > MaxNodes || m.Edges() > MaxEdges {
			t.Errorf("model %d exceeds bounds: %d/%d", i, m.Nodes(), m.Edges())
		}
		if m.Nodes() > maxNodes {
			maxNodes = m.Nodes()
		}
		if m.Edges() > maxEdges {
			maxEdges = m.Edges()
		}
		if i > 0 && corpus[i-1].Size() > m.Size() {
			t.Errorf("corpus not sorted at %d: %d > %d", i, corpus[i-1].Size(), m.Size())
		}
	}
	if corpus[0].Size() != 0 {
		t.Errorf("smallest model size = %d, paper starts at 0", corpus[0].Size())
	}
	if maxNodes != MaxNodes {
		t.Errorf("max nodes = %d, want %d", maxNodes, MaxNodes)
	}
	if maxEdges != MaxEdges {
		t.Errorf("max edges = %d, want %d", maxEdges, MaxEdges)
	}
}

func TestCorpus187AllValid(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus validation")
	}
	for i, m := range Corpus187() {
		if err := sbml.Check(m); err != nil {
			t.Fatalf("corpus model %d (%s): %v", i, m.ID, err)
		}
	}
}

func TestCorpusModelsOverlap(t *testing.T) {
	corpus := Corpus187()
	// Two mid-size models must share some species names (common
	// vocabulary), or the Figure 8 sweep would never exercise merging.
	a, b := corpus[100], corpus[120]
	shared := 0
	names := make(map[string]bool)
	for _, s := range a.Species {
		names[s.Name] = true
	}
	for _, s := range b.Species {
		if names[s.Name] {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no shared species between corpus models; overlap generator broken")
	}
}

func TestAnnotated17Shape(t *testing.T) {
	models := Annotated17()
	if len(models) != 17 {
		t.Fatalf("len = %d", len(models))
	}
	for i, m := range models {
		if m.Nodes() < 4 || m.Nodes() > 7 {
			t.Errorf("model %d nodes = %d, want 4–7", i, m.Nodes())
		}
		if m.Edges() < 0 || m.Edges() > 3 {
			t.Errorf("model %d edges = %d, want 0–3", i, m.Edges())
		}
		if err := sbml.Check(m); err != nil {
			t.Errorf("model %d invalid: %v", i, err)
		}
	}
}

func TestAnnotated17ResolvesAgainstDB(t *testing.T) {
	db := semanticsbml.LoadDB()
	for _, m := range Annotated17() {
		for _, s := range m.Species {
			if _, ok := db.Lookup(s.Name); !ok {
				t.Errorf("species %q of %s not in annotation DB", s.Name, m.ID)
			}
		}
	}
}

func TestCorpusComposes(t *testing.T) {
	// Smoke: a handful of corpus pairs must compose into valid models with
	// both engines.
	corpus := Corpus187()
	pairs := [][2]int{{10, 20}, {50, 60}, {100, 101}}
	for _, p := range pairs {
		res, err := core.Compose(context.Background(), corpus[p[0]], corpus[p[1]], core.Options{})
		if err != nil {
			t.Fatalf("core compose %v: %v", p, err)
		}
		if err := sbml.Check(res.Model); err != nil {
			t.Fatalf("core compose %v invalid: %v", p, err)
		}
	}
	small := Annotated17()
	if _, err := semanticsbml.Merge(small[0], small[1]); err != nil {
		t.Fatalf("baseline merge: %v", err)
	}
}
