package corpus

import (
	"errors"
	"strings"
	"testing"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/core"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/sim"
	"sbmlcompose/internal/synonym"
)

func testOptions(shards int) Options {
	return Options{Shards: shards, Match: core.Options{Synonyms: synonym.Builtin()}}
}

// testModels generates a corpus whose models share a tight vocabulary so
// cross-model matches are plentiful, like curated pathway collections.
func testModels(n int) []*sbml.Model {
	models := make([]*sbml.Model, n)
	for i := range models {
		models[i] = biomodels.Generate(biomodels.Config{
			ID:             "corp" + string(rune('a'+i%26)) + string(rune('a'+i/26)),
			Nodes:          8 + i%9,
			Edges:          10 + i%11,
			Seed:           int64(5000 + 13*i),
			VocabularySize: 120,
			Decorate:       true,
		})
	}
	return models
}

func fill(t *testing.T, c *Corpus, models []*sbml.Model) {
	t.Helper()
	for _, m := range models {
		if _, err := c.Add(m); err != nil {
			t.Fatalf("Add(%s): %v", m.ID, err)
		}
	}
}

func TestAddRemoveLifecycle(t *testing.T) {
	models := testModels(7)
	c := New(testOptions(3))
	fill(t, c, models)
	if got := c.Len(); got != 7 {
		t.Fatalf("Len = %d, want 7", got)
	}
	if ids := c.IDs(); len(ids) != 7 || !sortedStrings(ids) {
		t.Fatalf("IDs not sorted or wrong length: %v", ids)
	}
	if _, err := c.Add(models[0]); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate Add: err = %v, want ErrDuplicate", err)
	}
	if _, err := c.Add(sbml.NewModel("")); err == nil {
		t.Fatal("empty-id Add succeeded")
	}
	if _, err := c.ComposeWith("ghost", models[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ComposeWith missing id: err = %v, want ErrNotFound", err)
	}

	m, ok := c.Get(models[2].ID)
	if !ok {
		t.Fatal("Get missed a stored model")
	}
	// Get returns a snapshot: mutating it must not corrupt the corpus.
	m.Species = nil
	m2, _ := c.Get(models[2].ID)
	if len(m2.Species) == 0 {
		t.Fatal("Get snapshot aliases corpus state")
	}

	if ok, err := c.Remove(models[4].ID); err != nil || !ok {
		t.Fatalf("Remove missed a stored model: ok=%v err=%v", ok, err)
	}
	if ok, err := c.Remove(models[4].ID); err != nil || ok {
		t.Fatalf("second Remove reported success: ok=%v err=%v", ok, err)
	}
	if got := c.Len(); got != 6 {
		t.Fatalf("Len after Remove = %d, want 6", got)
	}
	// The removed model must no longer be retrievable — by Get or Search.
	if _, ok := c.Get(models[4].ID); ok {
		t.Fatal("Get found removed model")
	}
	hits, err := c.Search(models[4], SearchOptions{TopK: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.ModelID == models[4].ID {
			t.Fatal("Search found removed model")
		}
	}
}

func sortedStrings(xs []string) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] >= xs[i] {
			return false
		}
	}
	return true
}

func TestSearchSelfIsTopHit(t *testing.T) {
	models := testModels(20)
	c := New(testOptions(4))
	fill(t, c, models)
	for _, probe := range []int{0, 7, 19} {
		query := models[probe].Clone()
		hits, err := c.Search(query, SearchOptions{TopK: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) == 0 || hits[0].ModelID != models[probe].ID {
			t.Fatalf("probe %d: top hit = %+v, want %s", probe, hits, models[probe].ID)
		}
		top := hits[0]
		if top.Matched == 0 || top.Score <= 0 {
			t.Fatalf("self hit carries no evidence: %+v", top)
		}
		if top.Coverage < 0.99 {
			t.Errorf("self-query coverage = %g, want ~1 (every component should self-match)", top.Coverage)
		}
		for _, ev := range top.Evidence {
			if ev.Tier == "" || ev.Kind == "" || ev.Score <= 0 {
				t.Fatalf("malformed evidence: %+v", ev)
			}
		}
		if len(hits) > 1 && hits[0].Score < hits[1].Score {
			t.Fatal("hits not ranked by descending score")
		}
	}
}

func TestSearchEmptyCorpusAndNoOverlap(t *testing.T) {
	c := New(testOptions(2))
	hits, err := c.Search(testModels(1)[0], SearchOptions{})
	if err != nil || len(hits) != 0 {
		t.Fatalf("empty corpus: hits=%v err=%v", hits, err)
	}
	fill(t, c, testModels(3))
	// A model over a disjoint vocabulary shares nothing relevant.
	alien := sbml.NewModel("alien")
	alien.Compartments = append(alien.Compartments, &sbml.Compartment{ID: "vacuole", Constant: true})
	alien.Species = append(alien.Species, &sbml.Species{ID: "zz_unobtainium", Name: "unobtainium", Compartment: "vacuole"})
	hits, err = c.Search(alien, SearchOptions{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		for _, ev := range h.Evidence {
			if strings.HasPrefix(ev.Query, "zz_") {
				t.Fatalf("alien species matched: %+v", ev)
			}
		}
	}
}

func TestSearchCutoffDropsWeakTiers(t *testing.T) {
	models := testModels(12)
	c := New(testOptions(2))
	fill(t, c, models)
	query := models[5].Clone()
	all, err := c.Search(query, SearchOptions{TopK: -1})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := c.Search(query, SearchOptions{TopK: -1, Cutoff: core.TierSynonym.Weight()})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range strict {
		for _, ev := range h.Evidence {
			if ev.Score < core.TierSynonym.Weight() {
				t.Fatalf("cutoff leaked weak evidence: %+v", ev)
			}
		}
	}
	if len(strict) > len(all) {
		t.Fatal("cutoff produced more hits than no cutoff")
	}
	// MinScore keeps only strong hits.
	if len(all) > 1 {
		min := all[0].Score
		top, err := c.Search(query, SearchOptions{TopK: -1, MinScore: min})
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range top {
			if h.Score < min {
				t.Fatalf("MinScore leaked hit %+v", h)
			}
		}
	}
}

func TestSearchTopKTruncates(t *testing.T) {
	models := testModels(15)
	c := New(testOptions(4))
	fill(t, c, models)
	query := models[1].Clone()
	all, err := c.Search(query, SearchOptions{TopK: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 3 {
		t.Skipf("workload produced only %d hits", len(all))
	}
	top2, err := c.Search(query, SearchOptions{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(top2) != 2 || top2[0].ModelID != all[0].ModelID || top2[1].ModelID != all[1].ModelID {
		t.Fatalf("TopK=2 = %v, want prefix of %v", top2, all[:2])
	}
}

// TestSearchAgreesWithAllPairsOracle cross-checks retrieval against the
// naive pairwise scan: any model the composer would identify components
// with must be reachable through the inverted index, and a full-clone
// query must rank its original first under both.
func TestSearchAgreesWithAllPairsOracle(t *testing.T) {
	models := testModels(10)
	c := New(testOptions(3))
	fill(t, c, models)
	query := models[6].Clone()
	inv, err := c.Search(query, SearchOptions{TopK: -1})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := SearchAllPairs(models, query, c.Options().Match, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(naive) == 0 || len(inv) == 0 {
		t.Fatal("no hits from either engine")
	}
	if inv[0].ModelID != models[6].ID || naive[0].ModelID != models[6].ID {
		t.Fatalf("clone query: inverted top %s, naive top %s, want %s",
			inv[0].ModelID, naive[0].ModelID, models[6].ID)
	}
	invIDs := make(map[string]bool, len(inv))
	for _, h := range inv {
		invIDs[h.ModelID] = true
	}
	for _, h := range naive {
		if !invIDs[h.ModelID] {
			t.Errorf("naive scan matched %s but inverted retrieval missed it", h.ModelID)
		}
	}
}

func TestComposeWithMatchesDirectCompose(t *testing.T) {
	models := testModels(6)
	c := New(testOptions(2))
	fill(t, c, models)
	query := models[3].Clone()
	got, err := c.ComposeWith(models[0].ID, query)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Compose(models[0], query, c.Options().Match)
	if err != nil {
		t.Fatal(err)
	}
	if gx, wx := sbml.WrapModel(got.Model).ToXML().Canonical(), sbml.WrapModel(want.Model).ToXML().Canonical(); gx != wx {
		t.Fatal("ComposeWith differs from direct core.Compose")
	}
	if _, err := c.ComposeWith("nope", query); err == nil {
		t.Fatal("ComposeWith on a missing id succeeded")
	}
}

func TestEngineCachedPerEntry(t *testing.T) {
	models := testModels(3)
	c := New(testOptions(2))
	fill(t, c, models)
	id := models[0].ID
	e, ok := c.lookup(id)
	if !ok {
		t.Fatal("lookup missed stored model")
	}
	e1, err := e.engine()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := e.engine()
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("engine recompiled on second use")
	}

	opts := sim.Options{T0: 0, T1: 1, Step: 0.05, Seed: 3}
	tr1, err := c.SimulateODE(id, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := c.SimulateODE(id, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tr1.Len() != tr2.Len() {
		t.Fatal("repeated simulations disagree")
	}
	for i := range tr1.Values {
		for j := range tr1.Values[i] {
			if tr1.Values[i][j] != tr2.Values[i][j] {
				t.Fatal("repeated simulations disagree")
			}
		}
	}
	if _, err := c.SimulateSSA(id, opts); err != nil {
		t.Fatal(err)
	}
	sp := models[0].Species[0].ID
	ok2, err := c.CheckProperty(id, "G({"+sp+" >= 0})", opts)
	if err != nil {
		t.Fatal(err)
	}
	if !ok2 {
		t.Fatal("non-negativity property failed on a generated model")
	}
	if _, err := c.SimulateODE("missing", opts); err == nil {
		t.Fatal("SimulateODE on a missing id succeeded")
	}
	if _, err := c.CheckProperty(id, "G({", opts); err == nil {
		t.Fatal("malformed formula accepted")
	}
}
