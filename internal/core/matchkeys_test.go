package core

import (
	"context"
	"testing"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/synonym"
)

// TestMatchKeysAgreeWithComposer pins the contract repository retrieval
// rests on: two models share a match key exactly when the pairwise
// composer identifies the corresponding components. Every composer match
// between two generated models must be witnessed by a shared key over the
// same component pair.
func TestMatchKeysAgreeWithComposer(t *testing.T) {
	opts := Options{Synonyms: synonym.Builtin()}
	a := biomodels.Generate(biomodels.Config{ID: "mk_a", Nodes: 14, Edges: 18, Seed: 71, VocabularySize: 60, Decorate: true})
	b := biomodels.Generate(biomodels.Config{ID: "mk_b", Nodes: 14, Edges: 18, Seed: 72, VocabularySize: 60, Decorate: true})

	ka := MatchKeys(a, opts)
	kb := MatchKeys(b, opts)
	// Shared keys → set of (aComp, bComp) pairs they support.
	byKey := make(map[string][]ComponentKey)
	for _, k := range ka {
		byKey[k.Key] = append(byKey[k.Key], k)
	}
	witnessed := make(map[[2]string]bool)
	for _, k := range kb {
		for _, ak := range byKey[k.Key] {
			witnessed[[2]string{ak.Component, k.Component}] = true
		}
	}

	matches, err := MatchModels(context.Background(), a, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("workload produced no matches; test is vacuous")
	}
	checked := 0
	for _, m := range matches {
		// The composer also matches parameters, rules and initial
		// assignments, which MatchKeys deliberately skips (ids like "k1"
		// carry no cross-model meaning); restrict the oracle to the keyed
		// families.
		if !keyedComponent(ka, m.First) {
			continue
		}
		checked++
		if !witnessed[[2]string{m.First, m.Second}] {
			t.Errorf("composer matched %q=%q but no shared match key witnesses it", m.First, m.Second)
		}
	}
	if checked == 0 {
		t.Fatal("no keyed-family matches to check; test is vacuous")
	}
}

func keyedComponent(keys []ComponentKey, id string) bool {
	for _, k := range keys {
		if k.Component == id {
			return true
		}
	}
	return false
}

// TestKeyTierOrdering pins the tier cascade the score matrix depends on.
func TestKeyTierOrdering(t *testing.T) {
	tiers := []KeyTier{TierExactID, TierSynonym, TierMath, TierUnit}
	for i := 1; i < len(tiers); i++ {
		if tiers[i-1].Weight() <= tiers[i].Weight() {
			t.Fatalf("tier %s (%g) not heavier than %s (%g)",
				tiers[i-1], tiers[i-1].Weight(), tiers[i], tiers[i].Weight())
		}
	}
	for _, tier := range tiers {
		if tier.String() == "unknown" {
			t.Fatalf("tier %d has no name", tier)
		}
	}
}

// TestMatchableComponentsCountsKeyedFamilies ties the coverage denominator
// to the keyed component families.
func TestMatchableComponentsCountsKeyedFamilies(t *testing.T) {
	m := biomodels.Generate(biomodels.Config{ID: "mk_c", Nodes: 9, Edges: 12, Seed: 9, Decorate: true})
	want := len(m.Compartments) + len(m.Species) + len(m.FunctionDefinitions) + len(m.UnitDefinitions) + len(m.Reactions)
	if got := MatchableComponents(m); got != want {
		t.Fatalf("MatchableComponents = %d, want %d", got, want)
	}
	seen := make(map[string]bool)
	for _, k := range MatchKeys(m, Options{}) {
		seen[k.Component] = true
	}
	if len(seen) != want {
		t.Fatalf("MatchKeys cover %d components, want %d", len(seen), want)
	}
}
