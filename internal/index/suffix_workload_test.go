package index_test

// Coverage for the suffix-tree index under the corpus inverted-index
// workload: a model repository interleaves inserts (models being added)
// with exact and substring lookups (queries being served), reuses keys
// across models (duplicate-key replacement), and routinely probes patterns
// that match nothing or everything. These tests pin that regime, which the
// original composer-driven tests (bulk insert, then look up) never hit.

import (
	"fmt"
	"testing"

	"sbmlcompose/internal/core"
	"sbmlcompose/internal/index"
	"sbmlcompose/internal/synonym"

	"sbmlcompose/internal/biomodels"
)

// corpusKeys derives real repository match keys (species ids, math
// patterns, unit vectors) so the workload exercises the key shapes the
// corpus actually posts, not synthetic strings.
func corpusKeys(t *testing.T, n int) [][]string {
	t.Helper()
	opts := core.Options{Synonyms: synonym.Builtin()}
	all := make([][]string, n)
	for i := range all {
		m := biomodels.Generate(biomodels.Config{
			ID: fmt.Sprintf("sw%02d", i), Nodes: 6 + i%5, Edges: 8 + i%7,
			Seed: int64(7100 + 31*i), VocabularySize: 80, Decorate: true,
		})
		for _, k := range core.MatchKeys(m, opts) {
			all[i] = append(all[i], k.Key)
		}
	}
	return all
}

func TestSuffixIndexInterleavedInsertLookup(t *testing.T) {
	models := corpusKeys(t, 8)
	idx := index.New(index.SuffixTree)
	shadow := make(map[string]any) // reference semantics: last insert wins

	for mi, keys := range models {
		for ki, k := range keys {
			val := fmt.Sprintf("m%d/k%d", mi, ki)
			idx.Insert(k, val)
			shadow[k] = val

			// Interleave: after every few inserts, verify a sample of
			// everything inserted so far plus a guaranteed miss.
			if ki%5 == 0 {
				for probe, want := range shadow {
					got, ok := idx.Lookup(probe)
					if !ok || got != want {
						t.Fatalf("after insert %d/%d: Lookup(%q) = %v,%v want %v", mi, ki, probe, got, ok, want)
					}
					break // one sample per round keeps the test linear
				}
				if _, ok := idx.Lookup("absent|" + val); ok {
					t.Fatalf("Lookup hit a never-inserted key")
				}
			}
		}
	}
	if idx.Len() != len(shadow) {
		t.Fatalf("Len = %d, want %d distinct keys", idx.Len(), len(shadow))
	}
	// Full verification after the interleaved phase.
	for probe, want := range shadow {
		if got, ok := idx.Lookup(probe); !ok || got != want {
			t.Fatalf("final Lookup(%q) = %v,%v want %v", probe, got, ok, want)
		}
	}
}

func TestSuffixIndexDuplicateKeysReplace(t *testing.T) {
	models := corpusKeys(t, 4)
	idx := index.New(index.SuffixTree)
	// Insert every model's keys under value "old", then re-insert under
	// "new" — the repository case of re-adding a revised model under the
	// same keys. Replacement must hold for tree-resident and overflow keys
	// alike, and Len must not double-count.
	distinct := make(map[string]bool)
	for _, keys := range models {
		for _, k := range keys {
			idx.Insert(k, "old")
			distinct[k] = true
		}
	}
	before := idx.Len()
	if before != len(distinct) {
		t.Fatalf("Len = %d, want %d", before, len(distinct))
	}
	for _, keys := range models {
		for _, k := range keys {
			idx.Insert(k, "new")
		}
	}
	if idx.Len() != before {
		t.Fatalf("duplicate inserts changed Len: %d → %d", before, idx.Len())
	}
	for k := range distinct {
		if got, _ := idx.Lookup(k); got != "new" {
			t.Fatalf("Lookup(%q) = %v after replacement, want \"new\"", k, got)
		}
	}
}

func TestSuffixIndexSubstringUnderWorkload(t *testing.T) {
	models := corpusKeys(t, 6)
	idx := index.New(index.SuffixTree)
	sub, ok := idx.(index.Substring)
	if !ok {
		t.Fatal("suffix index does not expose substring lookup")
	}
	inserted := make(map[string]string)
	for mi, keys := range models {
		for _, k := range keys {
			idx.Insert(k, fmt.Sprintf("m%d", mi))
			inserted[k] = fmt.Sprintf("m%d", mi)
		}
		// Substring probes interleaved with inserts: species keys all
		// carry the "s|" prefix, so the pattern must reach every species
		// key inserted so far — the inverted-index "all keys of one
		// family" sweep.
		wantSpecies := 0
		for k := range inserted {
			if len(k) > 2 && k[:2] == "s|" {
				wantSpecies++
			}
		}
		got := sub.LookupSubstring("s|")
		if len(got) != wantSpecies {
			t.Fatalf("after model %d: LookupSubstring(\"s|\") = %d values, want %d", mi, len(got), wantSpecies)
		}
	}
	// A pattern spanning a key boundary must not match (keys are separate
	// strings, not one concatenated text).
	if got := sub.LookupSubstring("\x00never\x00"); len(got) != 0 {
		t.Fatalf("boundary-spanning pattern matched %d values", len(got))
	}
	// Miss pattern.
	if got := sub.LookupSubstring("zz|no-such-family"); len(got) != 0 {
		t.Fatalf("absent pattern matched %d values", len(got))
	}
}

func TestSuffixIndexEmptyPatternEdgeCases(t *testing.T) {
	idx := index.New(index.SuffixTree)
	sub := idx.(index.Substring)

	// Empty pattern on an empty index: nothing to match.
	if got := sub.LookupSubstring(""); len(got) != 0 {
		t.Fatalf("empty pattern on empty index returned %d values", len(got))
	}
	// Empty key round-trips like any other key.
	idx.Insert("", "empty")
	if got, ok := idx.Lookup(""); !ok || got != "empty" {
		t.Fatalf("Lookup(\"\") = %v,%v", got, ok)
	}
	idx.Insert("s|id:x@cell", "x")
	// Every key contains the empty string, so the empty pattern sweeps the
	// whole index.
	if got := sub.LookupSubstring(""); len(got) != 2 {
		t.Fatalf("empty pattern returned %d values, want 2", len(got))
	}
	// Replacement on the empty key.
	idx.Insert("", "empty2")
	if got, _ := idx.Lookup(""); got != "empty2" {
		t.Fatalf("empty-key replacement: got %v", got)
	}
	if idx.Len() != 2 {
		t.Fatalf("Len = %d, want 2", idx.Len())
	}
}

// TestSuffixIndexReservedRuneOverflow pins the overflow path: keys the
// tree rejects (private-use runes) must still insert, replace and look up
// through the fallback map without disturbing tree-resident keys.
func TestSuffixIndexReservedRuneOverflow(t *testing.T) {
	idx := index.New(index.SuffixTree)
	weird := "s|id:odd@cell" // private-use rune is reserved by the tree
	idx.Insert(weird, 1)
	idx.Insert("s|id:normal@cell", 2)
	idx.Insert(weird, 3) // replace through the overflow path
	if got, ok := idx.Lookup(weird); !ok || got != 3 {
		t.Fatalf("overflow Lookup = %v,%v want 3", got, ok)
	}
	if got, ok := idx.Lookup("s|id:normal@cell"); !ok || got != 2 {
		t.Fatalf("tree Lookup = %v,%v want 2", got, ok)
	}
	if idx.Len() != 2 {
		t.Fatalf("Len = %d, want 2", idx.Len())
	}
}
