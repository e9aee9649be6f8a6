package sbmlcompose_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sbmlcompose"
	"sbmlcompose/internal/biomodels"
)

// TestOpenCorpusRoundTrip drives the durable facade the way an embedding
// application would: open, mutate, close, reopen, and require identical
// query results.
func TestOpenCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := sbmlcompose.OpenCorpus(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	var models []*sbmlcompose.Model
	for i := 0; i < 5; i++ {
		m := biomodels.Generate(biomodels.Config{
			ID:    []string{"alpha", "beta", "gamma", "delta", "eps"}[i],
			Nodes: 8, Edges: 11, Seed: int64(9100 + i), VocabularySize: 50, Decorate: true,
		})
		models = append(models, m)
		if _, err := st.Corpus().Add(m); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := st.Corpus().Remove("beta"); err != nil || !ok {
		t.Fatalf("Remove: ok=%v err=%v", ok, err)
	}
	query := models[2].Clone()
	want, err := st.Corpus().Search(context.Background(), query, sbmlcompose.SearchOptions{TopK: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Closing again is a no-op; mutating afterwards is a persist error.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Corpus().Add(models[1]); !errors.Is(err, sbmlcompose.ErrPersistFailed) {
		t.Fatalf("Add after Close: %v", err)
	}

	st2, err := sbmlcompose.OpenCorpus(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Corpus().IDs(); !reflect.DeepEqual(got, []string{"alpha", "delta", "eps", "gamma"}) {
		t.Fatalf("recovered IDs = %v", got)
	}
	got, err := st2.Corpus().Search(context.Background(), query, sbmlcompose.SearchOptions{TopK: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered Search diverges:\n got %+v\nwant %+v", got, want)
	}
	if rs := st2.Stats(); rs.SnapshotModels != 4 {
		t.Fatalf("recovery stats = %+v, want 4 snapshot models", rs)
	}
}

// TestOpenCorpusCorruptSnapshotSentinel pins the facade sentinel for
// recovery refusal.
func TestOpenCorpusCorruptSnapshotSentinel(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "corpus.snap"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := sbmlcompose.OpenCorpus(dir, nil)
	if !errors.Is(err, sbmlcompose.ErrCorruptSnapshot) {
		t.Fatalf("err = %v, want ErrCorruptSnapshot", err)
	}
}
